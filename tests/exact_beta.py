"""Exact regularized incomplete Beta function for integer shapes.

For positive integers p and q, I_x(p, q) = P[Binomial(p + q - 1, x) >= p].
A double x is a rational a / d, so the binomial tail is one integer sum over
d ** (p + q - 1): exact, with no rounding anywhere, and sharing no code path
with the library's continued fraction.  Standard library only.
"""

import math
from fractions import Fraction


def beta_cdf(x, p, q):
    """Exact I_x(p, q) as a Fraction, for x a double or Fraction in [0, 1], p and q ints >= 1."""
    a, d = Fraction(x).as_integer_ratio()
    n = p + q - 1
    # Horner's rule for the sum over k = p .. n of C(n, k) a**k (d - a)**(n - k).
    tail, power = 0, a**p
    for k in range(p, n + 1):
        tail = tail * (d - a) + math.comb(n, k) * power
        power *= a
    return Fraction(tail, d**n)


def ulps(value, exact):
    """|value - exact| in units of the last place of the double nearest exact."""
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact))))


def root_distance(x, target, p, q, limit):
    """How many doubles x lies from the two that bracket the exact root, up to limit + 1.

    The exact CDF is strictly increasing, so there is one pair of adjacent
    doubles lo < hi with I_lo(p, q) < target <= I_hi(p, q); either of them
    scores 0, and each further double one more.  The walk gives up one double
    past ``limit``, so a far-off x still costs only limit + 2 evaluations.
    """
    target = Fraction(target)
    below = beta_cdf(x, p, q) < target
    for steps in range(limit + 1):
        neighbour = math.nextafter(x, 1.0 if below else 0.0)
        if (beta_cdf(neighbour, p, q) < target) != below:
            return steps
        x = neighbour
    return limit + 1
