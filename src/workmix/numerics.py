"""Special functions and root finding for the continuous allocation model.

The centerpiece is the regularized incomplete beta function I_x(p, q),
i.e. the Beta(p, q) CDF, evaluated through the standard continued-fraction
expansion with modified Lentz iteration.  The expansion converges fastest
for x below (p+1)/(p+q+2); above that point the symmetry identity
I_x(p, q) = 1 - I_(1-x)(q, p) is applied first.  Checked against mpmath's
``betainc``, the absolute error stays below 1e-12 for shape parameters from
1e-3 to 1e3 (the largest seen over 10,000 random points is about 1.2e-13).
ln Γ is the standard library's ``math.lgamma``.  ln B(p, q) comes from
Stirling's series once a shape reaches 100: as a plain difference of
log-gammas, ``math.lgamma``'s included, it puts the CDF up to 1.8e-12 off
near (1000, 1000).

The inverse returns the double that bisection of [0, 1] down to adjacent
floats returns, so its residual is as small as double precision permits,
but evaluates the CDF about 8 times instead of about 54.  Halley's method
on the CDF, started from the closed-form guess of Cran, Martin & Thomas
(AS 109, 1977) as in Numerical Recipes' ``invbetai`` and kept inside a
bisection bracket in the manner of DiDonato & Morris (TOMS 708, 1992),
locates a window around the crossing; the bisection then evaluates only
the midpoints inside that window.  The answers agree whenever the CDF's
rounding noise fits the window, which holds for every quantile of the
model's shapes the tests compare; elsewhere the residual is checked to be
no worse than bisection's.  ``locate_quantile`` returns that Halley
location alone, with the density there: an estimate, for callers that
check the CDF themselves.

``oracle_beta_cdf`` is an intentionally independent cross-check: it knows
nothing about continued fractions and simply integrates the density with
composite Simpson's rule, in pure Python (about 3 ms at 10,000 steps).  It
exists for ``verify`` and the test suite and should not be used as the
production path.

All arithmetic is 64-bit binary floating point; every function here is a
pure function of its arguments.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from ._frozen import Frozen
from .errors import BracketError, ComputationError, DomainError

__all__ = [
    "BetaShape",
    "TESTED_SHAPE_RANGE",
    "check_tested_shape",
    "log_gamma",
    "log_beta",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "locate_quantile",
    "oracle_beta_cdf",
    "bisect_root",
]

# Convergence controls for the continued fraction (values in the spirit of
# the classic betacf routine, tightened for double precision).
_FPMIN = 1e-300
_EPS = 1e-15
_MAX_ITER = 500

_LN_SQRT_TWO_PI = 0.9189385332046727417803297364056176

# Shape from which log_beta sums Stirling's series (three terms, truncation
# error below 1e-17 there) instead of differencing log-gammas.
_STIRLING_FROM = 100.0

# Inverse controls: CDF evaluations allowed to the Halley search, the CDF
# rounding noise its window allows for (in ulps of the target, or in ulps of
# |ln B| relative to the nearer tail, whichever is larger), and the largest
# finite log-density.
_HALLEY_STEPS = 20
_NOISE_ULPS = 16.0
_EXPONENT_ULPS = 4.0
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

#: The range of p and q over which the CDF is tested against mpmath to
#: within 1e-12, both ends inclusive; ``BetaShape`` refuses shapes outside it.
TESTED_SHAPE_RANGE = (1e-3, 1e3)


def check_tested_shape(value: float, label: str) -> None:
    """Refuse a shape parameter outside ``TESTED_SHAPE_RANGE``, naming it ``label``."""
    low, high = TESTED_SHAPE_RANGE
    if not low <= value <= high:
        raise DomainError(
            f"{label} must lie in [{low:g}, {high:g}], the range of Beta shapes "
            f"the CDF is tested on, got {value}"
        )


class BetaShape(Frozen):
    """Shape parameters (p, q) of a Beta distribution, both in ``TESTED_SHAPE_RANGE``.

    ``log_beta`` is ln B(p, q), computed once here for every CDF evaluation on
    the shape to reuse; it takes no constructor argument and plays no part in
    equality, hashing or repr.  All three are plain attributes, the quickest to read.
    """

    _fields = ("p", "q")

    def __init__(self, p: float, q: float) -> None:
        if not (p > 0 and q > 0):
            raise DomainError(f"beta shape parameters must be positive, got p={p}, q={q}")
        if not (math.isfinite(p) and math.isfinite(q)):
            raise DomainError(f"beta shape parameters must be finite, got p={p}, q={q}")
        check_tested_shape(p, "p")
        check_tested_shape(q, "q")
        store = object.__setattr__
        store(self, "p", p)
        store(self, "q", q)
        store(self, "log_beta", log_beta(p, q))


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for real x > 0 (``math.lgamma``)."""
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _stirling_tail(x: float) -> float:
    """ln Γ(x) - (x - 1/2) ln x + x - ln sqrt(2 pi), for x >= ``_STIRLING_FROM``."""
    r = 1.0 / (x * x)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r / 1260.0)) / x


def log_beta(p: float, q: float) -> float:
    """ln B(p, q) = ln Γ(p) + ln Γ(q) - ln Γ(p+q).

    Summed as written while both shapes are below ``_STIRLING_FROM``.  From
    there the log-gammas of the large arguments come from Stirling's series,
    with their leading terms cancelled by hand: the difference of values
    near ln Γ(p+q) would lose about one of their ulps (about 1e-12 once
    p + q reaches 1000), and the CDF inherits that error.
    """
    a, b = min(p, q), max(p, q)
    if b < _STIRLING_FROM:
        return log_gamma(p) + log_gamma(q) - log_gamma(p + q)
    c = a + b
    tails = _stirling_tail(b) - _stirling_tail(c)
    if a < _STIRLING_FROM:
        # ln Γ(b) - ln Γ(c) = -(b - 1/2) ln(1 + a/b) - a ln c + a + tails
        return log_gamma(a) - (b - 0.5) * math.log1p(a / b) - a * math.log(c) + a + tails
    return (
        _LN_SQRT_TWO_PI
        - 0.5 * math.log(c)
        - (a - 0.5) * math.log1p(b / a)
        - (b - 0.5) * math.log1p(a / b)
        + _stirling_tail(a)
        + tails
    )


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz method."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # Even step.
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        # Odd step.
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ComputationError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def reg_inc_beta(x: float, shape: BetaShape) -> float:
    """Regularized incomplete beta function I_x(p, q).

    I_0 = 0 and I_1 = 1.  The exact function is continuous and non-decreasing
    in x; the computed value is not monotone at the ulp scale.  Between
    adjacent doubles it can move by a few ulps of its value either way, from
    the rounding of p ln x + q ln(1 - x) - ln B and the continued fraction's
    1e-15 stopping rule, and by hundreds of ulps or more at shapes of about
    200 and above.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"reg_inc_beta requires x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    p, q = shape.p, shape.q
    front = math.exp(p * math.log(x) + q * math.log1p(-x) - shape.log_beta)
    if x <= (p + 1.0) / (p + q + 2.0):
        return front * _beta_cf(p, q, x) / p
    return 1.0 - front * _beta_cf(q, p, 1.0 - x) / q


def _initial_guess(target: float, p: float, q: float) -> float:
    """Closed-form starting point for the inverse (AS 109; NR ``invbetai``).

    For p, q >= 1 a normal approximation of the quantile, mapped through the
    Beta shape; otherwise the leading term of the CDF's expansion in the
    nearer tail.  Either may land on 0 or 1, which the caller bisects from.
    """
    if p >= 1.0 and q >= 1.0:
        tail = target if target < 0.5 else 1.0 - target
        t = math.sqrt(-2.0 * math.log(tail))
        z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
        if target < 0.5:
            z = -z
        al = (z * z - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * p - 1.0) + 1.0 / (2.0 * q - 1.0))
        w = z * math.sqrt(al + h) / h - (
            1.0 / (2.0 * q - 1.0) - 1.0 / (2.0 * p - 1.0)
        ) * (al + 5.0 / 6.0 - 2.0 / (3.0 * h))
        return p / (p + q * math.exp(min(2.0 * w, _LOG_FLOAT_MAX)))
    lower = math.exp(p * math.log(p / (p + q))) / p
    upper = math.exp(q * math.log(q / (p + q))) / q
    total = lower + upper
    if target < lower / total:
        return min(1.0, p * total * target) ** (1.0 / p)
    return 1.0 - min(1.0, q * total * (1.0 - target)) ** (1.0 / q)


def _locate(target: float, shape: BetaShape, cache: dict) -> tuple[float, float, float]:
    """Safeguarded Halley search for the x where I_x(p, q) crosses ``target``.

    Returns (center, half_width, density): where rounding noise in the
    computed CDF stays below ``_NOISE_ULPS`` ulps of the target, or below
    ``_EXPONENT_ULPS`` ulps of |ln B| times the nearer tail where that is
    larger, every crossing lies in center +- half_width.  The second bound
    is the rounding of the exponent p ln x + q ln(1 - x) - ln B, whose terms
    are about |ln B| in size near the bulk; it takes over at large shapes
    (hundreds of ulps of the target at (200, 200)).  The Newton step
    residual / density is corrected by the density's log-derivative
    (p - 1)/x - (q - 1)/(1 - x).  Every CDF value lands in ``cache`` and
    tightens a bracket [lo, hi]; a step that leaves the bracket, or a
    density that is 0 or overflows, is replaced by the bracket's midpoint.
    ``density`` is the Beta density at the last point evaluated, finite,
    and 0.0 where it underflows or overflows there.  The half width is
    infinite, and the density 0.0, when the search gives up after
    ``_HALLEY_STEPS`` evaluations.
    """
    p, q = shape.p, shape.q
    noise = max(
        _NOISE_ULPS * math.ulp(target),
        _EXPONENT_ULPS * math.ulp(abs(shape.log_beta)) * min(target, 1.0 - target),
    )
    lo, hi = 0.0, 1.0
    half = math.inf
    density = 0.0
    x = _initial_guess(target, p, q)
    for _ in range(_HALLEY_STEPS):
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if x == lo or x == hi:
                return x, half, density
        value = cache[x] = reg_inc_beta(x, shape)
        if value < target:
            lo = x
        elif value > target:
            hi = x
        log_density = (p - 1.0) * math.log(x) + (q - 1.0) * math.log1p(-x) - shape.log_beta
        density = math.exp(log_density) if log_density <= _LOG_FLOAT_MAX else 0.0
        if density == 0.0:
            x = math.nan
            continue
        half = noise / density + 2.0 * math.ulp(x)
        if value == target:
            return x, half, density
        u = (value - target) / density
        curvature = u * ((p - 1.0) / x - (q - 1.0) / (1.0 - x))
        step = u / (1.0 - 0.5 * min(1.0, curvature))
        if abs(step) <= 0.5 * half:
            return x - step, half, density
        x -= step
    return 0.5, math.inf, 0.0


def locate_quantile(target: float, shape: BetaShape) -> tuple[float, float]:
    """Estimate of the x where I_x(p, q) crosses ``target``, and the density.

    Returns (x, density) from the safeguarded Halley search that
    ``inv_reg_inc_beta`` starts from, without the bisection that follows:
    x is an estimate, not bisection's double, and callers that need a
    guarantee must check the CDF themselves.  The density is the Beta
    density at the last point the search evaluated, which lies within the
    CDF's rounding-noise window of x.  It is finite, and 0.0 when it
    underflows or overflows there or when the search gives up, as it can at
    extreme shapes; x then says nothing.  Requires 0 < target < 1.
    """
    if not 0.0 < target < 1.0:
        raise DomainError(f"locate_quantile requires target in (0, 1), got {target}")
    center, _, density = _locate(target, shape, {})
    return center, density


def _bisect(target: float, shape: BetaShape, a: float, b: float, cache: dict) -> float | None:
    """Bisection of [0, 1] that evaluates the CDF only inside [a, b].

    A midpoint left of a is taken to lie below the target and one right of
    b above it, without evaluation.  With a = -inf and b = inf this is plain
    bisection down to adjacent floats.  Returns None when the final bracket
    rests on a midpoint that was never evaluated: the crossing is not where
    the window said.
    """
    lo, hi = 0.0, 1.0
    lo_seen = hi_seen = True
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid if lo_seen and hi_seen else None
        if mid < a:
            lo, lo_seen = mid, False
            continue
        if mid > b:
            hi, hi_seen = mid, False
            continue
        value = cache.get(mid)
        if value is None:
            value = cache[mid] = reg_inc_beta(mid, shape)
        if value == target:
            return mid
        if value < target:
            lo, lo_seen = mid, True
        else:
            hi, hi_seen = mid, True


def inv_reg_inc_beta(target: float, shape: BetaShape) -> float:
    """Inverse Beta CDF: the x that bisection of [0, 1] finds, found faster.

    Returns x with reg_inc_beta(x, shape) as close to ``target`` as double
    precision permits; monotone (non-decreasing) in the target.  The answer
    is the one plain bisection gives: the first midpoint whose CDF value
    equals the target, or else the rounded midpoint of the final bracket of
    adjacent floats, the resolution the steep tails of small shape
    parameters require.  A safeguarded Halley search (``_locate``) first
    finds a narrow window around the crossing, and the bisection then
    evaluates only the midpoints inside it, about 8 CDF evaluations in all
    instead of about 54.  If the window misses the crossing, the bisection
    is run again without one.  A pure function of its arguments: nothing
    carries over between calls.
    """
    if not 0.0 <= target <= 1.0:
        raise DomainError(f"inv_reg_inc_beta requires target in [0, 1], got {target}")
    if target == 0.0:
        return 0.0
    if target == 1.0:
        return 1.0
    cache: dict[float, float] = {}
    center, half, _ = _locate(target, shape, cache)
    x = _bisect(target, shape, center - half, center + half, cache)
    if x is None:
        x = _bisect(target, shape, -math.inf, math.inf, cache)
    return x


def oracle_beta_cdf(x: float, shape: BetaShape, steps: int) -> float:
    """Beta CDF by composite Simpson integration of the density over [0, x].

    A deliberately naive reference path used by ``verify`` and the tests to
    cross-check ``reg_inc_beta``.  Requires p >= 1 and q >= 1 so the density
    is finite at both endpoints (Simpson evaluates them directly), and
    steps >= 1000; an odd step count is rounded up to the next even one.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"oracle_beta_cdf requires x in [0, 1], got {x}")
    if steps < 1000:
        raise DomainError(f"oracle_beta_cdf requires steps >= 1000, got {steps}")
    p, q = shape.p, shape.q
    if p < 1.0 or q < 1.0:
        raise DomainError(
            "oracle_beta_cdf handles shapes with p >= 1 and q >= 1 only "
            f"(density must be finite at the endpoints), got p={p}, q={q}"
        )
    if x == 0.0:
        return 0.0
    n = steps if steps % 2 == 0 else steps + 1
    h = x / n
    a, b = p - 1.0, q - 1.0
    # Simpson weights 1, 4, 2, 4, ..., 2, 4, 1, summed by math.fsum (correctly rounded).
    terms = [0.0**a, x**a * (1.0 - x) ** b]
    terms += [
        (4.0 if i % 2 else 2.0) * (i * h) ** a * (1.0 - i * h) ** b for i in range(1, n)
    ]
    integral = math.fsum(terms) * h / 3.0
    return integral / math.exp(shape.log_beta)


def bisect_root(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Root of a sign-changing function by deterministic bisection.

    Narrows [lo, hi] until its width is at most ``tol`` (or the interval
    can no longer be split in double precision) and returns the midpoint.
    An endpoint that is exactly a root is returned immediately.
    """
    if not tol > 0:
        raise DomainError(f"bisect_root requires tol > 0, got {tol}")
    if not lo < hi:
        raise DomainError(f"bisect_root requires lo < hi, got [{lo}, {hi}]")
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    f_hi = f(hi)
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(
            f"no sign change over [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_hi > 0.0):
            hi = mid
            f_hi = f_mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
