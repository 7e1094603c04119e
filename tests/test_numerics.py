"""Special-function tests: two independent routes to every value.

The continued-fraction implementation is checked against (a) the exact
binomial-tail value for integer shapes (``exact_beta``, standard library
only), (b) 40-digit mpmath for fractional shapes, and (c) frozen values
computed from the binomial tail and Simpson quadrature before the
implementation existed.
"""

import math
import random
import re
from fractions import Fraction

import pytest

try:
    import mpmath
except ImportError:  # mpmath is in the test extra; its checks skip without it
    mpmath = None
from hypothesis import example, given, settings
from hypothesis import strategies as st

import workmix.numerics
from workmix import (
    BetaShape,
    BracketError,
    ComputationError,
    DomainError,
    WorkmixError,
    beta_quantile_thetas,
    bisect_root,
    inv_reg_inc_beta,
    log_beta,
    log_gamma,
    oracle_beta_cdf,
    reg_inc_beta,
)

from exact_beta import beta_cdf, root_distance, ulps

SHAPE_2_5 = BetaShape(2.0, 5.0)

# Shapes for cross-route agreement; the quadrature oracle needs p, q >= 1.
ORACLE_SHAPES = [
    (1.0, 1.0), (1.0, 3.0), (2.0, 2.0), (2.0, 5.0), (5.0, 2.0), (3.0, 5.0),
    (1.5, 5.0), (2.5, 5.0), (3.5, 5.0), (5.0, 5.0), (12.0, 8.0), (20.0, 20.0),
]


def reference_cdf(x, p, q):
    """I_x(p, q): exact for integer shapes, 40-digit mpmath for the others."""
    if p == int(p) and q == int(q):
        return float(beta_cdf(x, int(p), int(q)))
    if mpmath is None:
        pytest.skip("a fractional shape needs mpmath")
    with mpmath.workdps(40):
        return float(mpmath.betainc(p, q, 0, x, regularized=True))


class TestLogGamma:
    @pytest.mark.skipif(mpmath is None, reason="needs mpmath")
    def test_matches_mpmath_loggamma(self):
        # log_gamma is math.lgamma, so the oracle must be another library.
        for value in [0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 3.7, 5.0, 12.5, 20.0, 50.0]:
            with mpmath.workdps(40):
                exact = float(mpmath.loggamma(value))
            assert log_gamma(value) == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_factorial_values(self):
        # Gamma(n + 1) = n!
        for n in range(1, 15):
            assert log_gamma(n + 1.0) == pytest.approx(
                math.log(math.factorial(n)), rel=1e-13
            )

    def test_log_beta_integer_identity(self):
        # B(p, q) = (p-1)! (q-1)! / (p+q-1)!
        expected = math.log(
            math.factorial(1) * math.factorial(4) / math.factorial(6)
        )
        assert log_beta(2.0, 5.0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.skipif(mpmath is None, reason="needs mpmath")
    def test_log_beta_against_mpmath(self):
        # Either side of the switch to Stirling's series, in every branch.
        values = (1e-3, 0.5, 5.0, 99.0, 100.0, 250.0, 1000.0)
        for p in values:
            for q in values:
                with mpmath.workdps(40):
                    exact = float(mpmath.log(mpmath.beta(p, q)))
                assert abs(log_beta(p, q) - exact) <= 4e-13, (p, q)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-2.0)


class TestRegIncBeta:
    def test_endpoints_exact(self):
        assert reg_inc_beta(0.0, SHAPE_2_5) == 0.0
        assert reg_inc_beta(1.0, SHAPE_2_5) == 1.0

    def test_frozen_values_shape_2_5(self):
        # Frozen from the binomial-tail identity, independently of the
        # continued fraction.
        marks = {
            0.0926: 0.1000089289147068,
            0.1468: 0.2160229904116518,
            0.2010: 0.3470975872239830,
            0.2552: 0.4783603467021108,
            0.3094: 0.5999062059089567,
        }
        for x, want in marks.items():
            assert reg_inc_beta(x, SHAPE_2_5) == pytest.approx(want, abs=1e-10)

    def test_against_binomial_tail(self):
        for p, q in [(1, 1), (1, 4), (2, 5), (3, 3), (5, 2), (6, 7), (8, 8)]:
            shape = BetaShape(float(p), float(q))
            for i in range(1, 20):
                x = i / 20.0
                want = float(beta_cdf(x, p, q))
                assert reg_inc_beta(x, shape) == pytest.approx(
                    want, abs=1e-12
                ), (p, q, x)

    def test_against_reference(self):
        for p, q in ORACLE_SHAPES:
            shape = BetaShape(p, q)
            for i in range(1, 20):
                x = i / 20.0
                assert abs(reg_inc_beta(x, shape) - reference_cdf(x, p, q)) <= 1e-12, (p, q, x)

    def test_symmetry_identity(self):
        for p, q in [(0.5, 0.5), (0.7, 3.0), (2.0, 5.0), (9.0, 14.0), (20.0, 20.0)]:
            for i in range(1, 20):
                x = i / 20.0
                total = reg_inc_beta(x, BetaShape(p, q)) + reg_inc_beta(
                    1.0 - x, BetaShape(q, p)
                )
                assert abs(total - 1.0) < 1e-10, (p, q, x)

    def test_monotone_in_x(self):
        values = [reg_inc_beta(i / 50.0, SHAPE_2_5) for i in range(51)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, SHAPE_2_5)
        with pytest.raises(DomainError):
            reg_inc_beta(1.1, SHAPE_2_5)
        with pytest.raises(DomainError):
            BetaShape(0.0, 5.0)
        with pytest.raises(DomainError):
            BetaShape(2.0, -1.0)

    def test_non_finite_shapes_rejected(self):
        # An infinite shape would have a NaN log_beta, and every CDF call on
        # it would fail as a ComputationError rather than a DomainError.
        for p, q in [(math.inf, 2.0), (2.0, math.inf), (math.inf, math.inf)]:
            with pytest.raises(DomainError, match="must be finite"):
                BetaShape(p, q)
        for p, q in [(-math.inf, 2.0), (math.nan, 2.0), (2.0, math.nan)]:
            with pytest.raises(DomainError, match="must be positive"):
                BetaShape(p, q)

    def test_tested_shape_range(self):
        # Both ends are inclusive; a shape just outside either end is refused by name.
        for p, q in [(1e-3, 1e3), (1e3, 1e-3), (2.0, 5.0)]:
            shape = BetaShape(p, q)
            assert (shape.p, shape.q) == (p, q)
        below, above = math.nextafter(1e-3, 0.0), math.nextafter(1e3, math.inf)
        for p, q, name, value in [(below, 2.0, "p", below), (2.0, above, "q", above)]:
            message = (
                f"{name} must lie in [0.001, 1000], the range of Beta shapes the CDF "
                f"is tested on, got {value}"
            )
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                BetaShape(p, q)

    def test_huge_shape_is_refused(self):
        # Far outside the tested range the continued fraction runs out of
        # iterations; BetaShape refuses such a shape before any CDF call.
        with pytest.raises(DomainError, match="^p must lie in"):
            BetaShape(1e6, 1e6)
        with pytest.raises(ComputationError, match="did not converge"):
            workmix.numerics._beta_cf(1e6, 1e6, 0.5)


class TestInverse:
    def test_round_trip_residual(self):
        for p, q in [(0.5, 0.5), (0.5, 8.0), (2.0, 5.0), (5.0, 2.0), (20.0, 20.0)]:
            shape = BetaShape(p, q)
            for i in range(1, 40):
                t = i / 40.0
                x = inv_reg_inc_beta(t, shape)
                assert abs(reg_inc_beta(x, shape) - t) < 1e-10, (p, q, t)

    def test_frozen_value(self):
        # Frozen from Simpson quadrature + bisection, before the continued
        # fraction existed; the continued-fraction route must land on the
        # same double to within a few ulp.
        assert inv_reg_inc_beta(0.10, SHAPE_2_5) == pytest.approx(
            0.0925952589131287, abs=1e-12
        )

    def test_endpoints_exact(self):
        assert inv_reg_inc_beta(0.0, SHAPE_2_5) == 0.0
        assert inv_reg_inc_beta(1.0, SHAPE_2_5) == 1.0

    def test_monotone_in_target(self):
        values = [inv_reg_inc_beta(i / 30.0, SHAPE_2_5) for i in range(31)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            inv_reg_inc_beta(-0.01, SHAPE_2_5)
        with pytest.raises(DomainError):
            inv_reg_inc_beta(1.01, SHAPE_2_5)
        for target in (0.0, 1.0):  # the search that starts the inverse needs 0 < target < 1
            with pytest.raises(DomainError, match="locate_quantile requires target in"):
                workmix.numerics.locate_quantile(target, SHAPE_2_5)


def bisection_inverse(target, shape):
    """Reference inverse: plain bisection of [0, 1] down to adjacent floats."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        value = reg_inc_beta(mid, shape)
        if value == target:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid


GRID_SHAPE_VALUES = (1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 200.0, 1000.0)
GRID_TARGETS = (
    1e-9, 1e-6, 1e-3, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0 - 1e-6,
)


def grid_cases():
    for p in GRID_SHAPE_VALUES:
        for q in GRID_SHAPE_VALUES:
            shape = BetaShape(p, q)
            for target in GRID_TARGETS:
                yield shape, target


class TestInverseAgainstBisection:
    def test_residual_no_worse_than_bisection(self):
        for shape, target in grid_cases():
            try:
                reference = bisection_inverse(target, shape)
            except WorkmixError:
                continue
            x = inv_reg_inc_beta(target, shape)
            assert abs(reg_inc_beta(x, shape) - target) <= abs(
                reg_inc_beta(reference, shape) - target
            ) + 4 * 2.0**-52, (shape, target, x, reference)

    def test_same_double_as_bisection_on_model_shapes(self):
        for p, q in [(2.0, 5.0), (5.0, 2.0), (0.5, 0.5), (1.5, 5.0)]:
            shape = BetaShape(p, q)
            for i in range(200):
                target = (i + 0.5) / 200
                assert inv_reg_inc_beta(target, shape) == bisection_inverse(
                    target, shape
                ), (p, q, target)

    def test_density_overflow_takes_the_midpoint(self):
        # Here the starting guess is below 1e-320, where the Beta(1e-3, 1e-3)
        # density overflows a double, so no Halley step can be taken.
        shape = BetaShape(1e-3, 1e-3)
        for target in (0.238, 0.2385, 0.239):
            assert inv_reg_inc_beta(target, shape) == bisection_inverse(target, shape)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for shape, target in grid_cases():
            x = inv_reg_inc_beta(target, shape)
            exact = float(mpmath.betainc(shape.p, shape.q, 0, x, regularized=True))
            # In steep tails (p or q <= 0.1, or x within a few ulps of 0 or
            # 1) the CDF jumps past the target between adjacent doubles, so
            # no double does better than the computed residual; the
            # bisection test above pins that residual.
            floor = abs(reg_inc_beta(x, shape) - target)
            assert abs(exact - target) <= 1e-12 + floor, (shape, target, x)

    @pytest.mark.parametrize("p,q", [(2, 5), (5, 2), (0.5, 0.5), (20, 0.5)])
    def test_dense_quantiles_strictly_increase(self, p, q):
        thetas = beta_quantile_thetas(10_000, BetaShape(p, q))
        assert all(a < b for a, b in zip(thetas, thetas[1:]))


class TestExactReference:
    def test_closed_forms(self):
        for x in (0.0, 1e-300, 0.3, 0.5, 0.7, 1.0):
            assert beta_cdf(x, 1, 1) == Fraction(x)
            assert beta_cdf(x, 1, 4) == 1 - (1 - Fraction(x)) ** 4
            assert beta_cdf(x, 3, 5) + beta_cdf(1 - Fraction(x), 5, 3) == 1
        assert beta_cdf(0.5, 7, 7) == Fraction(1, 2)

    def test_root_distance_counts_doubles(self):
        # I_x(1, 1) = x: the root of target 0.3 is the double 0.3 itself.
        below, above = math.nextafter(0.3, 0.0), math.nextafter(0.3, 1.0)
        assert [root_distance(x, 0.3, 1, 1, 5) for x in (below, 0.3, above)] == [0, 0, 1]
        assert root_distance(math.nextafter(below, 0.0), 0.3, 1, 1, 5) == 1
        assert root_distance(0.5, 0.3, 1, 1, 5) == 6


class TestExactAccuracy:
    """Worst errors on fixed samples, against the exact value for integer shapes.

    Each bound is the error measured on x86-64 Linux (glibc) plus about 10%,
    so a change that makes the numerics less accurate fails here.
    """

    @pytest.mark.parametrize("p,q,bound", [
        # Measured: 22.7, 36.8, 109.1 and 370.7 ulps.
        (2, 5, 25), (5, 2, 40), (10, 30, 120), (50, 50, 400),
    ])
    def test_cdf_error_in_ulps(self, p, q, bound):
        shape = BetaShape(float(p), float(q))
        rng = random.Random(1)
        for x in (rng.random() for _ in range(400)):
            assert ulps(reg_inc_beta(x, shape), beta_cdf(x, p, q)) <= bound, (p, q, x)

    @pytest.mark.parametrize("p,q,bound", [
        # Measured: 17, 7 and 33 doubles.
        (2, 5, 20), (5, 2, 8), (50, 50, 36),
    ])
    def test_inverse_distance_from_exact_root(self, p, q, bound):
        # 250 of the 1000 lattice targets (i + 1/2) / 1000.
        shape = BetaShape(float(p), float(q))
        for i in random.Random(1).sample(range(1000), 250):
            target = (i + 0.5) / 1000
            x = inv_reg_inc_beta(target, shape)
            assert root_distance(x, target, p, q, bound) <= bound, (p, q, target)


class TestWorkCounts:
    def test_log_beta_once_per_shape(self, count_calls):
        calls = count_calls(workmix.numerics, "log_beta")
        shape = BetaShape(2.0, 5.0)
        assert calls[0] == 1
        for i in range(1, 10):
            reg_inc_beta(i / 10, shape)
        inv_reg_inc_beta(0.3, shape)
        assert calls[0] == 1
        assert shape.log_beta == log_beta(2.0, 5.0)
        assert shape == BetaShape(2.0, 5.0)
        assert repr(shape) == "BetaShape(p=2.0, q=5.0)"

    def test_cdf_evaluations_per_quantile(self, count_calls):
        shape = BetaShape(2.0, 5.0)
        calls = count_calls(workmix.numerics, "reg_inc_beta")
        beta_quantile_thetas(400, shape)
        assert calls[0] / 400 <= 10

    def test_cdf_evaluations_per_forced_quantile(self, count_calls):
        # The quantiles are inverted when read, so read all of them.
        shape = BetaShape(2.0, 5.0)
        calls = count_calls(workmix.numerics, "reg_inc_beta")
        assert len(tuple(beta_quantile_thetas(400, shape))) == 400
        assert 400 <= calls[0] <= 400 * 10


class TestQuadratureOracle:
    def test_frozen_value(self):
        assert oracle_beta_cdf(0.0926, SHAPE_2_5, 10000) == pytest.approx(
            0.1000089289147068, abs=1e-9
        )

    def test_high_resolution_tightens(self):
        coarse = oracle_beta_cdf(0.37, BetaShape(3.0, 4.0), 1000)
        fine = oracle_beta_cdf(0.37, BetaShape(3.0, 4.0), 100000)
        exact = float(beta_cdf(0.37, 3, 4))
        assert abs(fine - exact) <= abs(coarse - exact) + 1e-15
        assert fine == pytest.approx(exact, abs=1e-12)

    def test_matches_exact_value(self):
        for p, q in [(2, 5), (3, 4), (12, 8)]:
            for x in (i / 10.0 for i in range(1, 10)):
                got = oracle_beta_cdf(x, BetaShape(float(p), float(q)), 20000)
                assert abs(got - beta_cdf(x, p, q)) <= 4e-15, (p, q, x)

    @pytest.mark.parametrize("p,q,order", [
        (2.0, 5.0, 4.0), (3.0, 4.0, 4.0), (12.0, 8.0, 4.0),
        (1.5, 5.0, 1.5),  # the density's derivative is singular at 0
    ])
    def test_convergence_order(self, p, q, order):
        # Halving the step divides the error by about 2 ** order, where it is above rounding.
        shape = BetaShape(p, q)
        for x in (i / 20.0 for i in range(1, 20)):
            exact = reference_cdf(x, p, q)
            coarse, fine = (abs(oracle_beta_cdf(x, shape, n) - exact) for n in (1000, 2000))
            if coarse > 1e-13:
                assert math.log2(coarse / fine) >= order - 0.1, (p, q, x)

    def test_rejects_singular_shapes_and_thin_grids(self):
        with pytest.raises(DomainError):
            oracle_beta_cdf(0.5, BetaShape(0.5, 5.0), 2000)
        with pytest.raises(DomainError):
            oracle_beta_cdf(0.5, BetaShape(2.0, 0.9), 2000)
        with pytest.raises(DomainError):
            oracle_beta_cdf(0.5, SHAPE_2_5, 999)

    @pytest.mark.parametrize("x", [-0.1, 1.5])
    def test_rejects_x_outside_unit_interval(self, x):
        with pytest.raises(DomainError, match="requires x in"):
            oracle_beta_cdf(x, SHAPE_2_5, 1000)

    def test_zero_at_origin(self):
        assert oracle_beta_cdf(0.0, SHAPE_2_5, 1000) == 0.0


class TestBisect:
    def test_sqrt_two(self):
        root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
        assert root == pytest.approx(1.4142135623730951, abs=1e-12)

    def test_linear_midpoint(self):
        root = bisect_root(lambda x: x - 0.5, 0.0, 1.0, 1e-12)
        assert root == pytest.approx(0.5, abs=1e-12)

    def test_exact_zero_at_endpoint(self):
        assert bisect_root(lambda x: x - 0.5, 0.5, 2.0, 1e-6) == 0.5
        assert bisect_root(lambda x: x - 2.0, 0.5, 2.0, 1e-6) == 2.0

    def test_stops_at_adjacent_doubles(self):
        # No double squares to exactly 2, and no width reaches a tolerance this small.
        root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-300)
        assert root in (1.414213562373095, 1.4142135623730951)

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            bisect_root(lambda x: x * x + 1.0, 0.0, 1.0, 1e-9)

    def test_param_errors(self):
        with pytest.raises(DomainError):
            bisect_root(lambda x: x, 1.0, 0.0, 1e-9)
        with pytest.raises(DomainError):
            bisect_root(lambda x: x, 0.0, 1.0, 0.0)


shapes = st.tuples(
    st.floats(min_value=0.5, max_value=20.0),
    st.floats(min_value=0.5, max_value=20.0),
)

# Log-uniform over the documented accuracy range, 1e-3 to 1e3.
wide_shape_values = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)


class TestProperties:
    @given(shapes, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_cdf_stays_in_unit_interval(self, shape, x):
        p, q = shape
        value = reg_inc_beta(x, BetaShape(p, q))
        assert 0.0 <= value <= 1.0

    @given(
        shapes,
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_cdf_monotone(self, shape, x1, x2):
        p, q = shape
        lo, hi = min(x1, x2), max(x1, x2)
        beta = BetaShape(p, q)
        assert reg_inc_beta(lo, beta) <= reg_inc_beta(hi, beta)

    @given(shapes, st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_inverse_round_trip(self, shape, target):
        p, q = shape
        beta = BetaShape(p, q)
        x = inv_reg_inc_beta(target, beta)
        assert abs(reg_inc_beta(x, beta) - target) < 1e-10

    @given(shapes, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_symmetry(self, shape, x):
        p, q = shape
        total = reg_inc_beta(x, BetaShape(p, q)) + reg_inc_beta(
            1.0 - x, BetaShape(q, p)
        )
        assert abs(total - 1.0) < 1e-10

    @pytest.mark.skipif(mpmath is None, reason="needs mpmath")
    @given(
        wide_shape_values,
        wide_shape_values,
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    # Points where ln B taken as ln G(p) + ln G(q) - ln G(p + q) put the CDF
    # 1.2e-12 to 1.8e-12 off: its three log-gammas near 5000 to 13000 cancel.
    @example(2.529518593169466, 956.8105924510693, 0.0027319192750012407, 0.5)
    @example(0.13265446335722617, 768.88154767735, 0.0011818264852629364, 0.5)
    @example(877.1537196245406, 945.2497754899892, 0.4811075008311312, 0.5)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_cdf_against_mpmath(self, p, q, x, u):
        # Uniform x leaves a large shape's CDF at 0 or 1 almost everywhere,
        # so the quantile at u is checked as well: the sweep's median
        # bracket relies on this accuracy near the middle.
        shape = BetaShape(p, q)
        for point in (x, inv_reg_inc_beta(u, shape)):
            with mpmath.workdps(40):
                exact = float(mpmath.betainc(p, q, 0, point, regularized=True))
            assert abs(reg_inc_beta(point, shape) - exact) <= 1e-12, (p, q, point)
