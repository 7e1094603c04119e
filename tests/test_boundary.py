"""Continuous task spectrum: moving indifference point under a Beta mass."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workmix import (
    DEFAULT_BOUNDARY,
    BetaShape,
    CalibrationError,
    ContinuousParams,
    DomainError,
    ParamError,
    advantage_grid,
    automated_share,
    automation_boundary,
    calibrate,
    payoff_human,
    payoff_machine,
    reg_inc_beta,
    simulate_boundary,
)


class TestParams:
    def test_builtin_values(self):
        assert DEFAULT_BOUNDARY.alpha_h == 1.0
        assert DEFAULT_BOUNDARY.beta_h == 1.5
        assert DEFAULT_BOUNDARY.alpha_m == 1.3704
        assert DEFAULT_BOUNDARY.beta_m == 2.5
        assert DEFAULT_BOUNDARY.gamma == 0.04336
        assert (DEFAULT_BOUNDARY.shape.p, DEFAULT_BOUNDARY.shape.q) == (2.0, 5.0)

    def test_validation(self):
        with pytest.raises(ParamError):
            ContinuousParams(alpha_h=1.0, beta_h=0.0, alpha_m=1.4,
                             beta_m=2.5, gamma=0.04, shape=BetaShape(2, 5))
        with pytest.raises(ParamError):
            ContinuousParams(alpha_h=1.0, beta_h=1.5, alpha_m=1.4,
                             beta_m=-2.5, gamma=0.04, shape=BetaShape(2, 5))
        with pytest.raises(ParamError):
            ContinuousParams(alpha_h=1.0, beta_h=1.5, alpha_m=1.4,
                             beta_m=2.5, gamma=0.0, shape=BetaShape(2, 5))

    @pytest.mark.parametrize("coefficients,message", [
        ({"alpha_h": -1.7e308, "alpha_m": 1.7e308}, "alpha_m - alpha_h must be finite, got inf"),
        ({"alpha_h": 1.7e308, "alpha_m": -1.7e308}, "alpha_m - alpha_h must be finite, got -inf"),
        ({"beta_h": 1.7e308, "beta_m": 1.7e308}, "beta_h + beta_m must be finite, got inf"),
    ])
    def test_refuses_overflowing_coefficients(self, coefficients, message):
        fields = dict(alpha_h=1.0, beta_h=1.5, alpha_m=1.4, beta_m=2.5, gamma=0.04,
                      shape=BetaShape(2, 5))
        with pytest.raises(ParamError) as excinfo:
            ContinuousParams(**{**fields, **coefficients})
        assert str(excinfo.value) == message

    def test_admitted_extremes_give_no_nan(self):
        """theta_t is finite plus gamma * t >= 0 over a finite positive sum: never NaN.

        It may overflow to inf, which simulate_boundary refuses rather than returns.
        """
        big = 1.7e308
        for alpha_h, alpha_m in itertools.product((-big, -1.0, 0.0, big), repeat=2):
            for beta_h, beta_m, gamma in itertools.product((5e-324, 1.0, big), repeat=3):
                try:
                    params = ContinuousParams(alpha_h, beta_h, alpha_m, beta_m, gamma,
                                              BetaShape(2, 5))
                except ParamError:
                    continue
                for t in range(4):
                    assert not math.isnan(automation_boundary(t, params))
                    assert not math.isnan(automated_share(t, params))
                try:
                    points = simulate_boundary(params, 3)
                except DomainError:
                    continue
                assert all(math.isfinite(point.theta) for point in points)


class TestPayoffs:
    def test_human_line(self):
        assert payoff_human(0.0, DEFAULT_BOUNDARY) == pytest.approx(1.0)
        assert payoff_human(1.0, DEFAULT_BOUNDARY) == pytest.approx(2.5)
        assert payoff_human(0.4, DEFAULT_BOUNDARY) == pytest.approx(1.6)

    def test_machine_line_drifts_upward(self):
        assert payoff_machine(0.0, 0, DEFAULT_BOUNDARY) == pytest.approx(1.3704)
        assert payoff_machine(1.0, 0, DEFAULT_BOUNDARY) == pytest.approx(-1.1296)
        assert payoff_machine(0.2, 10, DEFAULT_BOUNDARY) == pytest.approx(
            1.3704 - 0.5 + 0.4336, abs=1e-12
        )

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            payoff_human(-0.2, DEFAULT_BOUNDARY)
        with pytest.raises(DomainError):
            payoff_machine(0.5, -1, DEFAULT_BOUNDARY)


class TestAutomationBoundary:
    def test_five_year_marks(self):
        for t, want in {0: 0.0926, 5: 0.1468, 10: 0.2010,
                        15: 0.2552, 20: 0.3094}.items():
            assert automation_boundary(t, DEFAULT_BOUNDARY) == pytest.approx(
                want, abs=5e-4
            )

    def test_linear_in_t(self):
        slope = DEFAULT_BOUNDARY.gamma / (
            DEFAULT_BOUNDARY.beta_m + DEFAULT_BOUNDARY.beta_h
        )
        base = automation_boundary(0, DEFAULT_BOUNDARY)
        for t in range(1, 30):
            assert automation_boundary(t, DEFAULT_BOUNDARY) == pytest.approx(
                base + slope * t, abs=1e-12
            )

    def test_indifference_at_boundary(self):
        for t in (0, 7, 20):
            theta = automation_boundary(t, DEFAULT_BOUNDARY)
            gap = payoff_machine(theta, t, DEFAULT_BOUNDARY) - payoff_human(
                theta, DEFAULT_BOUNDARY
            )
            assert abs(gap) < 1e-12

    def test_machine_wins_below_loses_above(self):
        t = 10
        theta = automation_boundary(t, DEFAULT_BOUNDARY)
        below, above = theta - 1e-6, theta + 1e-6
        assert payoff_machine(below, t, DEFAULT_BOUNDARY) > payoff_human(
            below, DEFAULT_BOUNDARY
        )
        assert payoff_machine(above, t, DEFAULT_BOUNDARY) < payoff_human(
            above, DEFAULT_BOUNDARY
        )


class TestAutomatedShare:
    def test_five_year_marks(self):
        marks = {
            0: 0.1000089289147068,
            5: 0.2160229904116518,
            10: 0.3470975872239830,
            15: 0.4783603467021108,
            20: 0.5999062059089567,
        }
        for t, want in marks.items():
            assert automated_share(t, DEFAULT_BOUNDARY) == pytest.approx(
                want, abs=1e-10
            )

    def test_equals_cdf_of_clamped_boundary(self):
        for t in range(0, 25):
            theta = automation_boundary(t, DEFAULT_BOUNDARY)
            clamped = min(1.0, max(0.0, theta))
            assert automated_share(t, DEFAULT_BOUNDARY) == reg_inc_beta(
                clamped, DEFAULT_BOUNDARY.shape
            )

    def test_monotone_in_t(self):
        values = [automated_share(t, DEFAULT_BOUNDARY) for t in range(40)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_clamps_below_zero(self):
        # Machine starts behind everywhere: raw boundary is negative, share 0.
        lagging = ContinuousParams(alpha_h=1.0, beta_h=1.5, alpha_m=0.5,
                                   beta_m=2.5, gamma=0.01, shape=BetaShape(2, 5))
        assert automation_boundary(0, lagging) < 0.0
        assert automated_share(0, lagging) == 0.0

    def test_clamps_above_one(self):
        # Far future: raw boundary passes 1, share saturates at 1.
        t = 400
        assert automation_boundary(t, DEFAULT_BOUNDARY) > 1.0
        assert automated_share(t, DEFAULT_BOUNDARY) == 1.0


class TestSimulate:
    def test_shape_and_years(self):
        points = simulate_boundary(DEFAULT_BOUNDARY, 20)
        assert len(points) == 21
        assert points[0].year == 2025
        assert points[-1].year == 2045

    def test_zero_horizon_gives_single_point(self):
        points = simulate_boundary(DEFAULT_BOUNDARY, 0)
        assert len(points) == 1
        assert points[0].theta == pytest.approx(0.0926, abs=5e-4)
        assert points[0].share == pytest.approx(0.100009, abs=1e-5)

    def test_points_store_raw_theta(self):
        # Past saturation the share pins at 1 but theta keeps its raw value.
        hot = ContinuousParams(alpha_h=1.0, beta_h=1.5, alpha_m=1.3704,
                               beta_m=2.5, gamma=1.0, shape=BetaShape(2, 5))
        point = simulate_boundary(hot, 10)[-1]
        assert point.theta > 1.0
        assert point.share == 1.0

    def test_rejects_negative_horizon(self):
        with pytest.raises(DomainError):
            simulate_boundary(DEFAULT_BOUNDARY, -1)


class TestAdvantageGrid:
    def test_corner_values(self):
        grid = advantage_grid(DEFAULT_BOUNDARY, [2025, 2045], [0.0, 0.10, 0.30])
        assert grid[0][0] == pytest.approx(0.3704, abs=1e-4)
        assert grid[0][1] == pytest.approx(-0.0296, abs=1e-4)
        assert grid[1][2] == pytest.approx(0.0376, abs=1e-4)

    def test_matches_payoff_difference(self):
        years = [2025, 2030, 2040]
        thetas = [0.0, 0.25, 0.5, 1.0]
        grid = advantage_grid(DEFAULT_BOUNDARY, years, thetas)
        assert len(grid) == len(years)
        for i, year in enumerate(years):
            assert len(grid[i]) == len(thetas)
            t = year - DEFAULT_BOUNDARY.start_year
            for j, theta in enumerate(thetas):
                want = payoff_machine(theta, t, DEFAULT_BOUNDARY) - payoff_human(
                    theta, DEFAULT_BOUNDARY
                )
                assert grid[i][j] == pytest.approx(want, abs=1e-15)

    def test_rejects_bad_axes(self):
        with pytest.raises(DomainError):
            advantage_grid(DEFAULT_BOUNDARY, [], [0.0, 0.5])
        with pytest.raises(DomainError):
            advantage_grid(DEFAULT_BOUNDARY, [2030, 2025], [0.0, 0.5])
        with pytest.raises(DomainError):
            advantage_grid(DEFAULT_BOUNDARY, [2025, 2030], [0.5, 0.5])

    def test_rejects_empty_thetas(self):
        with pytest.raises(DomainError, match="thetas must be non-empty"):
            advantage_grid(DEFAULT_BOUNDARY, [2025], [])


class TestCalibrate:
    def test_frozen_solution(self):
        params = calibrate(0.10, 0.599906, 20, 1.0, 1.5, 2.5, BetaShape(2, 5))
        # Frozen from quadrature + bisection computed before this routine.
        assert params.alpha_m == pytest.approx(1.3703810356525141, abs=1e-12)
        assert params.gamma == pytest.approx(0.043360928711863866, abs=1e-12)
        # And the values the defaults were rounded from.
        assert params.alpha_m == pytest.approx(1.3704, abs=5e-4)
        assert params.gamma == pytest.approx(0.04336, abs=5e-5)

    def test_frozen_solution_other_shape(self):
        params = calibrate(0.10, 0.50, 20, 1.0, 1.5, 2.5, BetaShape(3, 5))
        assert params.alpha_m == pytest.approx(1.678553669588801, abs=1e-12)
        assert params.gamma == pytest.approx(0.0388955338101763, abs=1e-12)

    def test_round_trip_hits_both_targets(self):
        params = calibrate(0.10, 0.599906, 20, 1.0, 1.5, 2.5, BetaShape(2, 5))
        assert automated_share(0, params) == pytest.approx(0.10, abs=1e-9)
        assert automated_share(20, params) == pytest.approx(0.599906, abs=1e-9)

    def test_validation(self):
        shape = BetaShape(2, 5)
        with pytest.raises(ParamError):
            calibrate(0.0, 0.6, 20, 1.0, 1.5, 2.5, shape)
        with pytest.raises(ParamError):
            calibrate(0.6, 0.1, 20, 1.0, 1.5, 2.5, shape)
        with pytest.raises(ParamError):
            calibrate(0.1, 0.6, 0, 1.0, 1.5, 2.5, shape)

    @pytest.mark.parametrize("share_at_end", [0.0, 1.0])
    def test_rejects_share_at_end_outside_unit_interval(self, share_at_end):
        with pytest.raises(ParamError, match="share_at_end must lie in"):
            calibrate(0.1, share_at_end, 20, 1.0, 1.5, 2.5, BetaShape(2, 5))

    def test_targets_one_ulp_apart_give_no_improvement(self):
        # Both targets invert to the same theta, so gamma comes out 0.0.
        with pytest.raises(CalibrationError, match="gamma=0.0"):
            calibrate(0.3, 0.30000000000000004, 20, 1.0, 1.5, 2.5, BetaShape(2, 5))


valid_params = st.builds(
    ContinuousParams,
    alpha_h=st.floats(min_value=0.0, max_value=2.0),
    beta_h=st.floats(min_value=0.1, max_value=3.0),
    alpha_m=st.floats(min_value=0.0, max_value=3.0),
    beta_m=st.floats(min_value=0.1, max_value=3.0),
    gamma=st.floats(min_value=0.001, max_value=0.2),
    shape=st.builds(
        BetaShape,
        p=st.floats(min_value=0.5, max_value=10.0),
        q=st.floats(min_value=0.5, max_value=10.0),
    ),
)


class TestProperties:
    @given(valid_params, st.integers(min_value=0, max_value=60))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_share_in_unit_interval_and_monotone(self, params, t):
        share = automated_share(t, params)
        assert 0.0 <= share <= 1.0
        assert automated_share(t + 1, params) >= share

    @given(valid_params, st.integers(min_value=0, max_value=60))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_boundary_solves_indifference(self, params, t):
        theta = automation_boundary(t, params)
        if 0.0 <= theta <= 1.0:
            gap = payoff_machine(theta, t, params) - payoff_human(theta, params)
            assert abs(gap) < 1e-9

    @given(
        st.floats(min_value=0.05, max_value=0.4),
        st.floats(min_value=0.5, max_value=0.9),
        st.integers(min_value=5, max_value=40),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_calibration_round_trip(self, start, end, horizon):
        params = calibrate(start, end, horizon, 1.0, 1.5, 2.5, BetaShape(2, 5))
        assert automated_share(0, params) == pytest.approx(start, abs=1e-9)
        assert automated_share(horizon, params) == pytest.approx(end, abs=1e-9)
