"""Two-category replicator dynamics: frozen trajectories plus sign laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workmix import (
    DEFAULT_REPLICATOR,
    CategoryParams,
    DomainError,
    ParamError,
    RangeError,
    ReplicatorParams,
    replicator_step,
    simulate_replicator,
)


class TestParams:
    def test_builtin_values(self):
        routine = DEFAULT_REPLICATOR.routine
        complex_ = DEFAULT_REPLICATOR.complex
        assert (routine.x0, routine.machine_intercept, routine.machine_growth,
                routine.human_payoff) == (0.30, 1.0, 0.05, 0.8)
        assert (complex_.x0, complex_.machine_intercept, complex_.machine_growth,
                complex_.human_payoff) == (0.05, 0.5, 0.02, 1.2)
        assert DEFAULT_REPLICATOR.sensitivity == 0.2
        assert DEFAULT_REPLICATOR.w_routine == 0.6
        assert DEFAULT_REPLICATOR.w_complex == pytest.approx(0.4, abs=1e-15)

    def test_payoff_gap(self):
        assert DEFAULT_REPLICATOR.routine.payoff_gap(0) == pytest.approx(0.2)
        assert DEFAULT_REPLICATOR.routine.payoff_gap(10) == pytest.approx(0.7)
        assert DEFAULT_REPLICATOR.complex.payoff_gap(0) == pytest.approx(-0.7)
        # The complex-category gap crosses zero at t = 35.
        assert DEFAULT_REPLICATOR.complex.payoff_gap(35) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ParamError):
            CategoryParams(x0=1.5, machine_intercept=1.0,
                           machine_growth=0.05, human_payoff=0.8)
        good = CategoryParams(x0=0.3, machine_intercept=1.0,
                              machine_growth=0.05, human_payoff=0.8)
        with pytest.raises(ParamError):
            ReplicatorParams(routine=good, complex=good,
                             sensitivity=0.0, w_routine=0.6)
        with pytest.raises(ParamError):
            ReplicatorParams(routine=good, complex=good,
                             sensitivity=0.2, w_routine=1.5)


class TestStep:
    def test_first_year_values(self):
        assert replicator_step(
            0.30, 0, DEFAULT_REPLICATOR.routine, 0.2
        ) == pytest.approx(0.3084, abs=1e-12)
        assert replicator_step(
            0.05, 0, DEFAULT_REPLICATOR.complex, 0.2
        ) == pytest.approx(0.04335, abs=1e-12)

    def test_absorbing_endpoints(self):
        assert replicator_step(0.0, 3, DEFAULT_REPLICATOR.routine, 0.2) == 0.0
        assert replicator_step(1.0, 3, DEFAULT_REPLICATOR.routine, 0.2) == 1.0

    def test_sign_follows_payoff_gap(self):
        routine = DEFAULT_REPLICATOR.routine      # positive gap from t = 0
        complex_ = DEFAULT_REPLICATOR.complex     # negative gap until t = 35
        assert replicator_step(0.4, 0, routine, 0.2) > 0.4
        assert replicator_step(0.4, 0, complex_, 0.2) < 0.4
        assert replicator_step(0.4, 40, complex_, 0.2) > 0.4

    def test_escape_raises_range_error(self):
        hot = CategoryParams(x0=0.9, machine_intercept=30.0,
                             machine_growth=0.0, human_payoff=0.0)
        with pytest.raises(RangeError):
            replicator_step(0.9, 0, hot, 0.2)

    def test_rounding_out_of_range_settles_at_the_end_pushed_towards(self):
        # r * gap = -1: the exact step is x**2 >= 0, the computed one -1.66e-316.
        falling = CategoryParams(x0=0.5, machine_intercept=0.0,
                                 machine_growth=0.0, human_payoff=0.64)
        assert 1e-300 + 1.5625 * 1e-300 * (1.0 - 1e-300) * -0.64 < 0.0
        assert replicator_step(1e-300, 0, falling, 1.5625) == 0.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            replicator_step(-0.1, 0, DEFAULT_REPLICATOR.routine, 0.2)
        with pytest.raises(DomainError):
            replicator_step(0.5, -1, DEFAULT_REPLICATOR.routine, 0.2)


class TestSimulate:
    def test_shape_and_years(self):
        points = simulate_replicator(DEFAULT_REPLICATOR, 20)
        assert len(points) == 21
        assert points[0].year == 2025
        assert points[-1].year == 2045
        first = points[0]
        assert (first.x_routine, first.x_complex) == (0.30, 0.05)
        assert first.x_total == pytest.approx(0.2, abs=1e-15)

    def test_frozen_trajectory(self):
        # Frozen from a by-hand run of the recurrence (spreadsheet-checked).
        points = {p.year: p for p in simulate_replicator(DEFAULT_REPLICATOR, 20)}
        expected = {
            2026: (0.3084, 0.04335, 0.20238),
            2030: (0.36576948315576635, 0.025371328738993306, 0.22961022138905712),
            2035: (0.49885671620998945, 0.014188954876289928, 0.3049896116765096),
            2045: (0.8730484184667554, 0.006080389138605414, 0.5262612067354954),
        }
        for year, (routine, complex_, total) in expected.items():
            assert points[year].x_routine == pytest.approx(routine, abs=1e-12)
            assert points[year].x_complex == pytest.approx(complex_, abs=1e-12)
            assert points[year].x_total == pytest.approx(total, abs=1e-12)

    def test_percent_milestones(self):
        points = {p.year: p for p in simulate_replicator(DEFAULT_REPLICATOR, 20)}
        for year, (routine, complex_, total) in {
            2030: (36.6, 2.5, 23.0),
            2045: (87.3, 0.6, 52.6),
        }.items():
            assert points[year].x_routine * 100 == pytest.approx(routine, abs=0.05)
            assert points[year].x_complex * 100 == pytest.approx(complex_, abs=0.05)
            assert points[year].x_total * 100 == pytest.approx(total, abs=0.05)

    def test_monotone_category_shares(self):
        points = simulate_replicator(DEFAULT_REPLICATOR, 20)
        routine = [p.x_routine for p in points]
        complex_ = [p.x_complex for p in points]
        # Routine gap stays positive, complex gap stays negative for 20 years.
        assert all(a < b for a, b in zip(routine, routine[1:]))
        assert all(a > b for a, b in zip(complex_, complex_[1:]))

    def test_total_is_weighted_mix(self):
        for point in simulate_replicator(DEFAULT_REPLICATOR, 20):
            mix = 0.6 * point.x_routine + 0.4 * point.x_complex
            assert point.x_total == pytest.approx(mix, abs=1e-12)

    def test_rejects_zero_horizon(self):
        with pytest.raises(DomainError):
            simulate_replicator(DEFAULT_REPLICATOR, 0)


categories = st.builds(
    CategoryParams,
    x0=st.floats(min_value=0.0, max_value=1.0),
    machine_intercept=st.floats(min_value=0.0, max_value=2.0),
    machine_growth=st.floats(min_value=0.0, max_value=0.1),
    human_payoff=st.floats(min_value=0.0, max_value=2.0),
)


class TestProperties:
    @given(categories, st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=50),
           st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_step_bounded_and_signed(self, cat, x, t, r):
        # Mirror the update formula; the step must return exactly this value
        # when inside the interval.  Outside it, the step refuses to leave
        # where |r * gap| > 1, and settles at the end the gap pushes towards
        # where only float rounding left the interval.
        gap = cat.payoff_gap(t)
        expected = x + r * x * (1.0 - x) * gap
        if not 0.0 <= expected <= 1.0:
            if abs(r * gap) > 1.0:
                with pytest.raises(RangeError):
                    replicator_step(x, t, cat, r)
            else:
                assert replicator_step(x, t, cat, r) == (0.0 if gap < 0 else 1.0)
            return
        next_x = replicator_step(x, t, cat, r)
        assert next_x == expected
        delta = next_x - x
        assert abs(delta) <= r * 0.25 * abs(gap) + 1e-15
        if 0.0 < x < 1.0:
            if gap > 0:
                assert delta >= 0
            elif gap < 0:
                assert delta <= 0
            else:
                assert delta == 0
