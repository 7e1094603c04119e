"""Aggregate share recurrence: closed form vs iteration, frozen milestones."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workmix import (
    DEFAULT_AGGREGATE,
    AggregateParams,
    DomainError,
    ParamError,
    closed_form,
    convergence_time,
    equilibrium,
    simulate,
    step,
)


def geometric_oracle(t, alpha, beta, x0):
    """Closed form derived by hand from the affine recurrence.

    x_t = x* + (x0 - x*) (1 - alpha - beta)^t with x* = alpha/(alpha+beta);
    written independently so a bug in closed_form cannot hide itself.
    """
    x_star = alpha / (alpha + beta)
    return x_star + (x0 - x_star) * (1.0 - alpha - beta) ** t


class TestParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(ParamError):
            AggregateParams(alpha=1.2, beta=0.05, x0=0.1)
        with pytest.raises(ParamError):
            AggregateParams(alpha=0.1, beta=-0.05, x0=0.1)
        with pytest.raises(ParamError):
            AggregateParams(alpha=0.0, beta=0.0, x0=0.1)
        with pytest.raises(ParamError):
            AggregateParams(alpha=1.0, beta=1.0, x0=0.1)
        with pytest.raises(ParamError):
            AggregateParams(alpha=0.1, beta=0.05, x0=1.5)

    def test_defaults(self):
        assert DEFAULT_AGGREGATE.alpha == 0.10
        assert DEFAULT_AGGREGATE.beta == 0.05
        assert DEFAULT_AGGREGATE.x0 == 0.10
        assert DEFAULT_AGGREGATE.start_year == 2025


class TestStep:
    def test_single_steps(self):
        assert step(0.10, DEFAULT_AGGREGATE) == pytest.approx(0.185, abs=1e-12)
        assert step(0.185, DEFAULT_AGGREGATE) == pytest.approx(0.25725, abs=1e-12)

    def test_equilibrium_is_fixed_point(self):
        x_star = equilibrium(DEFAULT_AGGREGATE)
        assert x_star == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert abs(step(x_star, DEFAULT_AGGREGATE) - x_star) < 1e-12

    def test_rejects_share_outside_unit_interval(self):
        with pytest.raises(DomainError):
            step(-0.1, DEFAULT_AGGREGATE)
        with pytest.raises(DomainError):
            step(1.0001, DEFAULT_AGGREGATE)


class TestClosedForm:
    def test_frozen_milestones(self):
        # Frozen from the hand-derived geometric formula before wiring it in.
        milestones = {
            0: 0.10,
            1: 0.185,
            5: 0.41523365625,
            6: 0.4529486078125,
            10: 0.5551045042069237,
            18: 0.6362670344435182,
            20: 0.6447029323854419,
        }
        for t, want in milestones.items():
            assert closed_form(t, DEFAULT_AGGREGATE) == pytest.approx(
                want, abs=1e-12
            )

    def test_matches_iteration_exactly(self):
        x = DEFAULT_AGGREGATE.x0
        for t in range(101):
            assert abs(x - closed_form(t, DEFAULT_AGGREGATE)) < 1e-12
            x = step(x, DEFAULT_AGGREGATE)

    def test_rejects_negative_t(self):
        with pytest.raises(DomainError):
            closed_form(-1, DEFAULT_AGGREGATE)


class TestSimulate:
    def test_shape_and_years(self):
        points = simulate(DEFAULT_AGGREGATE, 20)
        assert len(points) == 21
        assert [p.year for p in points] == list(range(2025, 2046))
        assert points[0].share == DEFAULT_AGGREGATE.x0

    def test_percent_milestones(self):
        points = {p.year: p.share * 100.0 for p in simulate(DEFAULT_AGGREGATE, 20)}
        for year, want in {
            2025: 10.0, 2030: 41.5, 2035: 55.5, 2040: 61.7, 2045: 64.5
        }.items():
            assert points[year] == pytest.approx(want, abs=0.05)

    def test_monotone_approach_from_below(self):
        points = simulate(DEFAULT_AGGREGATE, 40)
        shares = [p.share for p in points]
        x_star = equilibrium(DEFAULT_AGGREGATE)
        assert all(a < b for a, b in zip(shares, shares[1:]))
        assert all(share < x_star for share in shares)

    def test_rejects_zero_horizon(self):
        with pytest.raises(DomainError):
            simulate(DEFAULT_AGGREGATE, 0)


class TestConvergenceTime:
    def test_default_scenario(self):
        assert convergence_time(DEFAULT_AGGREGATE, 0.02) == 21

    def test_gap_already_within_tolerance(self):
        # |x0 - x*| = 0.5666... sits just below this tolerance, so zero
        # years are needed.
        assert convergence_time(DEFAULT_AGGREGATE, 0.5667) == 0

    def test_one_step(self):
        assert convergence_time(DEFAULT_AGGREGATE, 0.55) == 1

    def test_starting_at_equilibrium(self):
        params = AggregateParams(alpha=0.10, beta=0.05, x0=2.0 / 3.0)
        assert convergence_time(params, 1e-9) == 0

    def test_definition_holds_at_answer(self):
        for tol in (0.3, 0.1, 0.02, 1e-4, 1e-8):
            t = convergence_time(DEFAULT_AGGREGATE, tol)
            gap = abs(
                closed_form(t, DEFAULT_AGGREGATE) - equilibrium(DEFAULT_AGGREGATE)
            )
            assert gap < tol
            if t > 0:
                prev = abs(
                    closed_form(t - 1, DEFAULT_AGGREGATE)
                    - equilibrium(DEFAULT_AGGREGATE)
                )
                assert prev >= tol

    def test_rejects_non_positive_tol(self):
        with pytest.raises(DomainError):
            convergence_time(DEFAULT_AGGREGATE, 0.0)

    def test_gap_closes_in_one_step(self):
        # alpha + beta = 1 lands on the equilibrium after a single step.
        assert convergence_time(AggregateParams(0.5, 0.5, 0.1), 1e-6) == 1


valid_params = st.builds(
    AggregateParams,
    alpha=st.floats(min_value=0.01, max_value=1.0),
    beta=st.floats(min_value=0.01, max_value=0.95),
    x0=st.floats(min_value=0.0, max_value=1.0),
)


class TestProperties:
    @given(valid_params, st.integers(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_iteration_matches_closed_form(self, params, horizon):
        x = params.x0
        for _ in range(horizon):
            x = step(x, params)
        assert abs(x - closed_form(horizon, params)) < 1e-12
        assert abs(x - geometric_oracle(horizon, params.alpha, params.beta, params.x0)) < 1e-12

    @given(valid_params)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_share_stays_in_unit_interval(self, params):
        for point in simulate(params, 50):
            assert 0.0 <= point.share <= 1.0

    @given(valid_params)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_gap_decays_geometrically(self, params):
        x_star = equilibrium(params)
        factor = abs(1.0 - params.alpha - params.beta)
        gap = abs(params.x0 - x_star)
        x = params.x0
        for _ in range(30):
            x = step(x, params)
            next_gap = abs(x - x_star)
            assert next_gap <= factor * gap + 1e-15
            gap = next_gap
