"""Finite delegation lattice: monotone chains into a declared fixed point."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workmix import (
    Allocation,
    BetaShape,
    DomainError,
    MonotonicityError,
    ParamError,
    Task,
    TaskUniverse,
    beta_quantile_thetas,
    check_capability_growth,
    delegation_map,
    fixed_point_oracle,
    inv_reg_inc_beta,
    linear_universe,
    run_delegation,
    saturating_universe,
    table_universe,
)

# Human payoff 1.0 everywhere; machine climbs toward 2 - theta, so every
# task is automated in the limit but crossing years spread out: t = 1, 2,
# 2, 4 for these four intricacies (worked out by hand from 2^-t factors).
SATURATING_THETAS = [0.0, 0.3, 0.6, 0.9]


def saturating_example() -> TaskUniverse:
    return saturating_universe(
        SATURATING_THETAS, lambda theta: 1.0, lambda theta: 2.0 - theta
    )


class TestUniverse:
    def test_rejects_non_contiguous_ids(self):
        with pytest.raises(ParamError):
            TaskUniverse(
                (Task(1, 0.5),),
                lambda theta: 1.0,
                lambda t, theta: 0.0,
                lambda theta: 0.0,
            )

    def test_rejects_theta_outside_unit_interval(self):
        with pytest.raises(ParamError):
            linear_universe([0.5, 1.2], 1.0, 1.5, 1.4, 2.5, 0.04)

    def test_len(self):
        assert len(saturating_example()) == 4


class TestDelegationMap:
    def test_tie_goes_to_machine(self):
        # The middle task sits exactly on the year-zero indifference line;
        # weak dominance sends it to the machine.
        universe = linear_universe(
            [0.05, 0.0926, 0.15], 1.0, 1.5, 1.3704, 2.5, 0.04336
        )
        assert sorted(delegation_map(universe, 0).automated) == [0, 1]

    def test_expands_with_t(self):
        universe = linear_universe(
            beta_quantile_thetas(50, BetaShape(2, 5)),
            1.0, 1.5, 1.3704, 2.5, 0.04336,
        )
        for t in range(0, 40, 5):
            early = delegation_map(universe, t).automated
            late = delegation_map(universe, t + 5).automated
            assert early <= late

    def test_rejects_negative_t(self):
        with pytest.raises(DomainError):
            delegation_map(saturating_example(), -1)


class TestFixedPointOracle:
    def test_unbounded_progress_automates_everything(self):
        universe = linear_universe(
            [0.1, 0.5, 0.9], 1.0, 1.5, 1.3704, 2.5, 0.04336
        )
        assert sorted(fixed_point_oracle(universe).automated) == [0, 1, 2]

    def test_saturating_limits_respected(self):
        # Limits 2.0, 1.7, 1.4, 1.1 all weakly beat the human payoff 1.0.
        assert sorted(fixed_point_oracle(saturating_example()).automated) == [
            0, 1, 2, 3,
        ]

    def test_capped_machine_leaves_tasks_human(self):
        universe = saturating_universe(
            [0.2, 0.8], lambda theta: 1.0, lambda theta: 1.5 - theta
        )
        # Limits 1.3 and 0.7: only the first task ever flips.
        assert sorted(fixed_point_oracle(universe).automated) == [0]


class TestRunDelegation:
    def test_saturating_trace_frozen(self):
        trace = run_delegation(saturating_example(), 30)
        sets = [sorted(a.automated) for a in trace.iterations]
        assert sets == [
            [],            # initial state
            [],            # t = 0: machine utility still zero
            [0],           # t = 1
            [0, 1, 2],     # t = 2
            [0, 1, 2],     # t = 3
            [0, 1, 2, 3],  # t = 4: equals the declared limit set
        ]
        assert trace.converged_at == 5
        assert not trace.truncated
        assert trace.final.automated == fixed_point_oracle(
            saturating_example()
        ).automated

    def test_constant_dominant_universe_settles_immediately(self):
        universe = table_universe([0.2, 0.6], [1.0, 1.0], [[1.5, 1.2]])
        trace = run_delegation(universe, 10)
        assert trace.converged_at == 1
        assert sorted(trace.final.automated) == [0, 1]
        assert len(trace.iterations) == 2

    def test_never_automating_universe_settles_at_start(self):
        universe = table_universe([0.2, 0.6], [2.0, 2.0], [[0.5, 0.2]])
        trace = run_delegation(universe, 10)
        assert trace.converged_at == 0
        assert trace.final.automated == frozenset()

    def test_truncation_reports_none(self):
        trace = run_delegation(saturating_example(), 3, stability_window=50)
        assert trace.truncated
        assert trace.converged_at is None
        assert len(trace.iterations) == 4

    def test_window_can_stop_before_late_jump(self):
        # The stability window is a heuristic: a plateau as long as the
        # window stops the run even if the schedule jumps later, so the
        # reported allocation can fall short of the asymptotic fixed point.
        universe = table_universe(
            [0.5], [1.0], [[0.2], [0.2], [0.2], [0.2], [5.0]]
        )
        trace = run_delegation(universe, 20, stability_window=3)
        assert trace.converged_at == 0
        assert trace.final.automated == frozenset()
        assert fixed_point_oracle(universe).automated == frozenset({0})

    def test_chain_is_monotone_and_compact(self):
        universe = linear_universe(
            beta_quantile_thetas(40, BetaShape(2, 5)),
            1.0, 1.5, 1.3704, 2.5, 0.04336,
        )
        trace = run_delegation(universe, 90)
        allocations = [a.automated for a in trace.iterations]
        assert all(a <= b for a, b in zip(allocations, allocations[1:]))
        assert len(set(allocations)) <= len(universe) + 1

    def test_shrinking_allocation_raises(self):
        universe = table_universe([0.5], [1.0], [[2.0], [0.5]])
        with pytest.raises(MonotonicityError) as excinfo:
            run_delegation(universe, 10)
        assert "0" in str(excinfo.value)

    def test_rejects_bad_controls(self):
        with pytest.raises(DomainError):
            run_delegation(saturating_example(), 0)
        with pytest.raises(DomainError):
            run_delegation(saturating_example(), 10, stability_window=0)


class TestChecks:
    def test_capability_growth(self):
        assert check_capability_growth(saturating_example(), 30)
        shrinking = table_universe([0.5], [1.0], [[2.0], [0.5]])
        assert not check_capability_growth(shrinking, 5)


class TestHelpers:
    def test_beta_quantiles(self):
        shape = BetaShape(2, 5)
        thetas = beta_quantile_thetas(9, shape)
        assert len(thetas) == 9
        assert all(0.0 < theta < 1.0 for theta in thetas)
        assert all(a < b for a, b in zip(thetas, thetas[1:]))
        for i, theta in enumerate(thetas):
            assert theta == inv_reg_inc_beta((i + 0.5) / 9, shape)

    def test_fraction_and_fractions(self):
        assert Allocation(frozenset({0, 3})).fraction(8) == pytest.approx(0.25)
        trace = run_delegation(saturating_example(), 30)
        assert trace.fractions(4) == [
            len(a.automated) / 4 for a in trace.iterations
        ]

    def test_table_validation(self):
        with pytest.raises(ParamError):
            table_universe([0.5, 0.5], [1.0, 1.0], [[1.0, 1.0]])
        with pytest.raises(ParamError):
            table_universe([0.2, 0.6], [1.0], [[1.0, 1.0]])
        with pytest.raises(ParamError):
            table_universe([0.2, 0.6], [1.0, 1.0], [[1.0]])
        with pytest.raises(ParamError):
            table_universe([0.2, 0.6], [1.0, 1.0], [])

    def test_saturating_rejects_negative_limit(self):
        with pytest.raises(ParamError):
            saturating_universe([0.5], lambda theta: 1.0, lambda theta: -0.5)


@st.composite
def growing_table_universes(draw):
    """Random small universes whose machine rows never decrease."""
    n = draw(st.integers(min_value=1, max_value=6))
    years = draw(st.integers(min_value=1, max_value=5))
    thetas = [(i + 1.0) / (n + 1.0) for i in range(n)]
    human = [draw(st.floats(min_value=0.0, max_value=2.0)) for _ in range(n)]
    row = [draw(st.floats(min_value=0.0, max_value=2.0)) for _ in range(n)]
    rows = [list(row)]
    for _ in range(years - 1):
        row = [
            value + draw(st.floats(min_value=0.0, max_value=0.5))
            for value in row
        ]
        rows.append(list(row))
    return table_universe(thetas, human, rows)


class TestProperties:
    @given(growing_table_universes())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_growing_tables_converge_monotonically(self, universe):
        # Window longer than any generated table, so the early-stop
        # heuristic cannot fire during a plateau before the last row.
        trace = run_delegation(universe, 20, stability_window=10)
        allocations = [a.automated for a in trace.iterations]
        assert all(a <= b for a, b in zip(allocations, allocations[1:]))
        assert len(set(allocations)) <= len(universe) + 1
        # The table saturates at its last row, so the oracle set is reached.
        assert trace.converged_at is not None
        assert trace.final.automated == fixed_point_oracle(universe).automated
