"""Finite delegation lattice: monotone chains into a declared fixed point."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workmix import (
    Allocation,
    BetaShape,
    DomainError,
    Line,
    MonotonicityError,
    ParamError,
    TaskUniverse,
    beta_quantile_thetas,
    delegation_map,
    fixed_point_oracle,
    inv_reg_inc_beta,
    linear_universe,
    reg_inc_beta,
    run_delegation,
    saturating_universe,
    table_universe,
)
from workmix.lattice import _PrefixUniverse

# Human payoff 1.0 everywhere; machine climbs toward 2 - theta, so every
# task is automated in the limit but crossing years spread out: t = 1, 2,
# 2, 4 for these four intricacies (worked out by hand from 2^-t factors).
SATURATING_THETAS = [0.0, 0.3, 0.6, 0.9]


def saturating_example() -> TaskUniverse:
    return saturating_universe(
        SATURATING_THETAS, lambda theta: 1.0, lambda theta: 2.0 - theta
    )


class TestUniverse:
    def test_rejects_values_not_one_per_task(self):
        with pytest.raises(ParamError):
            TaskUniverse((0.5,), (1.0, 1.0), (0.0,), lambda t: (0.0,))

    def test_rejects_theta_outside_unit_interval(self):
        with pytest.raises(ParamError):
            linear_universe([0.5, 1.2], 1.0, 1.5, 1.4, 2.5, 0.04)

    def test_len(self):
        assert len(saturating_example()) == 4

    def test_saturating_calls_each_utility_once_per_task(self):
        calls = {"human": [], "limit": []}

        def human(theta):
            calls["human"].append(theta)
            return 1.0

        def limit(theta):
            calls["limit"].append(theta)
            return 1.0

        # Machine utility (1 - 2**-t) never reaches the human 1.0 within 40
        # years, and the window is longer than the run, so all 40 years run.
        universe = saturating_universe(SATURATING_THETAS, human, limit)
        trace = run_delegation(universe, 40, stability_window=50)
        assert len(trace.iterations) == 41
        assert calls == {"human": SATURATING_THETAS, "limit": SATURATING_THETAS}


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

    def test_fraction_of_empty_universe(self):
        assert Allocation().fraction(0) == 0.0

    def test_beta_quantiles_need_a_task(self):
        with pytest.raises(DomainError, match="n must be >= 1, got 0"):
            beta_quantile_thetas(0, BetaShape(2, 5))

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


def reference_scan(n, human_at, machine_at, limit_at, max_years, window):
    """The delegation recursion written out task by task and year by year.

    ``human_at(i)``, ``machine_at(t, i)`` and ``limit_at(i)`` evaluate the
    family's own formula for task i; the stop rules are those documented on
    :func:`run_delegation` (fixed point reached, or a plateau of ``window``
    years).  Returns the allocation sets and ``converged_at``.
    """
    target = {i for i in range(n) if limit_at(i) >= human_at(i)}
    sets = [set()]
    run_start = 0
    for t in range(max_years):
        current = {i for i in range(n) if machine_at(t, i) >= human_at(i)}
        if current != sets[-1]:
            run_start = len(sets)
        sets.append(current)
        if current == target or len(sets) - 1 - run_start >= window:
            return sets, run_start
    return sets, None


coefficients = st.floats(min_value=0.0, max_value=3.0)


@st.composite
def family_thetas(draw):
    """Beta quantiles of a drawn shape, or uniform draws from [0, 1]."""
    n = draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()):
        p = draw(st.floats(min_value=0.5, max_value=8.0))
        q = draw(st.floats(min_value=0.5, max_value=8.0))
        return list(beta_quantile_thetas(n, BetaShape(p, q)))
    return draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                         min_size=n, max_size=n))


@st.composite
def linear_cases(draw):
    thetas = draw(family_thetas())
    a_h, b_h, a_m, b_m = (draw(coefficients) for _ in range(4))
    gamma = draw(st.floats(min_value=1e-3, max_value=0.5))
    universe = linear_universe(thetas, a_h, b_h, a_m, b_m, gamma)
    return (
        universe,
        lambda i: a_h + b_h * thetas[i],
        lambda t, i: a_m - b_m * thetas[i] + gamma * t,
        lambda i: float("inf"),
    )


@st.composite
def saturating_cases(draw):
    thetas = draw(family_thetas())
    a_h, b_h, c = (draw(coefficients) for _ in range(3))
    slope = draw(st.floats(min_value=0.0, max_value=c))
    universe = saturating_universe(
        thetas, lambda th: a_h + b_h * th, lambda th: c - slope * th
    )
    return (
        universe,
        lambda i: a_h + b_h * thetas[i],
        lambda t, i: (c - slope * thetas[i]) * (1.0 - 2.0**-t),
        lambda i: c - slope * thetas[i],
    )


@st.composite
def table_cases(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    thetas = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                           min_size=n, max_size=n, unique=True))
    human = [draw(coefficients) for _ in range(n)]
    rows = [[draw(coefficients) for _ in range(n)]]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        rows.append([v + draw(st.floats(min_value=0.0, max_value=0.5))
                     for v in rows[-1]])
    universe = table_universe(thetas, human, rows)
    return (
        universe,
        lambda i: human[i],
        lambda t, i: rows[min(t, len(rows) - 1)][i],
        lambda i: rows[-1][i],
    )


class TestAgainstReferenceScan:
    """run_delegation equals a task-by-task scan of each family's formula."""

    @staticmethod
    def check(case, max_years, window):
        universe, human_at, machine_at, limit_at = case
        trace = run_delegation(universe, max_years, stability_window=window)
        sets, converged_at = reference_scan(
            len(universe), human_at, machine_at, limit_at, max_years, window
        )
        assert [set(a.automated) for a in trace.iterations] == sets
        assert trace.converged_at == converged_at

    @given(linear_cases(), st.integers(1, 80), st.integers(1, 5))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_linear(self, case, max_years, window):
        self.check(case, max_years, window)

    @given(saturating_cases(), st.integers(1, 80), st.integers(1, 5))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_saturating(self, case, max_years, window):
        self.check(case, max_years, window)

    @given(table_cases(), st.integers(1, 20), st.integers(1, 5))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_table(self, case, max_years, window):
        self.check(case, max_years, window)


shapes = st.one_of(st.floats(min_value=0.3, max_value=9.0), st.sampled_from([1e-3, 1e3]))
negative_slopes = st.floats(min_value=-1.0, max_value=-1e-3)
slopes = st.one_of(coefficients, negative_slopes)


@st.composite
def quantile_cases(draw):
    """Linear and saturating universes over Beta quantiles, as the CLI builds them.

    Returns the case for ``check`` and whether the prefix premise holds:
    slopes are drawn negative as well, and those universes must be scanned.
    """
    n = draw(st.integers(min_value=1, max_value=150))
    thetas = beta_quantile_thetas(n, BetaShape(draw(shapes), draw(shapes)))
    a_h, b_h = draw(coefficients), draw(slopes)
    if draw(st.booleans()):
        a_m, b_m = draw(coefficients), draw(slopes)
        gamma = draw(st.floats(min_value=1e-3, max_value=0.5))
        case = (
            linear_universe(thetas, a_h, b_h, a_m, b_m, gamma),
            lambda i: a_h + b_h * thetas[i],
            lambda t, i: a_m - b_m * thetas[i] + gamma * t,
            lambda i: float("inf"),
        )
        return case, b_h >= 0 and b_m >= 0
    c = draw(coefficients)
    slope = draw(st.one_of(st.floats(min_value=0.0, max_value=c), negative_slopes))
    case = (
        saturating_universe(thetas, Line(a_h, b_h), Line(c, -slope)),
        lambda i: a_h + b_h * thetas[i],
        lambda t, i: (c - slope * thetas[i]) * (1.0 - 2.0**-t),
        lambda i: c - slope * thetas[i],
    )
    return case, b_h >= 0 and slope >= 0


class TestPrefixSearch:
    """The prefix search gives the task-by-task scan's counts and stop."""

    @given(quantile_cases(), st.integers(1, 90), st.integers(1, 5))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_reference_scan(self, drawn, max_years, window):
        case, searched = drawn
        assert isinstance(case[0], _PrefixUniverse) == searched
        TestAgainstReferenceScan.check(case, max_years, window)

    def test_negative_last_limit_is_scanned(self):
        # Limits 1 - 2 theta fall below zero within the task list, so the
        # search's premise fails and the scan names the first negative limit.
        thetas = beta_quantile_thetas(20, BetaShape(2.0, 5.0))
        first = next(theta for theta in thetas if Line(1.0, -2.0)(theta) < 0)
        with pytest.raises(ParamError, match=re.escape(f"negative at theta={first!r};")):
            saturating_universe(thetas, Line(1.0, 1.5), Line(1.0, -2.0))

    def test_plain_callables_and_listed_thetas_are_scanned(self):
        thetas = beta_quantile_thetas(20, BetaShape(2.0, 5.0))
        scanned = [
            saturating_universe(thetas, lambda th: 1.0, Line(2.0, -1.0)),
            linear_universe(list(thetas), 1.0, 1.5, 1.3704, 2.5, 0.04336),
        ]
        assert not any(isinstance(universe, _PrefixUniverse) for universe in scanned)

    def test_hand_built_universe_is_scanned(self):
        # Beta-quantile thetas alone do not make a universe searchable: a
        # hand-built one is scanned, so a shrinking schedule is still caught.
        thetas = beta_quantile_thetas(3, BetaShape(2.0, 5.0))
        rows = [(1.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
        universe = TaskUniverse(thetas, (0.5,) * 3, rows[-1], lambda t: rows[min(t, 1)])
        with pytest.raises(MonotonicityError, match="lost task ids \\[1\\]"):
            run_delegation(universe, 5)
        with pytest.raises(TypeError):
            TaskUniverse(thetas, (0.5,) * 3, rows[-1], lambda t: rows[0], prefix=True)

    def test_searched_trace_frozen(self):
        # Beta(1, 1) quantiles 0.125, ..., 0.875 and limits 2 - theta, all
        # above the human 1.0: three tasks cross at t = 2, one short of the
        # fixed point, and the last one at t = 4.
        thetas = beta_quantile_thetas(4, BetaShape(1.0, 1.0))
        searched = saturating_universe(thetas, Line(1.0, 0.0), Line(2.0, -1.0))
        scanned = saturating_universe(list(thetas), Line(1.0, 0.0), Line(2.0, -1.0))
        assert isinstance(searched, _PrefixUniverse)
        assert not isinstance(scanned, _PrefixUniverse)
        trace = run_delegation(searched, 30)
        assert trace == run_delegation(scanned, 30)
        assert trace.counts == (0, 0, 0, 3, 3, 4)
        assert trace.order == (0, 1, 2, 3)
        assert trace.converged_at == 5
        assert trace.final == Allocation(frozenset({0, 1, 2, 3}))
        truncated = run_delegation(searched, 3)
        assert truncated == run_delegation(scanned, 3)
        assert truncated.counts == (0, 0, 0, 3) and truncated.converged_at is None


log_shapes = st.floats(min_value=math.log(0.05), max_value=math.log(50.0)).map(math.exp)


@st.composite
def boundary_cases(draw):
    """Searched universes of both families, with the boundary model's theta_t.

    The machine wins task i in year t exactly when theta_i <= theta_t.
    """
    shape = BetaShape(draw(log_shapes), draw(log_shapes))
    thetas = beta_quantile_thetas(draw(st.integers(min_value=5, max_value=2000)), shape)
    a_h = draw(st.floats(min_value=-1.0, max_value=2.0))
    b_h = draw(st.floats(min_value=0.05, max_value=3.0))
    if draw(st.booleans()):
        a_m, b_m = draw(st.floats(min_value=-1.0, max_value=3.0)), draw(coefficients)
        gamma = draw(st.floats(min_value=1e-3, max_value=0.5))
        universe = linear_universe(thetas, a_h, b_h, a_m, b_m, gamma)
        return universe, shape, lambda t: (a_m - a_h + gamma * t) / (b_m + b_h)
    l0 = draw(st.floats(min_value=0.0, max_value=5.0))
    l1 = draw(st.floats(min_value=0.0, max_value=l0))
    universe = saturating_universe(thetas, Line(a_h, b_h), Line(l0, -l1))

    def boundary(t):
        c = 1.0 - 2.0**-t
        return (l0 * c - a_h) / (l1 * c + b_h)

    return universe, shape, boundary


class TestBoundaryModel:
    """The lattice's Beta families are the boundary model on N tasks.

    Task i sits at the quantile (i + 1/2) / N, so the count of tasks with
    theta_i <= theta_t is N * F(theta_t) rounded to the nearest integer.
    """

    @given(boundary_cases())
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_count_within_half_a_task_of_boundary_share(self, case):
        universe, shape, boundary = case
        assert isinstance(universe, _PrefixUniverse)
        n = len(universe)
        trace = run_delegation(universe, 60)
        for t, count in enumerate(trace.counts[1:]):
            share = reg_inc_beta(min(1.0, max(0.0, boundary(t))), shape)
            assert abs(count / n - share) <= 1 / (2 * n) + 1e-12, (t, count, share)


@st.composite
def saturating_premise_cases(draw):
    """Searched saturating universes, drawn as ``boundary_cases`` draws them."""
    shape = BetaShape(draw(log_shapes), draw(log_shapes))
    n = draw(st.integers(min_value=5, max_value=2000))
    a_h = draw(st.floats(min_value=-1.0, max_value=2.0))
    b_h = draw(st.floats(min_value=0.05, max_value=3.0))
    l0 = draw(st.floats(min_value=0.0, max_value=5.0))
    l1 = draw(st.floats(min_value=0.0, max_value=l0))
    return shape, n, Line(a_h, b_h), Line(l0, -l1)


class TestLimitAllocation:
    """The saturating limit allocation exists, is unique and is set by theta*.

    With human a_h + b_h theta and machine limit L0 - L1 theta, task i is
    automated in the limit exactly when theta_i <= theta* = (L0 - a_h) /
    (L1 + b_h): a prefix of the ids, whose length is N F(theta*) rounded.
    In doubles the two utilities of a task within a few ulps of theta* may
    round to a tie either way, which moves F by up to eps**p at a steep
    tail, so the share is bracketed by F at theta* -+ that slack.
    """

    @staticmethod
    def check(shape, n, human, limit):
        universe = saturating_universe(beta_quantile_thetas(n, shape), human, limit)
        assert isinstance(universe, _PrefixUniverse)
        automated = fixed_point_oracle(universe).automated
        k = len(automated)
        assert automated == frozenset(range(k))
        span = human.slope - limit.slope
        theta_star = (limit.intercept - human.intercept) / span
        slack = 8.0 * math.ulp(max(map(abs, (*human, *limit)))) / span + math.ulp(theta_star)
        low, high = (
            reg_inc_beta(min(1.0, max(0.0, theta_star + d)), shape) for d in (-slack, slack)
        )
        tolerance = 1 / (2 * n) + 1e-12
        assert low - tolerance <= k / n <= high + tolerance, (k, low, high)
        if limit(0.0) < human(0.0):  # L0 < a_h
            assert k == 0
        if limit(1.0) > human(1.0):  # L0 > a_h + b_h + L1
            assert k == n
        return k

    @given(saturating_premise_cases())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_prefix_of_length_n_times_share_at_theta_star(self, case):
        self.check(*case)

    def test_frozen_count(self):
        # theta* = (2 - 1) / (1 + 1.5) = 0.4 and F(0.4) = 0.76672 under Beta(2, 5).
        assert reg_inc_beta(0.4, BetaShape(2, 5)) == pytest.approx(0.76672, abs=1e-12)
        assert self.check(BetaShape(2, 5), 1000, Line(1.0, 1.5), Line(2.0, -1.0)) == 767
