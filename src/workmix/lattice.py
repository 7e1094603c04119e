"""Finite-universe delegation iteration over a growing machine capability.

A :class:`TaskUniverse` is plain data: one intricacy theta, one human
utility and one machine-utility limit per task (a task's id is its
position), plus ``machine(t)``, every task's machine utility at year offset
t as one row.  The delegation map sends t to the tasks whose machine utility
weakly dominates the human utility (ties go to the machine).  As long as
machine utility never decreases in t, the allocations form a monotone
inclusion chain that settles on the asymptotic dominance set, which
``fixed_point_oracle`` computes by the same comparison against the limits.

Three schedule families cover the interesting regimes: linear growth (never
saturates, so eventually everything is automated), geometric saturation
toward a finite limit (a nontrivial split can persist), and explicit
year-by-year tables (exact saturation after the last row).  Each family
evaluates a task's values at most once.

Premise: Beta-quantile thetas (never decreasing in the id, as the CDF's error
of 1e-12 is far below the 1/n between targets), a human :class:`Line` of slope
>= 0, a machine base (linear year-zero value, saturating limit) :class:`Line` of
slope <= 0, and a last saturating limit >= 0.  Then the machine wins a prefix
of the ids every year and ``run_delegation`` bisects for its length, computing
a task's values only when read; else it scans every task.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import cache
from typing import Callable, Sequence

from . import numerics  # read when called: a table lattice never runs numerics
from ._frozen import Frozen
from .errors import DomainError, MonotonicityError, ParamError

__all__ = [
    "Line",
    "TaskUniverse",
    "Allocation",
    "DelegationTrace",
    "delegation_map",
    "run_delegation",
    "fixed_point_oracle",
    "linear_universe",
    "saturating_universe",
    "table_universe",
    "beta_quantile_thetas",
]


class _Lazy(Sequence):
    """Read-only ``formula(values[i])``, each computed when first read, then kept."""

    def __init__(self, values: Sequence, formula: Callable) -> None:
        self._n, self._value = len(values), cache(lambda i: formula(values[i]))

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        i = range(self._n)[index]
        return tuple(map(self._value, i)) if isinstance(i, range) else self._value(i)


class _Quantiles(_Lazy):
    """Beta quantiles, one theta of the module's premise."""


class Line(namedtuple("Line", "intercept slope")):
    """The utility ``intercept + slope * theta``."""

    __slots__ = ()

    def __call__(self, theta: float) -> float:
        return self.intercept + self.slope * theta


class TaskUniverse(Frozen):
    """Per-task values plus the machine schedule, one row per year.

    ``thetas``, ``human`` and ``limit`` hold one value per task, task i at
    position i; every theta lies in [0, 1].  ``machine(t)`` returns every
    task's machine utility at year offset t and is expected to be
    non-decreasing in t for every task (checked during delegation runs);
    ``limit`` is its declared asymptote.
    """

    _fields = ("thetas", "human", "limit", "machine")

    def __init__(
        self,
        thetas: Sequence[float],
        human: Sequence[float],
        limit: Sequence[float],
        machine: Callable[[int], Sequence[float]],
    ) -> None:
        if not len(thetas) == len(human) == len(limit):
            raise ParamError("thetas, human and limit need one value per task")
        # A _PrefixUniverse's Beta quantiles lie in [0, 1]; checking would invert them all.
        if not isinstance(self, _PrefixUniverse):
            for index, theta in enumerate(thetas):
                if not 0.0 <= theta <= 1.0:
                    raise ParamError(f"task {index} has theta {theta} outside [0, 1]")
        store = object.__setattr__
        store(self, "thetas", thetas)
        store(self, "human", human)
        store(self, "limit", limit)
        store(self, "machine", machine)

    def __len__(self) -> int:
        return len(self.thetas)


class _PrefixUniverse(TaskUniverse):
    """Built only when the module's premise holds: the machine wins a prefix of the ids."""


class Allocation(namedtuple("Allocation", "automated", defaults=(frozenset(),))):
    """Set of task ids currently delegated to the machine."""

    __slots__ = ()

    def fraction(self, n_tasks: int) -> float:
        """Automated share |A| / N; zero for an empty universe."""
        if n_tasks == 0:
            return 0.0
        return len(self.automated) / n_tasks


class DelegationTrace(namedtuple("DelegationTrace", "counts order converged_at")):
    """Row k automates the first ``counts[k]`` ids of ``order``: the empty start, then
    year offset k - 1.  ``converged_at`` is None when the run was truncated."""

    __slots__ = ()

    @property
    def iterations(self) -> tuple[Allocation, ...]:
        return tuple(Allocation(frozenset(self.order[:count])) for count in self.counts)

    @property
    def final(self) -> Allocation:
        return Allocation(frozenset(self.order[: self.counts[-1]]))


def _prefix_count(row: Sequence[float], human: Sequence[float], start: int) -> int:
    """First id from ``start`` on (all below go to the machine) where the human wins."""
    return bisect_left(range(len(human)), True, start, key=lambda i: not row[i] >= human[i])


def _machine_wins(universe: TaskUniverse, row: Sequence[float]) -> frozenset[int]:
    """Ids of the tasks whose machine value in ``row`` weakly beats the human one."""
    if isinstance(universe, _PrefixUniverse):
        return frozenset(range(_prefix_count(row, universe.human, 0)))
    return frozenset(i for i, (m, h) in enumerate(zip(row, universe.human)) if m >= h)


def delegation_map(universe: TaskUniverse, t: int) -> Allocation:
    """Tasks whose machine utility weakly dominates at year offset t."""
    if t < 0:
        raise DomainError(f"t must be non-negative, got {t}")
    return Allocation(_machine_wins(universe, universe.machine(t)))


def fixed_point_oracle(universe: TaskUniverse) -> Allocation:
    """Asymptotic dominance set, straight from the declared utility limits."""
    return Allocation(_machine_wins(universe, universe.limit))


# Years the allocation must stay unchanged before ``run_delegation`` stops.
DEFAULT_STABILITY_WINDOW = 3


def run_delegation(
    universe: TaskUniverse, max_years: int, stability_window: int = DEFAULT_STABILITY_WINDOW
) -> DelegationTrace:
    """Iterate the delegation map from an empty allocation.

    Stops once the allocation has stayed unchanged for ``stability_window``
    consecutive iterations, or as soon as it equals the asymptotic fixed
    point; ``converged_at`` is the index where the settled value first
    appeared.  If ``max_years`` passes without either signal the trace is
    returned with ``converged_at`` None.  Unless searched (see the module
    docstring), a shrinking allocation raises :class:`MonotonicityError`,
    since it means machine utility decreased in t.
    """
    if max_years < 1:
        raise DomainError(f"max_years must be >= 1, got {max_years}")
    if stability_window < 1:
        raise DomainError(
            f"stability_window must be >= 1, got {stability_window}"
        )
    target = fixed_point_oracle(universe).automated
    counts, order, previous, run_start = [0], [], frozenset(), 0
    for t in range(max_years):
        if isinstance(universe, _PrefixUniverse):
            reached = _prefix_count(universe.machine(t), universe.human, len(order))
            gained, settled = range(len(order), reached), reached == len(target)
        else:
            current = delegation_map(universe, t).automated
            if not previous <= current:
                raise MonotonicityError(
                    f"allocation shrank at t={t}: lost task ids {sorted(previous - current)} "
                    "(machine utility is not non-decreasing in t)"
                )
            gained, settled, previous = sorted(current - previous), current == target, current
        order.extend(gained)
        counts.append(len(order))
        if gained:
            run_start = len(counts) - 1
        if settled or len(counts) - 1 - run_start >= stability_window:
            return DelegationTrace(tuple(counts), tuple(order), run_start)
    return DelegationTrace(tuple(counts), tuple(order), None)


def beta_quantile_thetas(n: int, shape: numerics.BetaShape) -> Sequence[float]:
    """Intricacy values, Beta(p, q) quantiles at (i + 0.5) / n, inverted when first read."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return _Quantiles(range(n), lambda i: numerics.inv_reg_inc_beta((i + 0.5) / n, shape))


def _premise(thetas: Sequence[float], human: Callable, base: Callable, saturating: bool):
    """The universe type, its thetas and its per-task map: lazy if the premise holds."""
    if (isinstance(thetas, _Quantiles) and isinstance(human, Line) and isinstance(base, Line)
            and human.slope >= 0 >= base.slope and not (saturating and base(thetas[-1]) < 0)):
        return _PrefixUniverse, thetas, _Lazy
    return TaskUniverse, tuple(map(float, thetas)), lambda values, f: tuple(map(f, values))


def linear_universe(
    thetas: Sequence[float],
    alpha_h: float,
    beta_h: float,
    alpha_m: float,
    beta_m: float,
    gamma: float,
) -> TaskUniverse:
    """Linear payoff lines with machine utility rising gamma per year.

    Mirrors the continuous boundary model on a finite task list.  The
    machine utility grows without bound, so its declared limit is +inf and
    the asymptotic allocation automates every task.
    """
    if not gamma > 0:
        raise ParamError(f"gamma must be positive, got {gamma}")
    human_utility, machine_base = Line(alpha_h, beta_h), Line(alpha_m, -beta_m)
    universe, thetas, per_task = _premise(thetas, human_utility, machine_base, False)
    base = per_task(thetas, machine_base)

    def machine(t: int) -> Sequence[float]:
        return per_task(base, lambda value: value + gamma * t)

    human = per_task(thetas, human_utility)
    return universe(thetas, human, (float("inf"),) * len(thetas), machine)


def saturating_universe(
    thetas: Sequence[float],
    human_utility: Callable[[float], float],
    machine_limit: Callable[[float], float],
) -> TaskUniverse:
    """Machine utility limit(theta) * (1 - 2**-t), saturating geometrically.

    ``human_utility`` and ``machine_limit`` are called at most once per task.
    Requires a non-negative limit on every task; a negative limit would make
    the schedule decrease in t.
    """
    universe, thetas, per_task = _premise(thetas, human_utility, machine_limit, True)
    limit = per_task(thetas, machine_limit)
    for theta, value in zip(thetas, limit if universe is TaskUniverse else ()):
        if value < 0:  # searched: the last limit, the least, is >= 0
            raise ParamError(
                f"machine limit is negative at theta={theta}; "
                "the saturating schedule would decrease in t"
            )

    def machine(t: int) -> Sequence[float]:
        return per_task(limit, lambda value: value * (1.0 - 2.0**-t))

    human = per_task(thetas, human_utility)
    return universe(thetas, human, limit, machine)


def table_universe(
    thetas: Sequence[float],
    human_values: Sequence[float],
    machine_rows: Sequence[Sequence[float]],
) -> TaskUniverse:
    """Machine utility read from explicit per-year rows.

    ``machine_rows[t][i]`` is task i's machine utility at year offset t; the
    last row persists for all later years, so the schedule saturates exactly
    and the final row doubles as the declared limit.  Rows are not required
    to be non-decreasing: a decreasing table is the intended way to exercise
    the monotonicity-violation error.
    """
    thetas = tuple(float(theta) for theta in thetas)
    if len(set(thetas)) != len(thetas):
        raise ParamError("table_universe requires distinct theta values")
    if len(human_values) != len(thetas):
        raise ParamError(
            f"expected {len(thetas)} human values, got {len(human_values)}"
        )
    if not machine_rows:
        raise ParamError("machine_rows must be non-empty")
    for t, row in enumerate(machine_rows):
        if len(row) != len(thetas):
            raise ParamError(
                f"machine_rows[{t}] has {len(row)} entries, expected {len(thetas)}"
            )
    rows = [tuple(float(v) for v in row) for row in machine_rows]

    def machine(t: int) -> tuple[float, ...]:
        return rows[min(t, len(rows) - 1)]

    human = tuple(float(v) for v in human_values)
    return TaskUniverse(thetas, human, rows[-1], machine)
