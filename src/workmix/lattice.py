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
evaluates its per-task values once, when it builds the universe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import DomainError, MonotonicityError, ParamError
from .numerics import BetaShape, inv_reg_inc_beta

__all__ = [
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


@dataclass(frozen=True)
class TaskUniverse:
    """Per-task values plus the machine schedule, one row per year.

    ``thetas``, ``human`` and ``limit`` hold one value per task, task i at
    position i; every theta lies in [0, 1].  ``machine(t)`` returns every
    task's machine utility at year offset t and is expected to be
    non-decreasing in t for every task (checked during delegation runs);
    ``limit`` is its declared asymptote.
    """

    thetas: tuple[float, ...]
    human: tuple[float, ...]
    limit: tuple[float, ...]
    machine: Callable[[int], Sequence[float]]

    def __post_init__(self) -> None:
        if not len(self.thetas) == len(self.human) == len(self.limit):
            raise ParamError("thetas, human and limit need one value per task")
        for index, theta in enumerate(self.thetas):
            if not 0.0 <= theta <= 1.0:
                raise ParamError(f"task {index} has theta {theta} outside [0, 1]")

    def __len__(self) -> int:
        return len(self.thetas)


@dataclass(frozen=True)
class Allocation:
    """Set of task ids currently delegated to the machine."""

    automated: frozenset[int] = field(default_factory=frozenset)

    def fraction(self, n_tasks: int) -> float:
        """Automated share |A| / N; zero for an empty universe."""
        if n_tasks == 0:
            return 0.0
        return len(self.automated) / n_tasks


@dataclass(frozen=True)
class DelegationTrace:
    """Allocation sequence; converged_at is None when the run was truncated."""

    iterations: tuple[Allocation, ...]
    converged_at: int | None

    @property
    def final(self) -> Allocation:
        return self.iterations[-1]


def _machine_wins(universe: TaskUniverse, row: Sequence[float]) -> frozenset[int]:
    """Ids of the tasks whose machine value in ``row`` weakly beats the human one."""
    return frozenset(i for i, (m, h) in enumerate(zip(row, universe.human)) if m >= h)


def delegation_map(universe: TaskUniverse, t: int) -> Allocation:
    """Tasks whose machine utility weakly dominates at year offset t."""
    if t < 0:
        raise DomainError(f"t must be non-negative, got {t}")
    return Allocation(_machine_wins(universe, universe.machine(t)))


def fixed_point_oracle(universe: TaskUniverse) -> Allocation:
    """Asymptotic dominance set, straight from the declared utility limits."""
    return Allocation(_machine_wins(universe, universe.limit))


def run_delegation(
    universe: TaskUniverse, max_years: int, stability_window: int = 3
) -> DelegationTrace:
    """Iterate the delegation map from an empty allocation.

    Stops once the allocation has stayed unchanged for ``stability_window``
    consecutive iterations, or as soon as it equals the asymptotic fixed
    point; ``converged_at`` is the index where the settled value first
    appeared.  If ``max_years`` passes without either signal the trace is
    returned with ``converged_at`` None.  Any shrinkage of the allocation
    between consecutive years raises :class:`MonotonicityError`, since it
    means machine utility decreased in t.
    """
    if max_years < 1:
        raise DomainError(f"max_years must be >= 1, got {max_years}")
    if stability_window < 1:
        raise DomainError(
            f"stability_window must be >= 1, got {stability_window}"
        )
    target = fixed_point_oracle(universe)
    iterations = [Allocation()]
    converged_at: int | None = None
    run_start = 0
    for t in range(max_years):
        current = delegation_map(universe, t)
        previous = iterations[-1]
        if not previous.automated <= current.automated:
            lost = sorted(previous.automated - current.automated)
            raise MonotonicityError(
                f"allocation shrank at t={t}: lost task ids {lost} "
                "(machine utility is not non-decreasing in t)"
            )
        iterations.append(current)
        index = len(iterations) - 1
        if current.automated != previous.automated:
            run_start = index
        if current.automated == target.automated:
            converged_at = run_start
            break
        if index - run_start >= stability_window:
            converged_at = run_start
            break
    return DelegationTrace(tuple(iterations), converged_at)


def beta_quantile_thetas(n: int, shape: BetaShape) -> tuple[float, ...]:
    """Deterministic intricacy values: Beta(p, q) quantiles at (i + 0.5) / n."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return tuple(inv_reg_inc_beta((i + 0.5) / n, shape) for i in range(n))


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
    thetas = tuple(float(theta) for theta in thetas)
    base = tuple(alpha_m - beta_m * theta for theta in thetas)

    def machine(t: int) -> tuple[float, ...]:
        return tuple(value + gamma * t for value in base)

    human = tuple(alpha_h + beta_h * theta for theta in thetas)
    return TaskUniverse(thetas, human, (float("inf"),) * len(thetas), machine)


def saturating_universe(
    thetas: Sequence[float],
    human_utility: Callable[[float], float],
    machine_limit: Callable[[float], float],
) -> TaskUniverse:
    """Machine utility limit(theta) * (1 - 2**-t), saturating geometrically.

    ``human_utility`` and ``machine_limit`` are called once per task.
    Requires a non-negative limit on every task; a negative limit would make
    the schedule decrease in t.
    """
    thetas = tuple(float(theta) for theta in thetas)
    limit = tuple(machine_limit(theta) for theta in thetas)
    for theta, value in zip(thetas, limit):
        if value < 0:
            raise ParamError(
                f"machine limit is negative at theta={theta}; "
                "the saturating schedule would decrease in t"
            )

    def machine(t: int) -> tuple[float, ...]:
        return tuple(value * (1.0 - 2.0**-t) for value in limit)

    human = tuple(human_utility(theta) for theta in thetas)
    return TaskUniverse(thetas, human, limit, machine)


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
