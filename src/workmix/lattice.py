"""Finite-universe delegation iteration over a growing machine capability.

A :class:`TaskUniverse` holds a finite, ordered list of tasks, each with an
intricacy value theta, together with three utility callables: the static
human utility, the time-dependent machine utility, and the machine utility's
declared asymptote.  The delegation map sends year offset t to the set of
tasks whose machine utility weakly dominates the human utility (ties go to
the machine).  As long as machine utility never decreases in t, the induced
allocation sequence is a monotone inclusion chain that settles on the
asymptotic dominance set, which ``fixed_point_oracle`` computes directly.

Three schedule families cover the interesting regimes: linear growth (never
saturates, so eventually everything is automated), geometric saturation
toward a finite limit (a nontrivial split can persist), and explicit
year-by-year tables (exact saturation after the last row).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import DomainError, MonotonicityError, ParamError
from .numerics import BetaShape, inv_reg_inc_beta

__all__ = [
    "Task",
    "TaskUniverse",
    "Allocation",
    "DelegationTrace",
    "delegation_map",
    "run_delegation",
    "fixed_point_oracle",
    "check_capability_growth",
    "linear_universe",
    "saturating_universe",
    "table_universe",
    "beta_quantile_thetas",
]


@dataclass(frozen=True)
class Task:
    id: int
    theta: float


@dataclass(frozen=True)
class TaskUniverse:
    """Finite task list plus utility schedules.

    Task ids must be unique and contiguous from 0; every theta lies in
    [0, 1].  ``machine_utility`` takes (t, theta) and is expected to be
    non-decreasing in t for every task (checked during delegation runs and
    by :func:`check_capability_growth`); ``machine_utility_limit`` declares
    its asymptote as a function of theta.
    """

    tasks: tuple[Task, ...]
    human_utility: Callable[[float], float]
    machine_utility: Callable[[int, float], float]
    machine_utility_limit: Callable[[float], float]

    def __post_init__(self) -> None:
        for index, task in enumerate(self.tasks):
            if task.id != index:
                raise ParamError(
                    f"task ids must be contiguous from 0, got id {task.id} "
                    f"at position {index}"
                )
            if not 0.0 <= task.theta <= 1.0:
                raise ParamError(
                    f"task {task.id} has theta {task.theta} outside [0, 1]"
                )

    def __len__(self) -> int:
        return len(self.tasks)


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
    def truncated(self) -> bool:
        return self.converged_at is None

    @property
    def final(self) -> Allocation:
        return self.iterations[-1]

    def fractions(self, n_tasks: int) -> list[float]:
        return [a.fraction(n_tasks) for a in self.iterations]


def delegation_map(universe: TaskUniverse, t: int) -> Allocation:
    """Tasks whose machine utility weakly dominates at year offset t."""
    if t < 0:
        raise DomainError(f"t must be non-negative, got {t}")
    automated = frozenset(
        task.id
        for task in universe.tasks
        if universe.machine_utility(t, task.theta) >= universe.human_utility(task.theta)
    )
    return Allocation(automated)


def fixed_point_oracle(universe: TaskUniverse) -> Allocation:
    """Asymptotic dominance set, straight from the declared utility limits."""
    automated = frozenset(
        task.id
        for task in universe.tasks
        if universe.machine_utility_limit(task.theta)
        >= universe.human_utility(task.theta)
    )
    return Allocation(automated)


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


def check_capability_growth(
    universe: TaskUniverse, max_t: int, tol: float = 1e-12
) -> bool:
    """Sample machine utility over t = 0..max_t and confirm it never drops.

    Returns False as soon as some task's utility decreases by more than
    ``tol`` between consecutive years.
    """
    if max_t < 1:
        raise DomainError(f"max_t must be >= 1, got {max_t}")
    for task in universe.tasks:
        previous = universe.machine_utility(0, task.theta)
        for t in range(1, max_t + 1):
            current = universe.machine_utility(t, task.theta)
            if current < previous - tol:
                return False
            previous = current
    return True


def _make_tasks(thetas: Sequence[float]) -> tuple[Task, ...]:
    return tuple(Task(i, float(theta)) for i, theta in enumerate(thetas))


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

    def human(theta: float) -> float:
        return alpha_h + beta_h * theta

    def machine(t: int, theta: float) -> float:
        return alpha_m - beta_m * theta + gamma * t

    def limit(theta: float) -> float:
        return float("inf")

    return TaskUniverse(_make_tasks(thetas), human, machine, limit)


def saturating_universe(
    thetas: Sequence[float],
    human_utility: Callable[[float], float],
    machine_limit: Callable[[float], float],
) -> TaskUniverse:
    """Machine utility limit(theta) * (1 - 2**-t), saturating geometrically.

    Requires a non-negative limit on every task; a negative limit would make
    the schedule decrease in t.
    """
    tasks = _make_tasks(thetas)
    for task in tasks:
        if machine_limit(task.theta) < 0:
            raise ParamError(
                f"machine limit is negative at theta={task.theta}; "
                "the saturating schedule would decrease in t"
            )

    def machine(t: int, theta: float) -> float:
        return machine_limit(theta) * (1.0 - 2.0**-t)

    return TaskUniverse(tasks, human_utility, machine, machine_limit)


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
    tasks = _make_tasks(thetas)
    if len(set(task.theta for task in tasks)) != len(tasks):
        raise ParamError("table_universe requires distinct theta values")
    if len(human_values) != len(tasks):
        raise ParamError(
            f"expected {len(tasks)} human values, got {len(human_values)}"
        )
    if not machine_rows:
        raise ParamError("machine_rows must be non-empty")
    for t, row in enumerate(machine_rows):
        if len(row) != len(tasks):
            raise ParamError(
                f"machine_rows[{t}] has {len(row)} entries, expected {len(tasks)}"
            )
    by_theta = {task.theta: task.id for task in tasks}
    rows = [tuple(float(v) for v in row) for row in machine_rows]
    human_by_theta = {
        task.theta: float(human_values[task.id]) for task in tasks
    }

    def human(theta: float) -> float:
        return human_by_theta[theta]

    def machine(t: int, theta: float) -> float:
        row = rows[min(t, len(rows) - 1)]
        return row[by_theta[theta]]

    def limit(theta: float) -> float:
        return rows[-1][by_theta[theta]]

    return TaskUniverse(tasks, human, machine, limit)
