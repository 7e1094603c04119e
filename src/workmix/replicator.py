"""Two-category replicator benchmark with linearly improving machine payoffs.

Routine and complex assignments evolve independently under the discrete
replicator rule

    x_next = x + r * x * (1 - x) * (machine_payoff(t) - human_payoff)

where the machine payoff for a category grows linearly in t, the number of
years elapsed since the start year.  The headline series is the weighted
total across the two categories.
"""

from __future__ import annotations

from collections import namedtuple

from ._calendar import START_YEAR
from .errors import DomainError, ParamError, RangeError

__all__ = [
    "CategoryParams",
    "ReplicatorParams",
    "ReplicatorPoint",
    "replicator_step",
    "simulate_replicator",
    "DEFAULT_REPLICATOR",
]


class CategoryParams(
    namedtuple("CategoryParams", "x0 machine_intercept machine_growth human_payoff")
):
    """One task category: initial share plus its payoff schedule.

    The machine side earns machine_intercept + machine_growth * t at year
    offset t; the human side earns the constant human_payoff.
    """

    __slots__ = ()

    def __new__(cls, x0, machine_intercept, machine_growth, human_payoff):
        if not 0.0 <= x0 <= 1.0:
            raise ParamError(f"x0 must lie in [0, 1], got {x0}")
        return tuple.__new__(cls, (x0, machine_intercept, machine_growth, human_payoff))

    def payoff_gap(self, t: int) -> float:
        """Machine payoff advantage at year offset t."""
        return self.machine_intercept + self.machine_growth * t - self.human_payoff


class ReplicatorParams(
    namedtuple("ReplicatorParams", "routine complex sensitivity w_routine start_year")
):
    __slots__ = ()

    def __new__(cls, routine, complex, sensitivity, w_routine, start_year=START_YEAR):
        if not sensitivity > 0:
            raise ParamError(f"sensitivity must be positive, got {sensitivity}")
        if not 0.0 <= w_routine <= 1.0:
            raise ParamError(f"w_routine must lie in [0, 1], got {w_routine}")
        return tuple.__new__(cls, (routine, complex, sensitivity, w_routine, start_year))

    @property
    def w_complex(self) -> float:
        return 1.0 - self.w_routine


ReplicatorPoint = namedtuple("ReplicatorPoint", "year x_routine x_complex x_total")


def replicator_step(x: float, t: int, cat: CategoryParams, r: float) -> float:
    """One replicator update for a single category at year offset t.

    With |r * gap| <= 1 the exact step lies in [x**2, 2x - x**2], inside
    [0, 1]; its computed value can still fall out of it by an ulp once x is
    tiny (below about 1e-15, or subnormal), so there it is settled at the
    end the gap pushes towards.  A step with |r * gap| > 1 that leaves
    [0, 1] signals parameter misuse (an oversized sensitivity or payoff gap)
    and raises :class:`RangeError` rather than clamps.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"share must lie in [0, 1], got {x}")
    if t < 0:
        raise DomainError(f"t must be non-negative, got {t}")
    gap = cat.payoff_gap(t)
    x_next = x + r * x * (1.0 - x) * gap
    if not 0.0 <= x_next <= 1.0:
        if abs(r * gap) > 1.0:
            raise RangeError(f"replicator step left [0, 1]: x={x}, t={t} gave {x_next}")
        return 0.0 if gap < 0 else 1.0
    return x_next


def simulate_replicator(
    params: ReplicatorParams, horizon_years: int
) -> list[ReplicatorPoint]:
    """Run both categories for horizon_years, including the initial state.

    Payoff time is calendar time: the step producing the point for year
    y + 1 uses the payoff gap at t = y - start_year, so the very first step
    is taken with t = 0.  A step raises :class:`RangeError` only where
    |sensitivity * payoff_gap(t)| > 1 (see :func:`replicator_step`).
    """
    if horizon_years < 1:
        raise DomainError(f"horizon_years must be >= 1, got {horizon_years}")
    x_r = params.routine.x0
    x_c = params.complex.x0

    def total(a: float, b: float) -> float:
        return params.w_routine * a + params.w_complex * b

    points = [ReplicatorPoint(params.start_year, x_r, x_c, total(x_r, x_c))]
    for t in range(horizon_years):
        x_r = replicator_step(x_r, t, params.routine, params.sensitivity)
        x_c = replicator_step(x_c, t, params.complex, params.sensitivity)
        points.append(
            ReplicatorPoint(params.start_year + t + 1, x_r, x_c, total(x_r, x_c))
        )
    return points


#: Default two-category scenario: routine work starts at 30% automated with a
#: machine payoff already near parity; complex work starts at 5% with a large
#: persistent human advantage.
DEFAULT_REPLICATOR = ReplicatorParams(
    routine=CategoryParams(
        x0=0.30, machine_intercept=1.0, machine_growth=0.05, human_payoff=0.8
    ),
    complex=CategoryParams(
        x0=0.05, machine_intercept=0.5, machine_growth=0.02, human_payoff=1.2
    ),
    sensitivity=0.2,
    w_routine=0.6,
)
