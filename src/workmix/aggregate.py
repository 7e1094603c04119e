"""Aggregate automated-share model: one-year Euler map with a known closed form.

The state is the fraction x of assignments currently automated.  Each year
adoption converts a fraction ``alpha`` of the remaining human work while new
human assignments appear at rate ``beta`` of the automated share:

    x_next = x + alpha * (1 - x) - beta * x

The map is affine, contracts toward the equilibrium alpha / (alpha + beta),
and admits the exact solution used by ``closed_form``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._calendar import START_YEAR
from .errors import DomainError, ParamError

__all__ = [
    "AggregateParams",
    "SharePoint",
    "step",
    "equilibrium",
    "closed_form",
    "simulate",
    "convergence_time",
    "DEFAULT_AGGREGATE",
]


class AggregateParams(namedtuple("AggregateParams", "alpha beta x0 start_year")):
    """Rates and initial condition for the aggregate share recurrence.

    Both rates are restricted to [0, 1] with a positive sum, which keeps the
    Euler step an endomorphism of [0, 1] and the contraction factor
    1 - alpha - beta strictly inside (-1, 1).
    """

    __slots__ = ()

    def __new__(cls, alpha, beta, x0, start_year=START_YEAR):
        if not 0.0 <= alpha <= 1.0:
            raise ParamError(f"alpha must lie in [0, 1], got {alpha}")
        if not 0.0 <= beta <= 1.0:
            raise ParamError(f"beta must lie in [0, 1], got {beta}")
        if not alpha + beta > 0.0:
            raise ParamError("alpha + beta must be positive")
        if not alpha + beta < 2.0:
            raise ParamError("alpha + beta must be below 2 for a stable iteration")
        if not 0.0 <= x0 <= 1.0:
            raise ParamError(f"x0 must lie in [0, 1], got {x0}")
        return tuple.__new__(cls, (alpha, beta, x0, start_year))


class SharePoint(namedtuple("SharePoint", "year share")):
    """One (calendar year, automated share) sample."""

    __slots__ = ()

    def __new__(cls, year, share):
        if not 0.0 <= share <= 1.0:
            raise ParamError(f"share must lie in [0, 1], got {share}")
        return tuple.__new__(cls, (year, share))


def step(x: float, params: AggregateParams) -> float:
    """Advance the share by one year."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"share must lie in [0, 1], got {x}")
    return x + params.alpha * (1.0 - x) - params.beta * x


def equilibrium(params: AggregateParams) -> float:
    """Steady state alpha / (alpha + beta); a fixed point of ``step``.

    The parameter invariants already rule out alpha + beta == 0, so this
    cannot divide by zero for a validated bundle.
    """
    return params.alpha / (params.alpha + params.beta)


def closed_form(t: int, params: AggregateParams) -> float:
    """Exact share after t years: x* + (x0 - x*) (1 - alpha - beta)^t."""
    if t < 0:
        raise DomainError(f"t must be non-negative, got {t}")
    x_star = equilibrium(params)
    return x_star + (params.x0 - x_star) * (1.0 - params.alpha - params.beta) ** t


def simulate(params: AggregateParams, horizon_years: int) -> list[SharePoint]:
    """Iterate the map for horizon_years, returning horizon_years + 1 points.

    Point 0 is (start_year, x0); the trajectory agrees with ``closed_form``
    to within accumulated rounding (well under 1e-12).
    """
    if horizon_years < 1:
        raise DomainError(f"horizon_years must be >= 1, got {horizon_years}")
    x = params.x0
    points = [SharePoint(params.start_year, x)]
    for k in range(1, horizon_years + 1):
        x = step(x, params)
        points.append(SharePoint(params.start_year + k, x))
    return points


def convergence_time(params: AggregateParams, tol: float) -> int:
    """Smallest t >= 0 with |closed_form(t) - equilibrium| < tol.

    Solved analytically from the geometric decay of the gap, then nudged by
    direct evaluation to absorb floating-point edge effects.  Returns 0 when
    x0 already sits at the equilibrium.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    gap = abs(params.x0 - equilibrium(params))
    if gap < tol:
        return 0
    factor = abs(1.0 - params.alpha - params.beta)
    if factor == 0.0:
        return 1  # the gap closes exactly in one step
    t = max(0, math.ceil(math.log(tol / gap) / math.log(factor)) - 2)
    while not gap * factor**t < tol:
        t += 1
    return t


#: Default aggregate scenario: 10% adoption rate, 5% task creation, starting
#: from a 10% automated share in 2025.
DEFAULT_AGGREGATE = AggregateParams(alpha=0.10, beta=0.05, x0=0.10)
