"""Continuous-task allocation model with a moving automation boundary.

Tasks are indexed by an intricacy level theta in [0, 1].  The human side
earns alpha_h + beta_h * theta; the machine side earns
alpha_m - beta_m * theta + gamma * t, improving uniformly over time.  The
two lines cross at the automation boundary

    theta_t = (alpha_m - alpha_h + gamma * t) / (beta_m + beta_h)

and every task at or below the boundary is delegated to the machine (ties go
to the machine).  With intricacy distributed Beta(p, q) across the task
population, the automated share is the Beta CDF evaluated at the boundary,
clamped into [0, 1].

``calibrate`` inverts this: given target shares at t = 0 and at the horizon,
it solves for the machine intercept and the improvement rate.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._calendar import START_YEAR
from .errors import CalibrationError, DomainError, ParamError
from .numerics import BetaShape, inv_reg_inc_beta, reg_inc_beta

__all__ = [
    "ContinuousParams",
    "BoundaryPoint",
    "payoff_human",
    "payoff_machine",
    "automation_boundary",
    "automated_share",
    "simulate_boundary",
    "advantage_grid",
    "calibrate",
    "DEFAULT_BOUNDARY",
]


class ContinuousParams(
    namedtuple("ContinuousParams", "alpha_h beta_h alpha_m beta_m gamma shape start_year")
):
    """Payoff-line coefficients, improvement rate, and intricacy distribution."""

    __slots__ = ()

    def __new__(cls, alpha_h, beta_h, alpha_m, beta_m, gamma, shape, start_year=START_YEAR):
        if not beta_h > 0:
            raise ParamError(f"beta_h must be positive, got {beta_h}")
        if not beta_m > 0:
            raise ParamError(f"beta_m must be positive, got {beta_m}")
        if not gamma > 0:
            raise ParamError(f"gamma must be positive, got {gamma}")
        # With both finite, theta_t's numerator is a finite value plus gamma * t >= 0
        # and its denominator is finite and positive, so theta_t is never NaN.
        if not math.isfinite(alpha_m - alpha_h):
            raise ParamError(f"alpha_m - alpha_h must be finite, got {alpha_m - alpha_h}")
        if not math.isfinite(beta_h + beta_m):
            raise ParamError(f"beta_h + beta_m must be finite, got {beta_h + beta_m}")
        return tuple.__new__(cls, (alpha_h, beta_h, alpha_m, beta_m, gamma, shape, start_year))


BoundaryPoint = namedtuple("BoundaryPoint", "year theta share")
BoundaryPoint.__doc__ = "Yearly sample: raw boundary (may leave [0, 1]) and the clamped share."


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= 1.0:
        raise DomainError(f"theta must lie in [0, 1], got {theta}")


def _check_t(t: int) -> None:
    if t < 0:
        raise DomainError(f"t must be non-negative, got {t}")


def payoff_human(theta: float, params: ContinuousParams) -> float:
    """Human payoff line alpha_h + beta_h * theta."""
    _check_theta(theta)
    return params.alpha_h + params.beta_h * theta


def payoff_machine(theta: float, t: int, params: ContinuousParams) -> float:
    """Machine payoff line alpha_m - beta_m * theta + gamma * t."""
    _check_theta(theta)
    _check_t(t)
    return params.alpha_m - params.beta_m * theta + params.gamma * t


def automation_boundary(t: int, params: ContinuousParams) -> float:
    """Intricacy level where the payoff lines cross at year offset t.

    Returned raw: the value exceeds [0, 1] once the machine line dominates
    (or trails) everywhere.  Strictly increasing in t.
    """
    _check_t(t)
    return (params.alpha_m - params.alpha_h + params.gamma * t) / (
        params.beta_m + params.beta_h
    )


def _share_below(theta: float, shape: BetaShape) -> float:
    """Beta(p, q) mass at or below a raw boundary, clamped into [0, 1] first."""
    return reg_inc_beta(min(1.0, max(0.0, theta)), shape)


def automated_share(t: int, params: ContinuousParams) -> float:
    """Fraction of tasks at or below the boundary under the Beta intricacy law."""
    return _share_below(automation_boundary(t, params), params.shape)


def simulate_boundary(
    params: ContinuousParams, horizon_years: int
) -> list[BoundaryPoint]:
    """Boundary and share for t = 0 .. horizon_years inclusive.

    Raises DomainError at the first year whose boundary overflows a double,
    which the output could only print as inf.
    """
    if horizon_years < 0:
        raise DomainError(f"horizon_years must be non-negative, got {horizon_years}")
    points = []
    for t in range(horizon_years + 1):
        theta = automation_boundary(t, params)
        if not math.isfinite(theta):
            raise DomainError(
                "theta_t = (alpha_m - alpha_h + gamma * t) / (beta_h + beta_m) must be "
                f"finite, got {theta} at t={t}"
            )
        points.append(
            BoundaryPoint(
                year=params.start_year + t,
                theta=theta,
                share=_share_below(theta, params.shape),
            )
        )
    return points


def advantage_grid(
    params: ContinuousParams, years: list[int], thetas: list[float]
) -> list[list[float]]:
    """Machine-minus-human payoff on a (year, theta) grid.

    Row i covers years[i]; column j covers thetas[j].  Entries are
    payoff_machine(theta, year - start_year) - payoff_human(theta), so the
    zero contour is exactly the automation boundary.
    """
    if not years:
        raise DomainError("years must be non-empty")
    if not thetas:
        raise DomainError("thetas must be non-empty")
    if any(b <= a for a, b in zip(years, years[1:])):
        raise DomainError("years must be sorted strictly ascending")
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise DomainError("thetas must be sorted strictly ascending")
    rows = []
    for year in years:
        t = year - params.start_year
        row = [
            payoff_machine(theta, t, params) - payoff_human(theta, params)
            for theta in thetas
        ]
        rows.append(row)
    return rows


def calibrate(
    share_at_start: float,
    share_at_end: float,
    horizon_years: int,
    alpha_h: float,
    beta_h: float,
    beta_m: float,
    shape: BetaShape,
    start_year: int = START_YEAR,
) -> ContinuousParams:
    """Solve for alpha_m and gamma hitting two target shares.

    Pins the t = 0 share to share_at_start and the t = horizon share to
    share_at_end by inverting the Beta CDF at both targets.  Raises if the
    targets imply a non-increasing machine payoff (gamma <= 0).
    """
    if not 0.0 < share_at_start < 1.0:
        raise ParamError(
            f"share_at_start must lie in (0, 1), got {share_at_start}"
        )
    if not 0.0 < share_at_end < 1.0:
        raise ParamError(f"share_at_end must lie in (0, 1), got {share_at_end}")
    if not share_at_start < share_at_end:
        raise ParamError(
            "share_at_start must be below share_at_end, got "
            f"{share_at_start} >= {share_at_end}"
        )
    if horizon_years < 1:
        raise ParamError(f"horizon_years must be >= 1, got {horizon_years}")
    slope_sum = beta_m + beta_h
    theta_start = inv_reg_inc_beta(share_at_start, shape)
    theta_end = inv_reg_inc_beta(share_at_end, shape)
    alpha_m = alpha_h + slope_sum * theta_start
    gamma = (slope_sum * theta_end - (alpha_m - alpha_h)) / horizon_years
    if not gamma > 0:
        raise CalibrationError(
            f"targets imply a non-positive improvement rate gamma={gamma}"
        )
    return ContinuousParams(
        alpha_h=alpha_h,
        beta_h=beta_h,
        alpha_m=alpha_m,
        beta_m=beta_m,
        gamma=gamma,
        shape=shape,
        start_year=start_year,
    )


#: Default continuous scenario: calibrated so automation starts at 10% in 2025
#: and reaches roughly 60% by 2045 under a Beta(2, 5) intricacy mix.
DEFAULT_BOUNDARY = ContinuousParams(
    alpha_h=1.0,
    beta_h=1.5,
    alpha_m=1.3704,
    beta_m=2.5,
    gamma=0.04336,
    shape=BetaShape(2.0, 5.0),
)
