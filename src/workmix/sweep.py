"""Parameter grid over intricacy shape (p, q) and improvement rate gamma.

Every cell recalibrates the machine intercept so the year-zero automated
share hits the same initial target under its own Beta(p, q) intricacy law,
then lets the swept gamma drive the boundary for the full horizon.  Reported
per cell: the calibrated intercept, the final share, and the first calendar
year the share reaches one half.

The half-share year is the one a scan of every year from t = 0 finds, but
``run_grid`` evaluates the Beta CDF only near the shape's median.  Once per
shape it locates the median with the safeguarded Halley search of
``numerics.locate_quantile``, sets the bracket [lo, hi] to 4 delta / density
either side of it (delta = 1e-9), and keeps the bracket only if it lies in
[0, 1] and the computed CDF is <= 1/2 - delta at lo and >= 1/2 + delta at
hi.  The location is an estimate; those two checks alone make the bracket
valid.  The premise is that the computed CDF is within E = 1e-12 of the
exact one, as the tests check against mpmath over ``BetaShape``'s range.
Since delta > 2E and the exact CDF is non-decreasing, every boundary below
lo has a computed share below 1/2 and every boundary at or above hi one
above 1/2.  So the years whose boundary is below lo are skipped without a
CDF evaluation (the first year at or above lo is estimated in closed form,
then corrected by stepping the boundary, which never decreases in t), a
year whose boundary is at or above hi is the answer without one, and only
the years in between pay a CDF evaluation.  Where the bracket sits decides
only how many years pay one.  Without a bracket, lo = -inf and hi = +inf,
which is the scan itself; ``cross50`` runs it unless given a bracket.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._calendar import HORIZON_YEARS, START_YEAR
from .boundary import (
    DEFAULT_BOUNDARY,
    ContinuousParams,
    _share_below,
    automated_share,
    automation_boundary,
)
from .errors import ParamError
from .numerics import BetaShape, inv_reg_inc_beta, locate_quantile, reg_inc_beta

__all__ = [
    "GridSpec",
    "GridCell",
    "run_grid",
    "cross50",
    "DEFAULT_GRID",
]

# Half-width of the band around one half that the median bracket keeps clear
# of; the forward CDF is within 1e-12 < delta / 2.
_DELTA = 1e-9
_NO_BRACKET = (-math.inf, math.inf)


def _require_ascending(name: str, values: tuple) -> None:
    if not values:
        raise ParamError(f"{name} must be non-empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ParamError(f"{name} must be strictly ascending, got {values!r}")
    if any(not v > 0 for v in values):
        raise ParamError(f"{name} must be positive, got {values!r}")


class GridSpec(namedtuple("GridSpec", "p_values q_values gamma_values horizon_years "
                                     "initial_share_target alpha_h beta_h beta_m start_year")):
    """Sweep axes plus the quantities held fixed across cells."""

    __slots__ = ()

    def __new__(cls, p_values, q_values, gamma_values, horizon_years, initial_share_target,
                alpha_h=DEFAULT_BOUNDARY.alpha_h, beta_h=DEFAULT_BOUNDARY.beta_h,
                beta_m=DEFAULT_BOUNDARY.beta_m, start_year=START_YEAR):
        _require_ascending("p_values", p_values)
        _require_ascending("q_values", q_values)
        _require_ascending("gamma_values", gamma_values)
        if horizon_years < 1:
            raise ParamError(f"horizon_years must be >= 1, got {horizon_years}")
        if not 0.0 < initial_share_target < 1.0:
            raise ParamError(
                f"initial_share_target must lie in (0, 1), got {initial_share_target}"
            )
        if not beta_h > 0:
            raise ParamError(f"beta_h must be positive, got {beta_h}")
        if not beta_m > 0:
            raise ParamError(f"beta_m must be positive, got {beta_m}")
        if not math.isfinite(beta_h + beta_m):
            raise ParamError(f"beta_h + beta_m must be finite, got {beta_h + beta_m}")
        return tuple.__new__(
            cls,
            (p_values, q_values, gamma_values, horizon_years, initial_share_target,
             alpha_h, beta_h, beta_m, start_year),
        )


GridCell = namedtuple("GridCell", "p q gamma alpha_m_used final_share cross50_year")
GridCell.__doc__ = "Outcome of one (p, q, gamma) cell; cross50_year is None if it never crosses."


def _median_bracket(shape: BetaShape) -> tuple[float, float]:
    """(lo, hi) such that the computed share is < 1/2 below lo and > 1/2 from hi.

    ``_NO_BRACKET`` when the median search finds no density, an end leaves
    [0, 1], or the computed CDF does not clear the ``_DELTA`` band at an end.
    """
    median, density = locate_quantile(0.5, shape)
    if density > 0.0:
        width = 4.0 * _DELTA / density
        lo, hi = median - width, median + width
        if (
            0.0 <= lo
            and hi <= 1.0
            and reg_inc_beta(lo, shape) <= 0.5 - _DELTA
            and reg_inc_beta(hi, shape) >= 0.5 + _DELTA
        ):
            return lo, hi
    return _NO_BRACKET


def cross50(
    params: ContinuousParams,
    horizon: int,
    *,
    bracket: tuple[float, float] = _NO_BRACKET,
) -> int | None:
    """First calendar year with automated share >= 0.5, scanning whole years.

    Returns None when the share stays below one half through the horizon.
    ``bracket`` is the shape's median bracket, which ``run_grid`` makes once
    per shape: it spares CDF evaluations and leaves the year unchanged.  By
    default the CDF is evaluated at every year.
    """
    if horizon < 1:
        raise ParamError(f"horizon must be >= 1, got {horizon}")
    lo, hi = bracket
    # The first year whose boundary reaches lo: the closed form, clamped to
    # the horizon before ceil (it may be infinite), then stepped into place.
    span = params.beta_m + params.beta_h
    estimate = (lo * span - (params.alpha_m - params.alpha_h)) / params.gamma
    start = math.ceil(min(max(estimate, 0.0), horizon + 1.0))
    while start > 0 and automation_boundary(start - 1, params) >= lo:
        start -= 1
    while start <= horizon and automation_boundary(start, params) < lo:
        start += 1
    for t in range(start, horizon + 1):
        theta = automation_boundary(t, params)
        if theta >= hi or _share_below(theta, params.shape) >= 0.5:
            return params.start_year + t
    return None


def run_grid(grid: GridSpec) -> list[GridCell]:
    """Evaluate every cell, emitted row-major: p outer, q middle, gamma inner."""
    cells = []
    for p in grid.p_values:
        for q in grid.q_values:
            shape = BetaShape(float(p), float(q))
            theta_start = inv_reg_inc_beta(grid.initial_share_target, shape)
            alpha_m = grid.alpha_h + (grid.beta_m + grid.beta_h) * theta_start
            if not math.isfinite(alpha_m - grid.alpha_h):
                raise ParamError(
                    "the recalibrated intercept alpha_h + (beta_h + beta_m) * theta_0 "
                    f"overflows a double at p={p}, q={q}, where theta_0 is the Beta(p, q) "
                    "quantile at initial_share_target"
                )
            bracket = _median_bracket(shape)
            for gamma in grid.gamma_values:
                params = ContinuousParams(
                    alpha_h=grid.alpha_h,
                    beta_h=grid.beta_h,
                    alpha_m=alpha_m,
                    beta_m=grid.beta_m,
                    gamma=float(gamma),
                    shape=shape,
                    start_year=grid.start_year,
                )
                cells.append(
                    GridCell(
                        p=p,
                        q=q,
                        gamma=gamma,
                        alpha_m_used=alpha_m,
                        final_share=automated_share(grid.horizon_years, params),
                        cross50_year=cross50(params, grid.horizon_years, bracket=bracket),
                    )
                )
    return cells


#: Default sweep: five intricacy shapes crossed with five improvement rates,
#: every cell pinned to a 10% automated share in the start year.
DEFAULT_GRID = GridSpec(
    p_values=(1.5, 2.0, 2.5, 3.0, 3.5),
    q_values=(5,),
    gamma_values=(0.03, 0.04, 0.05, 0.06, 0.07),
    horizon_years=HORIZON_YEARS,
    initial_share_target=0.10,
)
