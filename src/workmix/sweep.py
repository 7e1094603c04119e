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

A cell costs its Beta CDF evaluations and a few float operations.
``run_grid`` checks the grid once, not each cell, and builds no
``ContinuousParams``: per shape it keeps offset = alpha_m - alpha_h and span
= beta_m + beta_h, so theta_t = (offset + gamma * t) / span is
``automation_boundary`` bit for bit.  ``cross50`` and ``run_grid`` share one
year search, ``_first_half_year``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._calendar import HORIZON_YEARS, START_YEAR
from .boundary import DEFAULT_BOUNDARY, ContinuousParams, _share_below
# Not called here: bound so that ``workmix.sweep.automated_share`` still names the
# boundary's function, as the benchmark's tracer expects.
from .boundary import automated_share
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
        return _checked(tuple.__new__(
            cls,
            (p_values, q_values, gamma_values, horizon_years, initial_share_target,
             alpha_h, beta_h, beta_m, start_year),
        ))


def _checked(grid: GridSpec) -> GridSpec:
    """The grid itself once its invariants hold; ParamError otherwise.

    ``GridSpec()`` checks through here, and so does ``run_grid``, because
    ``_replace`` and ``_make`` build a grid without ``__new__``.
    """
    _require_ascending("p_values", grid.p_values)
    _require_ascending("q_values", grid.q_values)
    _require_ascending("gamma_values", grid.gamma_values)
    if grid.horizon_years < 1:
        raise ParamError(f"horizon_years must be >= 1, got {grid.horizon_years}")
    if not 0.0 < grid.initial_share_target < 1.0:
        raise ParamError(
            f"initial_share_target must lie in (0, 1), got {grid.initial_share_target}"
        )
    if not grid.beta_h > 0:
        raise ParamError(f"beta_h must be positive, got {grid.beta_h}")
    if not grid.beta_m > 0:
        raise ParamError(f"beta_m must be positive, got {grid.beta_m}")
    if not math.isfinite(grid.beta_h + grid.beta_m):
        raise ParamError(f"beta_h + beta_m must be finite, got {grid.beta_h + grid.beta_m}")
    return grid


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


def _first_half_year(
    offset: float, span: float, gamma: float, shape: BetaShape, horizon: int,
    lo: float, hi: float,
) -> int | None:
    """Offset t of the first year whose share reaches one half, or None.

    The boundary is theta_t = (offset + gamma * t) / span, bit for bit
    ``automation_boundary`` with offset = alpha_m - alpha_h and span =
    beta_m + beta_h; [lo, hi] is a median bracket or ``_NO_BRACKET``.
    """
    # The first year whose boundary reaches lo: the closed form, clamped to
    # the horizon before ceil (it may be infinite), then stepped into place.
    estimate = (lo * span - offset) / gamma
    start = math.ceil(min(max(estimate, 0.0), horizon + 1.0))
    while start > 0 and (offset + gamma * (start - 1)) / span >= lo:
        start -= 1
    while start <= horizon and (offset + gamma * start) / span < lo:
        start += 1
    for t in range(start, horizon + 1):
        theta = (offset + gamma * t) / span
        if theta >= hi or _share_below(theta, shape) >= 0.5:
            return t
    return None


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
    t = _first_half_year(
        params.alpha_m - params.alpha_h, params.beta_m + params.beta_h, params.gamma,
        params.shape, horizon, *bracket,
    )
    return None if t is None else params.start_year + t


def run_grid(grid: GridSpec) -> list[GridCell]:
    """Evaluate every cell, emitted row-major: p outer, q middle, gamma inner.

    The grid is checked once, as ``GridSpec()`` checks it; each cell then
    costs its final-share CDF, its half-share year and a few float operations.
    """
    _checked(grid)
    horizon, start_year = grid.horizon_years, grid.start_year
    span = grid.beta_m + grid.beta_h
    cells = []
    for p in grid.p_values:
        for q in grid.q_values:
            shape = BetaShape(float(p), float(q))
            theta_start = inv_reg_inc_beta(grid.initial_share_target, shape)
            alpha_m = grid.alpha_h + span * theta_start
            offset = alpha_m - grid.alpha_h
            if not math.isfinite(offset):
                raise ParamError(
                    "the recalibrated intercept alpha_h + (beta_h + beta_m) * theta_0 "
                    f"overflows a double at p={p}, q={q}, where theta_0 is the Beta(p, q) "
                    "quantile at initial_share_target"
                )
            lo, hi = _median_bracket(shape)
            for gamma in grid.gamma_values:
                rate = float(gamma)
                t = _first_half_year(offset, span, rate, shape, horizon, lo, hi)
                cells.append(GridCell(
                    p, q, gamma, alpha_m,
                    _share_below((offset + rate * horizon) / span, shape),
                    None if t is None else start_year + t,
                ))
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
