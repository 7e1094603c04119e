"""Deterministic SVG 1.1 rendering for trajectories and grids.

No plotting stack: documents are assembled from formatted strings with every
coordinate rounded to two decimals, so identical inputs yield byte-identical
output on any platform (no timestamps, no generated ids).  Every chart is
drawn on one fixed 720 x 480 canvas.  Data series are drawn as <polyline>
elements and heat cells as <rect> elements; axes, ticks, and frames
deliberately use <line> and <text>, so counting the data elements of a
document sees only the data.  Both line charts share one body, which draws a
legend entry for each labelled series.  The last section draws the chart
of each model's run for the CLI.
"""

from __future__ import annotations

import math

from . import boundary as bnd  # run only by the boundary heatmap
from .errors import ChartError, DomainError

__all__ = ["line_chart", "multi_line_chart", "heatmap"]

# The canvas, and the plot rectangle inside its axis margins.
_WIDTH = 720.0
_HEIGHT = 480.0
_LEFT = 64.0
_RIGHT = _WIDTH - 20.0
_TOP = 20.0
_BOTTOM = _HEIGHT - 48.0
_TICK_LEN = 5.0
_TICK_TARGET = 5  # tick intervals each axis aims for
_FONT = "font-family=\"sans-serif\" font-size=\"12\""
_MIDDLE = 'text-anchor="middle" '

_SERIES_COLORS = ("#1f6fb4", "#d1495b", "#3a7d44", "#8a5fb0")

# The data ranges a chart spans, (x_lo, x_hi, y_lo, y_hi).
_Frame = tuple[float, float, float, float]


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _fmt_tick(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.4f}".rstrip("0").rstrip(".")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi], at most ~_TICK_TARGET+1 of them."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / _TICK_TARGET
    magnitude = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 0.0
    if not magnitude:  # a subnormal range: raw, or its power of ten, underflows to 0
        return [lo]
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * magnitude >= raw:
            step = mult * magnitude
            break
    first = math.ceil(lo / step - 1e-9)
    ticks = []
    k = first
    while True:
        value = k * step
        if value > hi + step * 1e-9:
            break
        ticks.append(round(value, 10))
        k += 1
    return ticks


def _scale(value: float, lo: float, hi: float, start: float, end: float) -> float:
    """Map ``value`` from the data range [lo, hi] onto pixels [start, end].

    A zero-width range maps to the middle.  y maps onto [_BOTTOM, _TOP], so
    larger values are drawn higher.
    """
    span = hi - lo
    frac = 0.5 if span == 0 else (value - lo) / span
    return start + frac * (end - start)


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str = 'stroke="#333333"') -> str:
    """One <line>; ``stroke`` holds its stroke attributes."""
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {stroke}/>'


def _text(x: float, y: float, label: str, attrs: str = "") -> str:
    """One <text> with markup characters in ``label`` escaped; ``attrs`` end in a space."""
    label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'<text x="{_fmt(x)}" y="{_fmt(y)}" {attrs}{_FONT}>{label}</text>'


def _axes(frame: _Frame, x_label: str, y_label: str) -> list[str]:
    """Both axis lines, a tick and its label per nice tick, and both axis titles."""
    x_lo, x_hi, y_lo, y_hi = frame
    parts = [_line(_LEFT, _BOTTOM, _RIGHT, _BOTTOM), _line(_LEFT, _TOP, _LEFT, _BOTTOM)]
    for tick in _nice_ticks(x_lo, x_hi):
        px = _scale(tick, x_lo, x_hi, _LEFT, _RIGHT)
        parts.append(_line(px, _BOTTOM, px, _BOTTOM + _TICK_LEN))
        parts.append(_text(px, _BOTTOM + 18.0, _fmt_tick(tick), _MIDDLE))
    for tick in _nice_ticks(y_lo, y_hi):
        py = _scale(tick, y_lo, y_hi, _BOTTOM, _TOP)
        parts.append(_line(_LEFT - _TICK_LEN, py, _LEFT, py))
        parts.append(_text(_LEFT - 8.0, py + 4.0, _fmt_tick(tick), 'text-anchor="end" '))
    mid_y = 0.5 * (_TOP + _BOTTOM)
    parts.append(_text(0.5 * (_LEFT + _RIGHT), _HEIGHT - 10.0, x_label, _MIDDLE))
    rotate = f'transform="rotate(-90 16.00 {_fmt(mid_y)})" '
    parts.append(_text(16.0, mid_y, y_label, _MIDDLE + rotate))
    return parts


def _document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _polyline(points: list[tuple[float, float]], frame: _Frame, color: str) -> str:
    x_lo, x_hi, y_lo, y_hi = frame
    coords = " ".join(
        f"{_fmt(_scale(x, x_lo, x_hi, _LEFT, _RIGHT))},"
        f"{_fmt(_scale(y, y_lo, y_hi, _BOTTOM, _TOP))}"
        for x, y in points
    )
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'


def _padded_range(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        return lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _lines(
    series: list[tuple[str, list[tuple[float, float]]]], x_label: str, y_label: str
) -> str:
    """One polyline per series over shared axes; a legend entry per labelled one."""
    xs = [x for _, points in series for x, _ in points]
    ys = [y for _, points in series for _, y in points]
    frame = (min(xs), max(xs), *_padded_range(ys))
    body = _axes(frame, x_label, y_label)
    for index, (label, points) in enumerate(series):
        color = _SERIES_COLORS[index % len(_SERIES_COLORS)]
        body.append(_polyline(points, frame, color))
        if label:
            legend_y = _TOP + 16.0 * index + 6.0
            stroke = f'stroke="{color}" stroke-width="1.5"'
            body.append(_line(_LEFT + 8.0, legend_y, _LEFT + 28.0, legend_y, stroke))
            body.append(_text(_LEFT + 34.0, legend_y + 4.0, label))
    return _document(body)


def line_chart(points: list[tuple[float, float]], x_label: str, y_label: str) -> str:
    """Single data series as one polyline over labeled axes."""
    if not points:
        raise DomainError("line_chart requires at least one point")
    return _lines([("", points)], x_label, y_label)


def multi_line_chart(
    series: list[tuple[str, list[tuple[float, float]]]], x_label: str, y_label: str
) -> str:
    """Several labeled series; one polyline each plus a small legend."""
    if not series or any(not points for _, points in series):
        raise DomainError("multi_line_chart requires non-empty series")
    return _lines(series, x_label, y_label)


def _cell_edges(values: list[float]) -> list[float]:
    """Cell boundaries around each grid value (midpoints, half-gap ends)."""
    if len(values) == 1:
        return [values[0] - 0.5, values[0] + 0.5]
    edges = [values[0] - 0.5 * (values[1] - values[0])]
    for a, b in zip(values, values[1:]):
        edges.append(0.5 * (a + b))
    edges.append(values[-1] + 0.5 * (values[-1] - values[-2]))
    return edges


def _diverging_color(value: float, scale: float) -> str:
    """White at zero, saturating blue below and red above."""
    if scale <= 0:
        frac = 0.0
    else:
        frac = max(-1.0, min(1.0, value / scale))
    if frac >= 0:
        red, green, blue = 255, round(255 * (1 - frac)), round(255 * (1 - frac))
    else:
        red, green, blue = round(255 * (1 + frac)), round(255 * (1 + frac)), 255
    return f"rgb({red},{green},{blue})"


def heatmap(
    x_values: list[float],
    y_values: list[float],
    cells: list[list[float]],
    x_label: str,
    y_label: str,
    overlay: list[tuple[float, float]] | None = None,
) -> str:
    """Grid of colored cells; cells[i][j] belongs to (x_values[i], y_values[j]).

    One rect is emitted per grid entry.  The optional overlay is drawn as a
    single black polyline in the same data coordinates.
    """
    if not x_values or not y_values:
        raise DomainError("heatmap requires non-empty axes")
    if len(cells) != len(x_values) or any(
        len(row) != len(y_values) for row in cells
    ):
        raise DomainError("cells must be len(x_values) rows of len(y_values)")
    x_edges = _cell_edges(list(x_values))
    y_edges = _cell_edges(list(y_values))
    for edges, label in ((x_edges, x_label), (y_edges, y_label)):
        if not all(map(math.isfinite, (*edges, edges[-1] - edges[0]))):
            raise DomainError(
                f"heatmap {label} axis does not fit in a double: its cells must span "
                "a finite range"
            )
    # One infinite cell would make the colour scale infinite and every finite cell white.
    for row, x in zip(cells, x_values):
        for value, y in zip(row, y_values):
            if not math.isfinite(value):
                raise DomainError(
                    f"heatmap cell at {x_label}={x}, {y_label}={y} must be finite, got {value}"
                )
    frame = (x_edges[0], x_edges[-1], y_edges[0], y_edges[-1])
    x_px = [_scale(edge, x_edges[0], x_edges[-1], _LEFT, _RIGHT) for edge in x_edges]
    y_px = [_scale(edge, y_edges[0], y_edges[-1], _BOTTOM, _TOP) for edge in y_edges]
    scale = max((abs(v) for row in cells for v in row), default=0.0)
    body = []
    for row, left, right in zip(cells, x_px, x_px[1:]):
        for value, bottom, top in zip(row, y_px, y_px[1:]):
            body.append(
                f'<rect x="{_fmt(left)}" y="{_fmt(top)}" '
                f'width="{_fmt(right - left)}" height="{_fmt(bottom - top)}" '
                f'fill="{_diverging_color(value, scale)}"/>'
            )
    body.extend(_axes(frame, x_label, y_label))
    if overlay:
        body.append(_polyline(overlay, frame, "#000000"))
    return _document(body)


# ---------------------------------------------------------------------------
# The chart of each model's run, by the name ``cli.emit_svg`` looks up; each
# takes a ``cli.RunResult``, so only SVG output compiles them.
# ---------------------------------------------------------------------------

def share_line(result) -> str:
    points = [(float(p.year), p.share) for p in result.data]
    return line_chart(points, x_label="year", y_label="share")


def replicator_lines(result) -> str:
    series = [
        ("routine", [(float(p.year), p.x_routine) for p in result.data]),
        ("complex", [(float(p.year), p.x_complex) for p in result.data]),
        ("total", [(float(p.year), p.x_total) for p in result.data]),
    ]
    return multi_line_chart(series, x_label="year", y_label="share")


def lattice_line(result) -> str:
    trace, n_tasks = result.data
    points = [(float(t), count / n_tasks) for t, count in enumerate(trace.counts)]
    return line_chart(points, x_label="t", y_label="share")


def boundary_heatmap(result) -> str:
    """Payoff advantage over (year, theta), with the boundary overlaid."""
    if result.config is None:
        raise ChartError("boundary heatmap needs the run's config, and this result has none")
    if result.config.model != "boundary":
        raise ChartError(f"boundary heatmap needs a boundary config, got {result.config.model!r}")
    params, horizon = result.config.build()
    years = [params.start_year + t for t in range(horizon + 1)]
    thetas = [round(0.1 * j, 10) for j in range(11)]
    grid = bnd.advantage_grid(params, years, thetas)
    overlay = [
        (point.year, min(1.0, max(0.0, point.theta))) for point in result.data
    ]
    return heatmap(
        [float(y) for y in years],
        thetas,
        grid,
        x_label="year",
        y_label="theta",
        overlay=overlay,
    )


def sweep_heatmap(result) -> str:
    cells = result.data
    q_values = sorted({cell.q for cell in cells})
    if len(q_values) != 1:
        raise ChartError(
            "sweep heatmap needs exactly one q value; "
            f"got {len(q_values)} (filter the grid first)"
        )
    p_values = sorted({cell.p for cell in cells})
    gamma_values = sorted({cell.gamma for cell in cells})
    lookup = {(cell.p, cell.gamma): cell.final_share for cell in cells}
    grid = [
        [lookup[(p, gamma)] for p in p_values] for gamma in gamma_values
    ]
    return heatmap(
        [float(g) for g in gamma_values],
        [float(p) for p in p_values],
        grid,
        x_label="gamma",
        y_label="p",
    )
