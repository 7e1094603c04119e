"""Deterministic SVG 1.1 rendering for trajectories and grids.

No plotting stack: documents are assembled from formatted strings with every
coordinate rounded to two decimals, so identical inputs yield byte-identical
output on any platform (no timestamps, no generated ids).  Every chart is
drawn on one fixed 720 x 480 canvas.  Data series are drawn as <polyline>
elements and heat cells as <rect> elements; axes, ticks, and frames
deliberately use <line> and <text>, so counting the data elements of a
document sees only the data.  Both line charts share one body, which draws a
legend entry for each labelled series.
"""

from __future__ import annotations

import math

from .errors import DomainError

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

_SERIES_COLORS = ("#1f6fb4", "#d1495b", "#3a7d44", "#8a5fb0")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _fmt_tick(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.4f}".rstrip("0").rstrip(".")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi], at most ~_TICK_TARGET+1 of them."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / _TICK_TARGET
    magnitude = 10.0 ** math.floor(math.log10(raw))
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


class _Frame:
    """Maps data coordinates into the plot rectangle of the canvas."""

    def __init__(self, x_range: tuple[float, float], y_range: tuple[float, float]) -> None:
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range

    def x_px(self, x: float) -> float:
        span = self.x_hi - self.x_lo
        frac = 0.5 if span == 0 else (x - self.x_lo) / span
        return _LEFT + frac * (_RIGHT - _LEFT)

    def y_px(self, y: float) -> float:
        span = self.y_hi - self.y_lo
        frac = 0.5 if span == 0 else (y - self.y_lo) / span
        return _BOTTOM - frac * (_BOTTOM - _TOP)

    def axes(self, x_label: str, y_label: str) -> list[str]:
        parts = [
            f'<line x1="{_fmt(_LEFT)}" y1="{_fmt(_BOTTOM)}" '
            f'x2="{_fmt(_RIGHT)}" y2="{_fmt(_BOTTOM)}" stroke="#333333"/>',
            f'<line x1="{_fmt(_LEFT)}" y1="{_fmt(_TOP)}" '
            f'x2="{_fmt(_LEFT)}" y2="{_fmt(_BOTTOM)}" stroke="#333333"/>',
        ]
        for tick in _nice_ticks(self.x_lo, self.x_hi):
            px = self.x_px(tick)
            parts.append(
                f'<line x1="{_fmt(px)}" y1="{_fmt(_BOTTOM)}" '
                f'x2="{_fmt(px)}" y2="{_fmt(_BOTTOM + _TICK_LEN)}" stroke="#333333"/>'
            )
            parts.append(
                f'<text x="{_fmt(px)}" y="{_fmt(_BOTTOM + 18.0)}" '
                f'text-anchor="middle" {_FONT}>{_fmt_tick(tick)}</text>'
            )
        for tick in _nice_ticks(self.y_lo, self.y_hi):
            py = self.y_px(tick)
            parts.append(
                f'<line x1="{_fmt(_LEFT - _TICK_LEN)}" y1="{_fmt(py)}" '
                f'x2="{_fmt(_LEFT)}" y2="{_fmt(py)}" stroke="#333333"/>'
            )
            parts.append(
                f'<text x="{_fmt(_LEFT - 8.0)}" y="{_fmt(py + 4.0)}" '
                f'text-anchor="end" {_FONT}>{_fmt_tick(tick)}</text>'
            )
        mid_x = 0.5 * (_LEFT + _RIGHT)
        parts.append(
            f'<text x="{_fmt(mid_x)}" y="{_fmt(_HEIGHT - 10.0)}" '
            f'text-anchor="middle" {_FONT}>{_escape(x_label)}</text>'
        )
        mid_y = 0.5 * (_TOP + _BOTTOM)
        parts.append(
            f'<text x="16.00" y="{_fmt(mid_y)}" text-anchor="middle" '
            f'transform="rotate(-90 16.00 {_fmt(mid_y)})" {_FONT}>'
            f"{_escape(y_label)}</text>"
        )
        return parts


def _document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _polyline(points: list[tuple[float, float]], frame: _Frame, color: str) -> str:
    coords = " ".join(
        f"{_fmt(frame.x_px(x))},{_fmt(frame.y_px(y))}" for x, y in points
    )
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{coords}"/>'
    )


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
    frame = _Frame((min(xs), max(xs)), _padded_range(ys))
    body = frame.axes(x_label, y_label)
    for index, (label, points) in enumerate(series):
        color = _SERIES_COLORS[index % len(_SERIES_COLORS)]
        body.append(_polyline(points, frame, color))
        if not label:
            continue
        legend_y = _TOP + 16.0 * index + 6.0
        body.append(
            f'<line x1="{_fmt(_LEFT + 8.0)}" y1="{_fmt(legend_y)}" '
            f'x2="{_fmt(_LEFT + 28.0)}" y2="{_fmt(legend_y)}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        body.append(
            f'<text x="{_fmt(_LEFT + 34.0)}" y="{_fmt(legend_y + 4.0)}" '
            f'{_FONT}>{_escape(label)}</text>'
        )
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
    frame = _Frame((x_edges[0], x_edges[-1]), (y_edges[0], y_edges[-1]))
    scale = max((abs(v) for row in cells for v in row), default=0.0)
    body = []
    for i in range(len(x_values)):
        for j in range(len(y_values)):
            left = frame.x_px(x_edges[i])
            right = frame.x_px(x_edges[i + 1])
            top = frame.y_px(y_edges[j + 1])
            bottom = frame.y_px(y_edges[j])
            body.append(
                f'<rect x="{_fmt(left)}" y="{_fmt(top)}" '
                f'width="{_fmt(right - left)}" height="{_fmt(bottom - top)}" '
                f'fill="{_diverging_color(cells[i][j], scale)}"/>'
            )
    body.extend(frame.axes(x_label, y_label))
    if overlay:
        body.append(_polyline(overlay, frame, "#000000"))
    return _document(body)
