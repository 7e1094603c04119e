"""SVG charts called directly: edge inputs pinned by SHA-256, empty inputs refused."""

import hashlib
import math

import pytest

from workmix import DomainError
from workmix import svgplot


def _digest(document):
    return hashlib.sha256(document.encode()).hexdigest()


class TestEdgeBytes:
    def test_all_zero_heatmap(self):
        # A zero colour scale paints every cell white.
        document = svgplot.heatmap([1.0, 2.0], [0.0, 0.5, 1.0], [[0.0] * 3, [0.0] * 3], "x", "y")
        assert document.count('fill="rgb(255,255,255)"') == 6
        assert _digest(document) == (
            "6953477a64174c4ca993a7cb9b4b059a2baedd8d428280f719684d40ae223d2d"
        )

    def test_markup_characters_in_labels_are_escaped(self):
        document = svgplot.multi_line_chart(
            [("a & b", [(0.0, 1.0), (1.0, 2.0)]), ("x < y > z", [(0.0, 0.5), (1.0, 0.25)])],
            "year & <t>",
            "share > 0 & < 1",
        )
        for text in ("a &amp; b", "x &lt; y &gt; z", "year &amp; &lt;t&gt;",
                     "share &gt; 0 &amp; &lt; 1"):
            assert f">{text}</text>" in document
        assert _digest(document) == (
            "d0fec1ac87c483486099b8746af405988522cb6845b2d75e4e21b99dfa0df681"
        )


class TestNiceTicks:
    @pytest.mark.parametrize("hi", [5e-324, 2e-323])
    def test_subnormal_range_is_one_tick(self, hi):
        # A fifth of the range rounds to 0, or its power of ten underflows to 0.
        assert svgplot._nice_ticks(0.0, hi) == [0.0]


class TestOverflowingAxis:
    """Cell edges past a double's range are refused, never drawn at inf or nan."""

    @pytest.mark.parametrize("x_values,y_values,label", [
        ([1e308, 1.7e308], [1.0], "x"),      # the last edge overflows
        ([1.6e308, 1.7e308], [1.0], "x"),    # only the midpoint overflows
        ([1.0], [1e-300, 1.1e308], "y"),     # every edge is finite, their span is not
    ], ids=["last-edge", "midpoint", "span"])
    def test_refused(self, x_values, y_values, label):
        cells = [[0.5] * len(y_values) for _ in x_values]
        with pytest.raises(DomainError) as excinfo:
            svgplot.heatmap(x_values, y_values, cells, "x", "y")
        assert str(excinfo.value) == (
            f"heatmap {label} axis does not fit in a double: its cells must span a finite range"
        )


class TestNonFiniteCell:
    """One infinite cell would leave every finite cell white; any non-finite cell is refused."""

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_refused(self, value):
        cells = [[1.0, 2.0], [3.0, value]]
        with pytest.raises(DomainError) as excinfo:
            svgplot.heatmap([2025.0, 2026.0], [0.0, 0.5], cells, "year", "theta")
        assert str(excinfo.value) == (
            f"heatmap cell at year=2026.0, theta=0.5 must be finite, got {value}"
        )


class TestEmptyInput:
    @pytest.mark.parametrize("render,message", [
        (lambda: svgplot.line_chart([], "x", "y"), "line_chart requires at least one point"),
        (lambda: svgplot.multi_line_chart([], "x", "y"),
         "multi_line_chart requires non-empty series"),
        (lambda: svgplot.multi_line_chart([("a", [(0.0, 1.0)]), ("b", [])], "x", "y"),
         "multi_line_chart requires non-empty series"),
        (lambda: svgplot.heatmap([], [1.0], [], "x", "y"), "heatmap requires non-empty axes"),
        (lambda: svgplot.heatmap([1.0], [], [[]], "x", "y"), "heatmap requires non-empty axes"),
        (lambda: svgplot.heatmap([1.0, 2.0], [0.5], [[1.0], [2.0, 3.0]], "x", "y"),
         "cells must be len(x_values) rows of len(y_values)"),
    ], ids=["line", "multi-line-no-series", "multi-line-empty-series", "heatmap-no-x",
            "heatmap-no-y", "heatmap-cells-shape"])
    def test_message(self, render, message):
        with pytest.raises(DomainError) as excinfo:
            render()
        assert str(excinfo.value) == message
