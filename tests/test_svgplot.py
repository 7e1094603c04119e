"""SVG charts called directly: edge inputs pinned by SHA-256, empty inputs refused."""

import hashlib

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


class TestEmptyInput:
    @pytest.mark.parametrize("render,message", [
        (lambda: svgplot.line_chart([], "x", "y"), "line_chart requires at least one point"),
        (lambda: svgplot.multi_line_chart([], "x", "y"),
         "multi_line_chart requires non-empty series"),
        (lambda: svgplot.multi_line_chart([("a", [(0.0, 1.0)]), ("b", [])], "x", "y"),
         "multi_line_chart requires non-empty series"),
        (lambda: svgplot.heatmap([], [1.0], [], "x", "y"), "heatmap requires non-empty axes"),
        (lambda: svgplot.heatmap([1.0], [], [[]], "x", "y"), "heatmap requires non-empty axes"),
    ], ids=["line", "multi-line-no-series", "multi-line-empty-series", "heatmap-no-x",
            "heatmap-no-y"])
    def test_message(self, render, message):
        with pytest.raises(DomainError) as excinfo:
            render()
        assert str(excinfo.value) == message
