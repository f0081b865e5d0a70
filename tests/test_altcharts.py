from __future__ import annotations

import itertools
import math

import pytest

from micromaps.altcharts import (
    ClassBreaks,
    equal_interval_breaks,
    render_barchart_alpha,
    render_choropleth,
)
from micromaps.demos import build_demo
from micromaps.errors import BadBreaks, MissingColumn, SpecError
from micromaps.scene import Circle, Line, Polygon, Rect, Text, clamp_scene
from micromaps.svg import emit_svg

from conftest import make_table


def test_class_breaks_validation():
    ClassBreaks((1.0, 2.0), ("#A", "#B", "#C"))
    with pytest.raises(BadBreaks):
        ClassBreaks((2.0, 1.0), ("#A", "#B", "#C"))
    with pytest.raises(BadBreaks):
        ClassBreaks((1.0, 1.0), ("#A", "#B", "#C"))
    with pytest.raises(BadBreaks):
        ClassBreaks((1.0,), ("#A",))


def test_equal_interval_auto_breaks():
    breaks = equal_interval_breaks((0.0, 100.0), 4)
    assert breaks.boundaries == (25.0, 50.0, 75.0)
    assert len(breaks.colors) == 4


def test_single_class_means_single_color():
    breaks = equal_interval_breaks((3.0, 9.0), 1)
    assert breaks.boundaries == ()
    assert breaks.class_index(3.0) == 0
    assert breaks.class_index(9.0) == 0


def test_boundary_value_joins_upper_class():
    breaks = ClassBreaks((10.0, 20.0), ("#A", "#B", "#C"))
    assert breaks.class_index(9.99) == 0
    assert breaks.class_index(10.0) == 1
    assert breaks.class_index(19.999) == 1
    assert breaks.class_index(20.0) == 2


def test_classes_tile_the_extent():
    breaks = equal_interval_breaks((-7.0, 31.0), 5)
    previous = None
    for value in [-7.0 + i * 0.5 for i in range(77)]:
        index = breaks.class_index(value)
        assert 0 <= index <= 4
        if previous is not None:
            assert index >= previous
        previous = index


def test_barchart_alphabetical_counts(table51):
    scene = render_barchart_alpha(table51, "v")
    bars = [s for s in scene.shapes
            if isinstance(s, Rect) and (s.tag or "").startswith("region:")]
    labels = [s for s in scene.shapes
              if isinstance(s, Text) and (s.tag or "").startswith("label:")]
    assert len(bars) == 51
    assert len(labels) == 51  # every state labeled, not every other one
    assert labels[0].content == "AK"
    codes = [l.content for l in labels]
    assert codes == sorted(codes)


def test_barchart_tallest_bar_is_largest_value(table51):
    scene = render_barchart_alpha(table51, "v")
    bars = {s.tag: s for s in scene.shapes
            if isinstance(s, Rect) and (s.tag or "").startswith("region:")}
    tallest = max(bars.values(), key=lambda b: b.height)
    assert tallest.tag == "region:AK"  # AK holds the max in the fixture


def test_barchart_on_acs_data_peaks_at_utah(acs_table):
    scene = render_barchart_alpha(acs_table, "response_rate:2022")
    bars = {s.tag: s for s in scene.shapes
            if isinstance(s, Rect) and (s.tag or "").startswith("region:")}
    tallest = max(bars.values(), key=lambda b: b.height)
    assert tallest.tag == "region:UT"


def test_barchart_constant_column_has_equal_bars():
    table = make_table({"UT": 5.0, "ID": 5.0, "WY": 5.0})
    scene = render_barchart_alpha(table, "v")
    heights = {round(s.height, 6) for s in scene.shapes
               if isinstance(s, Rect) and (s.tag or "").startswith("region:")}
    assert len(heights) == 1


def test_barchart_missing_column(table51):
    with pytest.raises(MissingColumn):
        render_barchart_alpha(table51, "nope")


def test_choropleth_single_class(square_atlas, table51):
    scene = render_choropleth(square_atlas, table51, "v", k=1)
    fills = {s.style.fill for s in scene.shapes
             if isinstance(s, Polygon) and (s.tag or "").startswith("region:")}
    assert len(fills) == 1


def test_choropleth_every_region_exactly_one_class(square_atlas, table51):
    scene = render_choropleth(square_atlas, table51, "v", k=5)
    seen = {}
    for s in scene.shapes:
        if isinstance(s, Polygon) and (s.tag or "").startswith("region:"):
            code = s.tag.split(":")[1]
            seen.setdefault(code, set()).add(s.style.fill)
    assert len(seen) == 51
    assert all(len(colors) == 1 for colors in seen.values())


def test_choropleth_legend_has_numeric_bounds(square_atlas, table51):
    scene = render_choropleth(square_atlas, table51, "v", k=4)
    labels = [s.content for s in scene.shapes if isinstance(s, Text)]
    intervals = [l for l in labels if l.startswith("[")]
    assert len(intervals) == 4
    assert intervals[-1].endswith("]")  # final class is closed
    assert all(l.endswith(")") for l in intervals[:-1])


def test_choropleth_missing_value_gets_no_data_class(square_atlas, table51):
    rows = dict(table51.rows)
    rows["DC"] = {"v": None}
    from micromaps.table import RegionTable
    table = RegionTable(table51.columns, rows)
    scene = render_choropleth(square_atlas, table, "v", k=3)
    labels = [s.content for s in scene.shapes if isinstance(s, Text)]
    assert "no data" in labels


def test_alt_charts_emit_valid_svg(square_atlas, table51):
    import xml.etree.ElementTree as ET
    for scene in (render_barchart_alpha(table51, "v", title="Bars"),
                  render_choropleth(square_atlas, table51, "v", title="Map")):
        ET.fromstring(emit_svg(scene))


def test_choropleth_class_count_faults(square_atlas):
    table = make_table({"CA": 1.0, "TX": 2.0})
    with pytest.raises(BadBreaks, match="^need at least one class$"):
        render_choropleth(square_atlas, table, "v", k=0)
    with pytest.raises(BadBreaks, match=r"^k must be in 1\.\.9$"):
        render_choropleth(square_atlas, table, "v", k=10)
    for bad, name in ((2.5, "float"), ("3", "str"), (True, "bool")):
        with pytest.raises(BadBreaks, match=f"^k must be an integer, got {name}$"):
            render_choropleth(square_atlas, table, "v", k=bad)
    assert len(equal_interval_breaks((1.0, 2.0), 9).colors) == 9


def test_choropleth_of_a_constant_column_is_one_class(square_atlas):
    breaks = equal_interval_breaks((4.0, 4.0), 3)
    assert breaks.boundaries == (4.0 + 1.0 / 3, 4.0 + 2.0 / 3)
    table = make_table({"CA": 4.0, "TX": 4.0})
    scene = render_choropleth(square_atlas, table, "v", k=3)
    fills = {s.tag: s.style.fill for s in scene.shapes
             if isinstance(s, Polygon) and s.tag}
    assert fills["region:CA"] == fills["region:TX"] == breaks.colors[0]


@pytest.mark.parametrize("side", ["width", "height"])
@pytest.mark.parametrize("value", [-5, 0, 1e300, math.nan, math.inf, "1000",
                                   True], ids=repr)
def test_alt_charts_check_their_canvas_first(square_atlas, table51, side,
                                             value):
    """The spec's canvas rule, checked before the column is even read."""
    for render in (lambda **size: render_barchart_alpha(table51, "nope", **size),
                   lambda **size: render_choropleth(square_atlas, table51,
                                                    "nope", **size)):
        with pytest.raises(SpecError) as err:
            render(**{side: value})
        assert err.value.path == side


@pytest.mark.parametrize("render,side,value,title,bound", [
    ("choropleth", "width", 150, "", 174),  # gave a mirrored map
    ("choropleth", "width", 50, "", 174),  # gave a map clamped onto x = 0
    ("choropleth", "height", 52, "Title", 52),
    ("barchart", "height", 20, "", 52),  # gave a 32-unit bar at y = 0
    ("barchart", "height", 80, "Title", 80),
    ("barchart", "width", 66, "", 66),
])
def test_alt_charts_reject_a_canvas_their_margins_cannot_hold(
        square_atlas, table51, render, side, value, title, bound):
    size = {side: value, "title": title}
    with pytest.raises(SpecError) as err:
        if render == "choropleth":
            render_choropleth(square_atlas, table51, "v", **size)
        else:
            render_barchart_alpha(table51, "v", **size)
    assert str(err.value) == (f"{side}: must be above {bound} and at most "
                              "100000")


def test_choropleth_legend_rows_must_fit_the_height(square_atlas, table51):
    """Legend rows are 18 units apart from top + 8, one per class and one
    for "no data"; a height that cannot hold them is a SpecError, and one
    that can draws every legend shape inside the canvas, so a clamp would
    leave each one as drawn."""
    sparse = make_table({"CA": 1.0, "TX": 2.0})  # 49 regions with no data
    for table, bound in ((table51, 132), (sparse, 150)):
        with pytest.raises(SpecError) as err:
            render_choropleth(square_atlas, table, "v", k=5, height=bound,
                              title="Title")
        assert str(err.value) == (f"height: must be above {bound} and at "
                                  "most 100000")
    for table, rows, height in ((table51, 5, 132.5), (sparse, 6, 150.5)):
        scene = render_choropleth(square_atlas, table, "v", k=5,
                                  height=height, title="Title")
        legend = [i for i, s in enumerate(scene.shapes)
                  if type(s) in (Rect, Text) and s.x >= 760.0 - 150.0]
        assert len(legend) == 2 * rows
        clamped = clamp_scene(scene).shapes
        assert all(clamped[i] is scene.shapes[i] for i in legend)


def _inside(points, left, top, right, bottom) -> bool:
    eps = 1e-9
    return all(left - eps <= x <= right + eps and top - eps <= y <= bottom + eps
               for x, y in points)


@pytest.mark.parametrize("title", ["", "Title"])
def test_alt_charts_draw_inside_their_frame_at_the_smallest_canvas(
        default_atlas, table51, title):
    def above(bound: float) -> float:
        return math.nextafter(bound, math.inf)

    # The five legend rows, 18 units apart from top + 8, set the choropleth's
    # smallest height; its map frame then has room to spare.
    top = 40.0 if title else 12.0
    width, height = above(174.0), above(top + 8.0 + 5 * 18.0 - 6.0)
    scene = render_choropleth(default_atlas, table51, "v", width=width,
                              height=height, title=title)
    rings = [s.points for s in scene.shapes if isinstance(s, Polygon)]
    assert len(rings) == 2 * sum(map(len, default_atlas.regions.values()))
    assert all(_inside(ring, 12.0, top, width - 162.0, height - 12.0)
               for ring in rings)
    swatches = [s for s in scene.shapes if isinstance(s, Rect)]
    assert len(swatches) == 5
    assert all(_inside(((r.x, r.y), (r.x + r.width, r.y + r.height)),
                       0.0, 0.0, width, height) for r in swatches)

    top = 46.0 if title else 18.0
    width, height = above(66.0), above(top + 34.0)
    scene = render_barchart_alpha(table51, "v", width=width, height=height,
                                  title=title)
    bars = [s for s in scene.shapes
            if isinstance(s, Rect) and (s.tag or "").startswith("region:")]
    assert len(bars) == 51
    assert all(_inside(((b.x, b.y), (b.x + b.width, b.y + b.height)), 52.0,
                       top, width - 14.0, height - 34.0) for b in bars)


def _anchors(shape):
    """The points a shape is placed by: what a clamp would move."""
    if isinstance(shape, (Rect, Text)):
        return ((shape.x, shape.y),)
    if isinstance(shape, Circle):
        return ((shape.cx, shape.cy),)
    if isinstance(shape, Line):
        return ((shape.x1, shape.y1), (shape.x2, shape.y2))
    return shape.points  # Polyline, Polygon


# Sizes from the smallest to the largest the canvas rule could accept, with
# the bounds of both charts and of the choropleth legend in between.
_SIDES = (1.0, 66.5, 80.5, 132.5, 174.5, 560.0, 1000.0, 100000.0)
_DEMOS = (("acs-dot", "response_rate:2022"),
          ("acs-timeseries", "response_rate:2022"),
          ("qcew-arrows", "over_year_change:2020Q1"),
          ("ers-snap", "snap_change_2012_2017"),
          ("ers-boxscatter", "insecurity_change"))


@pytest.mark.parametrize("title", ["", "Title"])
def test_alt_charts_draw_every_anchor_inside_the_canvas(default_atlas, title):
    """Neither chart is clamped: on every size that its canvas rules accept,
    over each demo's sort column, every shape's anchor lies on the canvas;
    every other size is a SpecError at the side that is too small."""
    accepted = {"choropleth": 0, "bars": 0}
    for name, column in _DEMOS:
        table = build_demo(name)[1]
        for width, height in itertools.product(_SIDES, _SIDES):
            for chart, render in (
                    ("choropleth", lambda **size: render_choropleth(
                        default_atlas, table, column, **size)),
                    ("bars", lambda **size: render_barchart_alpha(
                        table, column, **size))):
                try:
                    scene = render(width=width, height=height, title=title)
                except SpecError as err:
                    assert err.path in ("width", "height")
                    continue
                accepted[chart] += 1
                for shape in scene.shapes:
                    assert all(0.0 <= x <= width and 0.0 <= y <= height
                               for x, y in _anchors(shape)), (
                        chart, name, width, height, shape)
    assert all(accepted.values()), accepted
