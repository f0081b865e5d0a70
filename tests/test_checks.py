"""The pre-write gate accepts correct charts and rejects recolored marks.

Each rejection case takes a correct scene, changes one region-tagged mark,
and expects ``check_chart`` to raise. Marks are found by type, tag and
shape, not by where they sit, so the cases do not depend on how the checks
find a panel's marks.
"""

from __future__ import annotations

import pytest

from micromaps.altcharts import render_choropleth
from micromaps.checks import check_chart
from micromaps.compose import ChartSpec, ColumnSpec, compose, plan_chart
from micromaps.demos import build_demo
from micromaps.errors import MicromapError
from micromaps.layout import SortSpec
from micromaps.glyphs import AXIS_STYLE, MEDIAN_STYLE, OUTLIER_STYLE
from micromaps.scene import Circle, Line, Polygon, Polyline, Rect, Scene
from micromaps.table import bind_series, parse_table

from conftest import full_table

WRONG = "#123456"


def dot_spec(**overrides) -> ChartSpec:
    return ChartSpec(title="Gate", sort=SortSpec("v"),
                     columns=(ColumnSpec("map"), ColumnSpec("legend"),
                              ColumnSpec("dot", bindings={"value": "v"})),
                     **overrides)


def replaced(scene: Scene, index: int, shape) -> Scene:
    shapes = list(scene.shapes)
    shapes[index] = shape
    return scene._replace(shapes=tuple(shapes))


def first(scene: Scene, kind: type, test=lambda shape: True) -> int:
    return next(i for i, shape in enumerate(scene.shapes)
                if isinstance(shape, kind) and shape.tag
                and shape.tag.startswith("region:") and test(shape))


def recolored(scene: Scene, index: int, attr: str = "fill") -> Scene:
    shape = scene.shapes[index]
    return replaced(scene, index, shape._replace(
        style=shape.style._replace(**{attr: WRONG})))


def glyph_scene(atlas, column) -> Scene:
    """A map, a legend and one glyph column over all 51 regions, sorted by
    the last CSV column. ``column`` is (CSV header, cells of region i,
    kind, bindings); a binding to "s" is to the series of all CSV columns.
    """
    header, cells, kind, bindings = column
    codes = sorted(full_table().rows)
    table = parse_table(f"state,{header}\n" + "\n".join(
        f"{code},{cells(i)}" for i, code in enumerate(codes)), "state")
    names = header.split(",")
    sort = names[-1]
    if "s" in bindings.values():
        table = bind_series(table, names, "s")
        sort = f"s:{sort}"
    spec = ChartSpec(title=kind, sort=SortSpec(sort),
                     columns=(ColumnSpec("map"), ColumnSpec("legend"),
                              ColumnSpec(kind, bindings=bindings)))
    scene = compose(spec, table, atlas)
    check_chart(scene)
    return scene


@pytest.mark.parametrize("height", [20.0, 50.0, 100.0])
def test_short_canvas_passes(default_atlas, height):
    scene = compose(dot_spec(height=height), full_table(), default_atlas)
    check_chart(scene)


def test_recolored_dot_outside_its_panel_raises(default_atlas):
    scene = compose(dot_spec(), full_table(), default_atlas)
    i = first(scene, Circle)
    dot = scene.shapes[i]
    panel = next(p for p in scene.panels if p.kind == "dot"
                 and dot.tag in {"region:" + row.region for row in p.frame.rows})
    moved = dot._replace(cx=panel.frame.right + 5.0,
                         style=dot.style._replace(fill=WRONG))
    with pytest.raises(MicromapError, match=WRONG):
        check_chart(replaced(scene, i, moved))


def test_recolored_map_fill_of_member_raises(default_atlas):
    table = full_table()
    spec = dot_spec()
    scene = compose(spec, table, default_atlas)
    color = {row.region: row.color
             for band in plan_chart(spec, table).bands for row in band.rows}

    def own_color(shape: Polygon) -> bool:
        return shape.style.fill == color.get(shape.tag[len("region:"):])

    i = first(scene, Polygon, own_color)
    fill = scene.shapes[i]
    with pytest.raises(MicromapError, match=WRONG):
        check_chart(replaced(scene, i, fill._replace(
            style=fill.style._replace(fill=WRONG))))


def test_recolored_one_period_timeseries_dot_raises(square_atlas):
    """A region with a gap draws a line and a dot; both carry its color."""
    codes = sorted(full_table().rows)
    table = parse_table("state,a,b,c,d\n" + "\n".join(
        f"{code},{i},{i + 1},,{i + 3}" for i, code in enumerate(codes)),
        "state")
    table = bind_series(table, ["a", "b", "c", "d"], "s")
    spec = ChartSpec(title="ts", sort=SortSpec("s:d"),
                     columns=(ColumnSpec("map"), ColumnSpec("legend"),
                              ColumnSpec("timeseries",
                                         bindings={"series": "s"})))
    scene = compose(spec, table, square_atlas)
    check_chart(scene)
    i = first(scene, Circle)
    dot = scene.shapes[i]
    with pytest.raises(MicromapError, match=WRONG):
        check_chart(replaced(scene, i, dot._replace(
            style=dot.style._replace(fill=WRONG))))


def test_recolored_arrow_shaft_raises(square_atlas):
    codes = sorted(full_table().rows)
    table = parse_table("state,a,b\n" + "\n".join(
        f"{code},{i},{i + 2}" for i, code in enumerate(codes)), "state")
    spec = ChartSpec(title="arrows", sort=SortSpec("b"),
                     columns=(ColumnSpec("map"), ColumnSpec("legend"),
                              ColumnSpec("arrow", bindings={"start": "a",
                                                            "end": "b"})))
    scene = compose(spec, table, square_atlas)
    check_chart(scene)
    i = first(scene, Line)
    shaft = scene.shapes[i]
    with pytest.raises(MicromapError, match=WRONG):
        check_chart(replaced(scene, i, shaft._replace(
            style=shaft.style._replace(stroke=WRONG))))


def test_region_recolored_the_same_in_every_panel_raises(default_atlas):
    """Its map fill, legend swatch and dot all show one color, but not the
    color of its row, so the chart links it to the wrong rank."""
    scene = compose(dot_spec(), full_table(), default_atlas)
    code = "TX"
    color = next(row.color for panel in scene.panels
                 for row in panel.frame.rows if row.region == code)
    hits = {i for panel in scene.panels for i in panel.marks
            if scene.shapes[i].tag == f"region:{code}"
            and color in (scene.shapes[i].style.fill,
                          scene.shapes[i].style.stroke)}
    assert {type(scene.shapes[i]) for i in hits} == {Polygon, Rect, Circle}
    for i in hits:
        scene = recolored(scene, i)
    with pytest.raises(MicromapError, match=f"{code} drawn in {WRONG}"):
        check_chart(scene)


def test_region_with_two_row_colors_raises(default_atlas, acs_table):
    """UT's legend row and swatch are recolored alike, its map fill and dot
    left in the old row color: each mark shows its own frame's row color,
    but the region has two, so the gate names both panels."""
    spec = build_demo("acs-dot")[0]
    scene = compose(spec, acs_table, default_atlas)
    code = "UT"
    at, legend = next((k, panel) for k, panel in enumerate(scene.panels)
                      if panel.kind == "legend" and code in
                      {row.region for row in panel.frame.rows})
    old = next(row.color for row in legend.frame.rows if row.region == code)
    rows = tuple(row._replace(color=WRONG) if row.region == code else row
                 for row in legend.frame.rows)
    panels = list(scene.panels)
    panels[at] = legend._replace(frame=legend.frame._replace(rows=rows))
    swatch = next(i for i in legend.marks
                  if scene.shapes[i].tag == f"region:{code}")
    scene = recolored(scene, swatch)._replace(panels=tuple(panels))
    group = legend.group_index
    with pytest.raises(MicromapError, match=(
            rf"^{code}: row color {WRONG} in panel \(legend, group {group}\), "
            rf"{old} in panel \(map, group {group}\)$")):
        check_chart(scene)


# One glyph column each: (CSV header, cells of region i, kind, bindings).
BARS = ("v", lambda i: 100 + i, "bar", {"value": "v"})
ARROWS = ("a,b", lambda i: f"{i},{i + 2}", "arrow", {"start": "a", "end": "b"})
SERIES = ("a,b,c", lambda i: f"{i},{i + 1},{i}", "timeseries", {"series": "s"})
# Samples i..i+3 and i+100: the last one is an outlier in every row.
BOXES = ("a,b,c,d,e", lambda i: f"{i},{i + 1},{i + 2},{i + 3},{i + 100}",
         "boxplot", {"samples": "s"})
POINTS = ("x,y", lambda i: f"{i},{(i * 7) % 13}", "scatter",
          {"x": "x", "y": "y"})


# Legend swatches are the only squares, bars here are long and thin, and
# box-plot boxes the only outlined Rects. Square-atlas rings have five
# points, an arrow head three.
@pytest.mark.parametrize("column,kind,test,attr", [
    (BARS, Rect, lambda rect: rect.width == rect.height, "fill"),
    (BARS, Rect, lambda rect: rect.width > 2 * rect.height, "fill"),
    (ARROWS, Polygon, lambda head: len(head.points) == 3, "fill"),
    (SERIES, Polyline, lambda line: True, "stroke"),
    (BOXES, Rect, lambda box: box.style.stroke is not None, "fill"),
    (POINTS, Circle, lambda point: True, "fill"),
], ids=["legend-swatch", "bar", "arrow-head", "timeseries-line",
        "boxplot-box", "scatter-highlight"])
def test_recolored_glyph_mark_raises(square_atlas, column, kind, test, attr):
    scene = glyph_scene(square_atlas, column)
    with pytest.raises(MicromapError, match=WRONG):
        check_chart(recolored(scene, first(scene, kind, test), attr))


@pytest.mark.parametrize("style,kind,attr", [
    (AXIS_STYLE, Line, "stroke"),  # whiskers (and the column axes)
    (MEDIAN_STYLE, Line, "stroke"),
    (OUTLIER_STYLE, Circle, "fill"),
], ids=["whisker", "median", "outlier"])
def test_recolored_boxplot_fixed_style_marks_pass(square_atlas, style, kind,
                                                  attr):
    """Whiskers, median ticks and outliers keep one style in every row, so
    they carry no region's color and the gate ignores them."""
    scene = glyph_scene(square_atlas, BOXES)
    hits = [i for i, shape in enumerate(scene.shapes)
            if type(shape) is kind and shape.style is style]
    assert hits
    for i in hits:
        scene = recolored(scene, i, attr)
    check_chart(scene)


def test_panel_less_choropleth_passes(square_atlas):
    scene = render_choropleth(square_atlas, full_table(), "v")
    assert not scene.panels
    check_chart(scene)
