from __future__ import annotations

import pytest

from micromaps.altcharts import (
    ClassBreaks,
    equal_interval_breaks,
    render_barchart_alpha,
    render_choropleth,
)
from micromaps.errors import BadBreaks, MissingColumn
from micromaps.scene import Polygon, Rect, Text
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
