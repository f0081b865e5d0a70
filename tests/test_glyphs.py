from __future__ import annotations

import pytest

from micromaps.colors import SLOT_COLORS
from micromaps.errors import DomainOverflow, SeriesMismatch
from micromaps.glyphs import (
    PanelFrame,
    RowBand,
    compute_box_stats,
    render_arrow,
    render_bar,
    render_boxplot,
    render_dot,
    render_scatter,
    render_timeseries,
)
from micromaps.scale import linear_scale
from micromaps.scene import Circle, Line, Polygon, Polyline, Rect, Text

REGIONS = ("AK", "AL", "AR", "AZ", "CA")


def make_frame(n: int = 5) -> PanelFrame:
    rows = tuple(RowBand(REGIONS[i], 10.0 + 20.0 * i, SLOT_COLORS[i])
                 for i in range(n))
    return PanelFrame(0.0, 0.0, 300.0, 20.0 * n, rows, 20.0)


def x_scale(lo=0.0, hi=100.0):
    return linear_scale((lo, hi), (10.0, 290.0))


def marks_of(shapes, shape_type):
    return [s for s in shapes.marks if isinstance(s, shape_type)]


def test_dot_one_circle_per_region():
    values = {code: 10.0 * i for i, code in enumerate(REGIONS)}
    out = render_dot(values, x_scale(), make_frame())
    circles = marks_of(out, Circle)
    assert len(circles) == 5
    assert [c.style.fill for c in circles] == list(SLOT_COLORS)
    # Row guides, one per region.
    assert len([g for g in out.guides if isinstance(g, Line)]) == 5


def test_dot_missing_value_renders_annotation():
    values = {code: 10.0 for code in REGIONS[:4]}
    values["CA"] = None
    out = render_dot(values, x_scale(), make_frame())
    assert len(marks_of(out, Circle)) == 4
    notes = [t for t in out.labels if isinstance(t, Text)]
    assert len(notes) == 1
    assert notes[0].content == "n/a"
    assert notes[0].tag == "region:CA"


def test_dot_value_outside_domain_is_pipeline_bug():
    values = {"AK": 150.0}
    with pytest.raises(DomainOverflow):
        render_dot(values, x_scale(), make_frame(1))


def test_dot_reference_line():
    out = render_dot({}, x_scale(), make_frame(), reference_line=50.0)
    vertical = [g for g in out.guides
                if isinstance(g, Line) and g.x1 == g.x2]
    assert len(vertical) == 1
    assert vertical[0].x1 == x_scale().map(50.0)


def test_bar_zero_value_is_zero_width():
    scale = x_scale(-50.0, 50.0)
    out = render_bar({"AK": 0.0}, scale, make_frame(1))
    bars = marks_of(out, Rect)
    assert len(bars) == 1
    assert bars[0].width == 0.0


def test_bar_mixed_signs_straddle_zero_line():
    scale = x_scale(-50.0, 50.0)
    out = render_bar({"AK": -30.0, "AL": 40.0}, scale, make_frame(2))
    bars = marks_of(out, Rect)
    zero_x = scale.map(0.0)
    negative, positive = bars
    assert negative.x < zero_x and negative.x + negative.width == zero_x
    assert positive.x == zero_x and positive.x + positive.width > zero_x
    # The zero line itself is a vertical guide.
    assert any(g.x1 == g.x2 == zero_x for g in out.guides if isinstance(g, Line))


def test_arrow_directions():
    scale = x_scale()
    out = render_arrow({"AK": (20.0, 50.0), "AL": (60.0, 30.0)}, scale,
                       make_frame(2))
    heads = marks_of(out, Polygon)
    assert len(heads) == 2
    right, left = heads
    # A rightward arrow's tip is its rightmost point.
    tip_r = max(x for x, _ in right.points)
    assert tip_r == scale.map(50.0)
    tip_l = min(x for x, _ in left.points)
    assert tip_l == scale.map(30.0)


def test_arrow_zero_change_is_diamond():
    out = render_arrow({"AK": (40.0, 40.0)}, x_scale(), make_frame(1))
    diamonds = marks_of(out, Polygon)
    assert len(diamonds) == 1
    assert len(diamonds[0].points) == 4
    assert not marks_of(out, Line)  # no shaft


def test_arrow_marks_stay_in_a_narrow_panel():
    """Heads, shaft ends and diamonds shrink to the room the column has."""
    frame = make_frame(3)._replace(width=4.0)
    scale = linear_scale((0.0, 100.0), (0.28, 3.72))
    out = render_arrow({"AK": (0.0, 100.0), "AL": (100.0, 0.0),
                        "AR": (0.0, 0.0)}, scale, frame)
    assert len(out.marks) == 5
    for mark in out.marks:
        points = mark.points if isinstance(mark, Polygon) else (
            (mark.x1, mark.y1), (mark.x2, mark.y2))
        assert all(0.0 <= x <= 4.0 for x, _ in points), mark


def test_arrow_missing_side_is_annotated():
    out = render_arrow({"AK": (None, 5.0)}, x_scale(), make_frame(1))
    assert not marks_of(out, Polygon)
    assert out.labels[0].content == "n/a"


def test_timeseries_constant_series_is_horizontal():
    periods = ("a", "b", "c")
    xs = linear_scale((0.0, 2.0), (10.0, 290.0))
    ys = linear_scale((0.0, 10.0), (0.0, 1.0)).with_range((90.0, 10.0))
    out = render_timeseries({"AK": (5.0, 5.0, 5.0)}, periods, xs, ys,
                            make_frame(1))
    lines = marks_of(out, Polyline)
    assert len(lines) == 1
    ys_drawn = {y for _, y in lines[0].points}
    assert len(ys_drawn) == 1


def test_timeseries_gap_breaks_line():
    periods = tuple("abcde")
    xs = linear_scale((0.0, 4.0), (10.0, 290.0))
    ys = linear_scale((0.0, 10.0), (0.0, 1.0)).with_range((90.0, 10.0))
    out = render_timeseries({"AK": (1.0, 2.0, None, 3.0, 4.0)}, periods, xs,
                            ys, make_frame(1))
    assert len(marks_of(out, Polyline)) == 2


def test_timeseries_singleton_run_draws_point():
    periods = ("a", "b", "c")
    xs = linear_scale((0.0, 2.0), (10.0, 290.0))
    ys = linear_scale((0.0, 10.0), (0.0, 1.0)).with_range((90.0, 10.0))
    out = render_timeseries({"AK": (None, 5.0, None)}, periods, xs, ys,
                            make_frame(1))
    assert not marks_of(out, Polyline)
    assert len(marks_of(out, Circle)) == 1


def test_timeseries_x_tick_marks_sit_at_the_scale_ticks():
    periods = tuple("abcde")
    xs = linear_scale((0.0, 4.0), (10.0, 290.0))._replace(ticks=(1.0, 3.0))
    ys = linear_scale((0.0, 10.0), (0.0, 1.0)).with_range((90.0, 10.0))
    frame = make_frame(1)
    out = render_timeseries({"AK": (1.0, 2.0, 3.0, 4.0, 5.0)}, periods, xs,
                            ys, frame)
    bottom_ticks = [g.x1 for g in out.guides
                    if isinstance(g, Line) and g.y1 == frame.bottom]
    assert bottom_ticks == [xs.map(1.0), xs.map(3.0)]


@pytest.mark.parametrize("kind", ["timeseries", "scatter"])
def test_frame_ticks_stay_inside_a_panel_smaller_than_a_tick(kind):
    """A 2 x 2 panel is less across than TICK_MARK, so each tick mark is as
    long as the panel is across and ends on its far edge."""
    frame = PanelFrame(10.0, 20.0, 2.0, 2.0, (RowBand("AK", 21.0, "#000"),),
                       2.0)
    xs = linear_scale((0.0, 2.0), (10.2, 11.8))
    ys = linear_scale((0.0, 10.0), (0.0, 1.0)).with_range((21.8, 20.2))
    if kind == "timeseries":
        out = render_timeseries({"AK": (1.0, 2.0, 3.0)}, ("a", "b", "c"), xs,
                                ys, frame)
    else:
        out = render_scatter({"AK": (1.0, 5.0)}, xs, ys, frame, context=())
    ticks = [g for g in out.guides if isinstance(g, Line)]
    assert len(ticks) == len(xs.ticks) + len(ys.ticks)
    for tick in ticks:
        assert all(10.0 <= x <= 12.0 for x in (tick.x1, tick.x2)), tick
        assert all(20.0 <= y <= 22.0 for y in (tick.y1, tick.y2)), tick
    assert {(t.y1, t.y2) for t in ticks[:len(xs.ticks)]} == {(22.0, 20.0)}
    assert {(t.x1, t.x2) for t in ticks[len(xs.ticks):]} == {(10.0, 12.0)}


def test_timeseries_length_mismatch():
    xs = linear_scale((0.0, 2.0), (10.0, 290.0))
    ys = linear_scale((0.0, 10.0), (0.0, 1.0))
    with pytest.raises(SeriesMismatch):
        render_timeseries({"AK": (1.0,)}, ("a", "b"), xs, ys, make_frame(1))


def test_scatter_context_plus_highlight():
    codes = [f"C{i}" for i in range(51)]
    points = {c: (float(i), float(i % 7)) for i, c in enumerate(codes)}
    points.update({c: (float(ord(c[0])), 3.0) for c in REGIONS})
    xs = linear_scale((0.0, 100.0), (10.0, 290.0))
    ys = linear_scale((0.0, 10.0), (0.0, 1.0)).with_range((90.0, 10.0))
    out = render_scatter(points, xs, ys, make_frame(), context=codes)
    circles = marks_of(out, Circle)
    context = [c for c in circles if (c.tag or "").startswith("context:")]
    highlight = [c for c in circles if (c.tag or "").startswith("region:")]
    assert len(context) == 51
    assert len(highlight) == 5
    assert all(h.r > context[0].r for h in highlight)


def test_scatter_coincident_points_are_not_jittered():
    points = {"AK": (5.0, 5.0), "AL": (5.0, 5.0)}
    xs = linear_scale((0.0, 10.0), (10.0, 290.0))
    ys = linear_scale((0.0, 10.0), (0.0, 1.0)).with_range((90.0, 10.0))
    out = render_scatter(points, xs, ys, make_frame(2), context=())
    a, b = marks_of(out, Circle)
    assert (a.cx, a.cy) == (b.cx, b.cy)


def test_boxplot_marks_from_stats():
    scale = x_scale(0.0, 10.0)
    out = render_boxplot({"AK": compute_box_stats(range(1, 10))}, scale,
                         make_frame(1))
    boxes = marks_of(out, Rect)
    assert len(boxes) == 1
    assert boxes[0].x == scale.map(3.0)
    assert boxes[0].x + boxes[0].width == scale.map(7.0)
    median_ticks = [l for l in marks_of(out, Line)
                    if l.x1 == l.x2 == scale.map(5.0)]
    assert len(median_ticks) == 1
    whiskers = [l for l in marks_of(out, Line)
                if l.y1 == l.y2 and l.x1 == scale.map(1.0)]
    assert len(whiskers) == 1
    assert not marks_of(out, Circle)


def test_boxplot_outlier_dots():
    scale = x_scale(0.0, 100.0)
    out = render_boxplot({"AK": compute_box_stats([1, 2, 3, 4, 100])}, scale,
                         make_frame(1))
    dots = marks_of(out, Circle)
    assert len(dots) == 1
    assert dots[0].cx == scale.map(100.0)


def test_boxplot_single_sample_degenerates():
    scale = x_scale(0.0, 10.0)
    out = render_boxplot({"AK": compute_box_stats([5.0])}, scale,
                         make_frame(1))
    box = marks_of(out, Rect)[0]
    assert box.width == 0.0
    assert box.x == scale.map(5.0)


def test_boxplot_missing_samples_annotated():
    out = render_boxplot({"AK": None}, x_scale(), make_frame(2))
    assert not out.marks
    assert [label.content for label in out.labels] == ["n/a", "n/a"]


def test_timeseries_region_absent_from_series_draws_nothing():
    periods = ("a", "b", "c")
    xs = linear_scale((0.0, 2.0), (10.0, 290.0))
    ys = linear_scale((0.0, 10.0), (0.0, 1.0)).with_range((90.0, 10.0))
    frame = make_frame(2)
    out = render_timeseries({"AK": (1.0, 2.0, 3.0)}, periods, xs, ys, frame)
    assert [s.tag for s in out.marks] == ["region:AK"]
    alone = render_timeseries({"AK": (1.0, 2.0, 3.0)}, periods, xs, ys,
                              make_frame(1))
    assert out.marks == alone.marks
