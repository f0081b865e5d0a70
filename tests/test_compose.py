from __future__ import annotations

import ast
import random
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from micromaps.atlas import ALL_CODES, load_atlas
from micromaps.checks import check_chart, check_color_linkage
from micromaps.colors import CUMULATIVE_TINT, DEFAULT_PALETTE
from micromaps.compose import (
    AXIS_LABEL_STYLE,
    SCALE_PAD_F,
    ChartSpec,
    ColumnSpec,
    _column_x_layout,
    compose,
    plan_chart,
)
from micromaps.demos import build_demo
from micromaps.errors import BadExtent, EmptyColumn, SpecError
from micromaps import glyphs
from micromaps.glyphs import (TICK_STYLE, BoxStats, compute_box_stats,
                              render_boxplot, shared_style)
from micromaps.layout import SortSpec, build_layout
from micromaps.scale import linear_scale
from micromaps.scene import (MAX_CANVAS, Circle, Line, PanelFrame, Rect, Text,
                             clamp_scene)
from micromaps.table import (
    SERIES,
    Column,
    RegionTable,
    bind_series,
    column_extent,
    parse_table,
)

import test_glyph_pins as glyph_pins
from conftest import (
    check_panel_grid,
    check_shared_scales,
    full_table,
    make_table,
    panels_by_column,
    square_atlas_document,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "micromaps"


def minimal_spec(**overrides) -> ChartSpec:
    fields = dict(
        title="Test chart",
        sort=SortSpec("v"),
        columns=(
            ColumnSpec("map"),
            ColumnSpec("legend", header=("States",)),
            ColumnSpec("dot", header=("Value",), bindings={"value": "v"}),
        ),
    )
    fields.update(overrides)
    return ChartSpec(**fields)


@pytest.fixture
def scene51(square_atlas, table51):
    return compose(minimal_spec(), table51, square_atlas)


def test_minimal_chart_panel_grid(scene51):
    assert check_panel_grid(scene51) == 11
    grid = panels_by_column(scene51)
    assert len(grid) == 3
    kinds = {panels[0].kind for panels in grid.values()}
    assert kinds == {"map", "legend", "dot"}


def test_exactly_one_median_band_per_column(scene51, table51):
    plan = plan_chart(minimal_spec(), table51)
    assert plan.layout.plan.median_group_index == 5
    assert [band.group_index for band in plan.bands if band.is_median] == [5]
    for panels in panels_by_column(scene51).values():
        assert [p.group_index for p in panels].count(5) == 1


def test_median_separators_present(scene51, table51):
    (median,) = [b for b in plan_chart(minimal_spec(), table51).bands
                 if b.is_median]
    band_top = median.y
    band_bottom = median.y + median.height
    horizontals = [s for s in scene51.shapes
                   if isinstance(s, Line) and s.y1 == s.y2]
    above = [l for l in horizontals if band_top - 6 < l.y1 < band_top]
    below = [l for l in horizontals if band_bottom < l.y1 < band_bottom + 6]
    assert above and below


def test_row_alignment_across_columns(scene51):
    rows_by_region: dict[str, set[float]] = {}
    for panel in scene51.panels:
        for row in panel.frame.rows:
            rows_by_region.setdefault(row.region, set()).add(row.y)
    assert len(rows_by_region) == 51
    for code, ys in rows_by_region.items():
        assert max(ys) - min(ys) <= 0.5, code


def test_shared_scales_and_linkage(scene51, table51):
    assert check_shared_scales(scene51, plan_chart(minimal_spec(),
                                                   table51)) == 1
    linked = check_color_linkage(scene51)
    assert len(linked) == 51
    layout = build_layout(table51, SortSpec("v"))
    for gi, group in enumerate(layout.groups):
        for k, code in enumerate(group):
            assert linked[code] == (
                DEFAULT_PALETTE.median if gi == layout.plan.median_group_index
                else DEFAULT_PALETTE.slots[k]), code


def test_compose_is_deterministic(square_atlas, table51):
    a = compose(minimal_spec(), table51, square_atlas)
    b = compose(minimal_spec(), table51, square_atlas)
    assert a == b


def test_unranked_regions_get_trailing_panel(square_atlas, table51):
    values = {code: (None if code in ("DC", "WY", "VT") else float(i))
              for i, code in enumerate(sorted(table51.rows))}
    scene = compose(minimal_spec(), make_table(values), square_atlas)
    assert check_panel_grid(scene) == 11  # 48 ranked -> 10 groups + no-data
    trailing = [p for p in scene.panels if p.group_index == -1]
    assert len(trailing) == 3
    assert {row.region for row in trailing[0].frame.rows} == {"DC", "VT", "WY"}
    linked = check_color_linkage(scene)
    assert linked["DC"] == DEFAULT_PALETTE.no_data


def test_median_region_is_black(scene51, table51):
    layout = build_layout(table51, SortSpec("v"))
    median_code = layout.ranked[25]
    assert layout.groups[layout.plan.median_group_index] == (median_code,)
    linked = check_color_linkage(scene51)
    assert linked[median_code] == DEFAULT_PALETTE.median


def test_title_and_headers_present(scene51):
    texts = [s.content for s in scene51.shapes if isinstance(s, Text)]
    assert "Test chart" in texts
    assert "States" in texts
    assert "Value" in texts


def test_legend_abbrev_option(square_atlas, table51):
    spec = minimal_spec(columns=(
        ColumnSpec("map"),
        ColumnSpec("legend", options={"name_style": "abbrev"}),
        ColumnSpec("dot", bindings={"value": "v"}),
    ))
    scene = compose(spec, table51, square_atlas)
    texts = {s.content for s in scene.shapes if isinstance(s, Text)}
    assert "DC" in texts
    assert "District of Columbia" not in texts


def test_legend_full_names_by_default(scene51):
    texts = {s.content for s in scene51.shapes if isinstance(s, Text)}
    assert "District of Columbia" in texts
    assert "Wyoming" in texts


def test_timeseries_column_composition(square_atlas):
    table = parse_table(
        "state,a,b,c,x\n" + "\n".join(
            f"{code},{i},{i + 1},{i + 2},{i % 7}"
            for i, code in enumerate(sorted(full_table().rows))),
        "state")
    table = bind_series(table, ["a", "b", "c"], "s")
    spec = ChartSpec(
        title="ts",
        sort=SortSpec("s:c"),  # a shown series period must not warn
        columns=(
            ColumnSpec("map"),
            ColumnSpec("legend"),
            ColumnSpec("timeseries", bindings={"series": "s"}),
        ),
    )
    scene = compose(spec, table, square_atlas)
    ts_panels = [p for p in scene.panels if p.kind == "timeseries"]
    assert len(ts_panels) == 11
    plan = plan_chart(spec, table)
    assert plan.columns[2].x_scale.ticks == (0.0, 1.0, 2.0)  # periods
    assert plan.columns[2].y_base.domain == (0.0, 52.0)
    assert check_shared_scales(scene, plan) == 1
    check_color_linkage(scene)


# --- spec validation ---------------------------------------------------------

def test_row_styles_are_kept_once_whatever_the_canvas(default_atlas,
                                                      acs_table):
    """The legend's label style follows the row height, so it is made per
    panel; the kept row styles do not grow with the canvas height."""
    spec = build_demo("acs-dot")[0]
    compose(spec, acs_table, default_atlas)
    kept = shared_style.cache_info().currsize
    for i in range(20):
        compose(spec._replace(height=600.0 + 5.5 * i), acs_table,
                default_atlas)
    assert shared_style.cache_info().currsize == kept


def test_spec_requires_map_column(table51):
    with pytest.raises(SpecError) as err:
        minimal_spec(columns=(
            ColumnSpec("legend"), ColumnSpec("dot", bindings={"value": "v"})))
    assert "map" in str(err.value)


@pytest.mark.parametrize("glyphs, message", [
    (0, "columns: chart needs at least one column"),
    (57, "columns: canvas too narrow for the column count"),
])
def test_spec_rejects_column_counts(glyphs, message):
    columns = (ColumnSpec("map"), ColumnSpec("legend")) if glyphs else ()
    columns += (ColumnSpec("dot", bindings={"value": "v"}),) * glyphs
    with pytest.raises(SpecError) as err:
        minimal_spec(columns=columns)
    assert str(err.value) == message


def test_spec_rejects_two_legends():
    with pytest.raises(SpecError):
        minimal_spec(columns=(
            ColumnSpec("map"), ColumnSpec("legend"), ColumnSpec("legend")))


def test_spec_rejects_unknown_kind():
    with pytest.raises(SpecError) as err:
        minimal_spec(columns=(
            ColumnSpec("map"), ColumnSpec("legend"), ColumnSpec("pie")))
    assert err.value.path == "columns[2]"


def test_spec_rejects_missing_binding():
    with pytest.raises(SpecError) as err:
        minimal_spec(columns=(
            ColumnSpec("map"), ColumnSpec("legend"), ColumnSpec("dot")))
    assert err.value.path == "columns[2].bindings"


def test_spec_rejects_unknown_binding_key():
    with pytest.raises(SpecError):
        minimal_spec(columns=(
            ColumnSpec("map"), ColumnSpec("legend"),
            ColumnSpec("dot", bindings={"value": "v", "extra": "v"})))


def test_spec_path_points_at_bad_reference(square_atlas, table51):
    spec = minimal_spec(columns=(
        ColumnSpec("map"), ColumnSpec("legend"),
        ColumnSpec("dot", bindings={"value": "nope"})))
    with pytest.raises(SpecError) as err:
        compose(spec, table51, square_atlas)
    assert err.value.path == "columns[2].bindings.value"


def test_spec_rejects_whole_series_for_dot(square_atlas):
    table = bind_series(
        parse_table("state,a,b\nUT,1,2\nID,3,4\n", "state"), ["a", "b"], "s")
    spec = ChartSpec(
        title="", sort=SortSpec("s:a"),
        columns=(ColumnSpec("map"), ColumnSpec("legend"),
                 ColumnSpec("dot", bindings={"value": "s"})))
    with pytest.raises(SpecError) as err:
        compose(spec, table, square_atlas)
    assert "series" in str(err.value)


def test_spec_rejects_scalar_for_boxplot(square_atlas, table51):
    spec = minimal_spec(columns=(
        ColumnSpec("map"), ColumnSpec("legend"),
        ColumnSpec("boxplot", bindings={"samples": "v"})))
    with pytest.raises(SpecError) as err:
        compose(spec, table51, square_atlas)
    assert str(err.value) == ("columns[2].bindings.samples: "
                              "'v' must name a series column")


def test_spec_warns_when_sort_column_not_shown(square_atlas, table51):
    extended = parse_table(
        "state,v,w\n" + "\n".join(f"{c},{i},{i}" for i, c in
                                  enumerate(sorted(table51.rows))), "state")
    spec = minimal_spec(sort=SortSpec("w"))
    with pytest.warns(UserWarning) as record:
        compose(spec, extended, square_atlas)
    # The warning points at compose's caller, not at the package.
    assert [(str(w.message), w.filename) for w in record] == [
        ("sort column 'w' is not shown by any glyph column", __file__)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = plan_chart(spec, extended)
    assert plan.warnings == (str(record[0].message),)


def test_spec_bad_group_size():
    with pytest.raises(SpecError):
        minimal_spec(group_size=0)


def test_spec_group_size_beyond_palette_slots(square_atlas, table51):
    slots = len(DEFAULT_PALETTE.slots)
    compose(minimal_spec(group_size=slots), table51, square_atlas)
    for size in (slots + 1, 13):
        with pytest.raises(SpecError) as info:
            minimal_spec(group_size=size)
        assert info.value.path == "group_size"


def test_spec_bad_map_mode():
    with pytest.raises(SpecError):
        minimal_spec(map_mode="rainbow")


def test_compose_suppresses_no_warnings(square_atlas, table51):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compose(minimal_spec(), table51, square_atlas)


def _with_dot_options(**options) -> ChartSpec:
    columns = minimal_spec().columns
    return minimal_spec(columns=columns[:2] + (
        ColumnSpec("dot", header=("Value",), bindings={"value": "v"},
                   options=options),))


@pytest.mark.parametrize("weight", [-1, 0, float("nan"), float("inf"), "abc",
                                    True])
def test_spec_rejects_bad_weight(weight):
    with pytest.raises(SpecError) as info:
        _with_dot_options(weight=weight)
    assert info.value.path == "columns[2].options.weight"


def test_spec_rejects_non_finite_reference_line():
    with pytest.raises(SpecError) as info:
        _with_dot_options(reference_line=float("nan"))
    assert info.value.path == "columns[2].options.reference_line"


def _dot_scale(spec, table):
    return plan_chart(spec, table).columns[2].x_scale


def test_reference_line_outside_data_widens_dot_scale(square_atlas, table51):
    lo, hi = 200 - 3 * 50, 200  # table51's values
    spec = _with_dot_options(reference_line=-100)
    domain = _dot_scale(spec, table51).domain
    assert domain[0] <= -100 and domain[1] >= hi
    scene = compose(spec, table51, square_atlas)
    assert check_shared_scales(scene, plan_chart(spec, table51)) == 1
    high = _dot_scale(_with_dot_options(reference_line=1e4), table51).domain
    assert high[0] <= lo and high[1] >= 1e4


def test_reference_line_inside_data_keeps_scale(table51):
    plain = _dot_scale(minimal_spec(), table51)
    inside = _dot_scale(_with_dot_options(reference_line=100), table51)
    assert (inside.domain, inside.ticks) == (plain.domain, plain.ticks)



BOX_SPEC = ChartSpec("", SortSpec("v"), (
    ColumnSpec("map"), ColumnSpec("legend"),
    ColumnSpec("boxplot", bindings={"samples": "s"})))
BOX_PATH = "columns[2].bindings.samples"
_SAMPLE = st.one_of(st.none(), st.sampled_from((0.0, -0.0)),
                    st.floats(-1e6, 1e6, allow_nan=False))
_REGION = st.one_of(st.just((None, None, None)),
                    st.tuples(_SAMPLE, _SAMPLE, _SAMPLE))


def _reference_box_scale(table: RegionTable):
    """The box column's x scale as column_extent sizes it, or the error
    compose should raise."""
    (_, x, width), = [c for c in _column_x_layout(BOX_SPEC)
                      if c[0].kind == "boxplot"]
    pad = width * SCALE_PAD_F
    try:
        return linear_scale(column_extent(table, "s"),
                            (x + pad, x + width - pad), target_ticks=5)
    except (EmptyColumn, BadExtent) as exc:
        return f"{BOX_PATH}: {exc}"


# Signed zeros: column_extent keeps the first of equal values, so the max
# is -0.0 here, and a domain ending in -0.0 is kept as it is. In the last
# example one region's sorted samples end in -0.0, its whisker_hi, but the
# first maximal cell is 0.0.
@example([(-5.0, -0.0, None), (0.0, None, None)])
@example([(-5.0, None, None), (0.0, -0.0, None)])
@example([(0.0, -5.0, None), (None, -0.0, None)])
@example([(None, None, None), (None, None, None)])
@settings(max_examples=60)
@given(st.lists(_REGION, min_size=1, max_size=12))
def test_box_column_scale_matches_column_extent(square_atlas, series):
    rows = {code: {"v": float(i), "s": cells}
            for i, (code, cells) in enumerate(zip(ALL_CODES, series))}
    table = RegionTable((Column("v"), Column("s", SERIES, ("a", "b", "c"))),
                        rows)
    expected = _reference_box_scale(table)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            scene = compose(BOX_SPEC, table, square_atlas)
        except SpecError as exc:
            assert (exc.path, str(exc)) == (BOX_PATH, expected)
            return
    plan = plan_chart(BOX_SPEC, table)
    scale = plan.columns[2].x_scale
    assert repr((scale.domain, scale.ticks)) == repr((expected.domain,
                                                      expected.ticks))
    check_shared_scales(scene, plan)


def _glyph_heavy_like() -> tuple[ChartSpec, RegionTable]:
    """Every glyph kind but bar over 51 regions, 40 box samples each with
    gaps, three regions with no sample at all."""
    rng = random.Random(5)
    periods = tuple(f"s{i}" for i in range(40))
    rows = {}
    for i, code in enumerate(ALL_CODES):
        cells = tuple(None if i < 3 or rng.random() < 0.1 else
                      round(rng.gauss(50.0, 20.0), 1) for _ in periods)
        rows[code] = {"value": float(i), "start": rng.uniform(0, 9),
                      "end": rng.uniform(0, 9), "x": rng.uniform(0, 9),
                      "y": rng.uniform(0, 9), "samples": cells,
                      "trend": cells[:12]}
    table = RegionTable((*map(Column, ("value", "start", "end", "x", "y")),
                         Column("samples", SERIES, periods),
                         Column("trend", SERIES, periods[:12])), rows)
    return ChartSpec("glyphs", SortSpec("value"), (
        ColumnSpec("map"), ColumnSpec("legend"),
        ColumnSpec("dot", bindings={"value": "value"}),
        ColumnSpec("arrow", bindings={"start": "start", "end": "end"}),
        ColumnSpec("timeseries", bindings={"series": "trend"}),
        ColumnSpec("boxplot", bindings={"samples": "samples"}),
        ColumnSpec("scatter", bindings={"x": "x", "y": "y"}))), table


@pytest.mark.parametrize("chart", ["ers-boxscatter", "glyph-heavy-like"])
def test_box_column_reads_its_samples_once(monkeypatch, default_atlas, chart):
    """The plan computes each region's stats once and takes the scale from
    them; the panels draw those stats."""
    spec, table = (_glyph_heavy_like() if chart == "glyph-heavy-like"
                   else build_demo(chart))
    at = next(i for i, c in enumerate(spec.columns) if c.kind == "boxplot")
    ref = spec.columns[at].bindings["samples"]
    compose_module = sys.modules["micromaps.compose"]
    stats_calls, extent_refs, drawn = [], [], []

    def compute(samples):
        stats_calls.append(samples)
        return compute_box_stats(samples)

    def extent(table, column):
        extent_refs.append(column)
        return column_extent(table, column)

    def render(boxes, *args):
        drawn.append(boxes)
        return render_boxplot(boxes, *args)

    monkeypatch.setattr(glyphs, "compute_box_stats", compute)
    monkeypatch.setattr(compose_module, "column_extent", extent)
    monkeypatch.setattr(compose_module, "render_boxplot", render)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plan = plan_chart(spec, table)
        sampled = [code for code, row in table.rows.items()
                   if any(cell is not None for cell in row[ref])]
        assert len(stats_calls) == len(sampled) > 0
        assert ref not in extent_refs
        assert plan.columns[at].data == {
            code: compute_box_stats(row[ref]) if code in sampled else None
            for code, row in table.rows.items()}
        stats_calls.clear()
        compose(spec, table, default_atlas)
    assert len(stats_calls) == len(sampled)
    assert len(drawn) == len(plan.bands)
    assert all(type(stats) in (BoxStats, type(None))
               for boxes in drawn for stats in boxes.values())


@pytest.fixture(scope="module")
def demos():
    """The five bundled demos' specs and tables."""
    return [build_demo(name) for name in ("acs-dot", "acs-timeseries",
                                          "qcew-arrows", "ers-snap",
                                          "ers-boxscatter")]


def _points(shape):
    if isinstance(shape, Rect):
        return ((shape.x, shape.y),
                (shape.x + shape.width, shape.y + shape.height))
    if isinstance(shape, Circle):
        return ((shape.cx, shape.cy),)
    if isinstance(shape, Line):
        return ((shape.x1, shape.y1), (shape.x2, shape.y2))
    return shape.points  # Polyline, Polygon


# Every width the canvas rule accepts.
_WIDTH = st.floats(0.0, MAX_CANVAS, exclude_min=True)
_HEIGHT = st.floats(1.0, MAX_CANVAS)


@pytest.fixture(scope="module")
def charts(default_atlas, demos):
    """(spec, table, atlas) of the five demos and of the glyph-pin chart,
    which draws "n/a" rows, unranked regions, a diamond and box outliers,
    on the square atlas it is pinned on."""
    square = load_atlas(square_atlas_document())
    return ([(spec, table, default_atlas) for spec, table in demos]
            + [(glyph_pins.SPEC, glyph_pins.synthetic_table(), square)])


def _region_labels(scene, plan) -> list[tuple[int, Text]]:
    """Each Text tagged ``region:XX``, with the index of the column that
    drew it. A legend name is known by its style. Labels are painted a
    column at a time, each glyph column's axis labels after its panels',
    so an "n/a" note is drawn by the column under the next axis label."""
    legend = next(c.index for c in plan.columns if c.spec.kind == "legend")
    out, column = [], None
    for shape in reversed(scene.shapes):
        if type(shape) is not Text:
            continue
        if shape.style == AXIS_LABEL_STYLE:
            column = next(c.index for c in plan.columns
                          if c.x_scale is not None
                          and c.x <= shape.x <= c.x + c.width)
        elif (shape.tag or "").startswith("region:"):
            out.append((column if shape.style == glyphs.NA_STYLE else legend,
                        shape))
    return out


# Sizes where arrow heads, or scatter points under a vertical pad larger
# than half the band, used to leave their panels; at widths of 30 and 60,
# legend swatches and arrow heads longer than their column's room did.
@example(30.0, 1300.0)
@example(60.0, 1300.0)
@example(1000.0, 150.0)
@example(5000.0, 300.0)
@example(1000.0, 20.0)
# Sizes where the clamp moved labels that it no longer draws: legend names
# past a narrow column's right edge (up to 9.25 wide), and "n/a" notes
# past a narrow column (up to 18.25) or below a short row (up to 20 high).
@example(9.25, 1300.0)
@example(18.25, 700.0)
@example(900.0, 20.0)
@settings(max_examples=20)
@given(_WIDTH, _HEIGHT)
def test_demo_marks_stay_inside_their_panels(charts, width, height):
    """Every linked mark, and every legend name and "n/a" note, lies in
    the panel of its column that holds its region, so the scene has nothing
    for the clamp to move."""
    for spec, table, atlas in charts:
        try:
            spec = spec._replace(width=width, height=height)
        except SpecError:  # a column of no width: not a size it accepts
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scene = compose(spec, table, atlas)
            plan = plan_chart(spec, table)
        assert clamp_scene(scene) is scene, spec.title
        eps = 1e-9 * max(width, height)  # rounding, far below 0.01
        inside = {}  # (column, region) -> the box of its panel's frame
        for panel in scene.panels:
            frame = panel.frame
            box = (frame.x - eps, frame.y - eps, frame.right + eps,
                   frame.bottom + eps)
            inside.update(((panel.column_index, row.region), box)
                          for row in frame.rows)
            left, top, right, bottom = box
            for i in panel.marks:
                for x, y in _points(scene.shapes[i]):
                    assert left <= x <= right and top <= y <= bottom, (
                        spec.title, panel.kind, panel.group_index,
                        scene.shapes[i])
        labels = _region_labels(scene, plan)
        assert labels, spec.title
        for column, label in labels:
            left, top, right, bottom = inside[column, label.tag[7:]]
            assert left <= label.x <= right and top <= label.y <= bottom, (
                spec.title, column, label)


# Below a height of 546.875 the 17.5 units that the bottom labels need
# (gap, tick, offsets and clearance) exceed the 0.032 * height margin: the
# labels used to sit at y = 501 at height 500, and on their ticks at 200.
@pytest.mark.parametrize("height", [500.0, 200.0])
def test_demo_axis_labels_stay_inside_the_canvas_beyond_their_ticks(
        default_atlas, demos, height):
    for spec, table in demos:
        spec = spec._replace(width=1000.0, height=height)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scene = compose(spec, table, default_atlas)
        ticks: dict[float, list[Line]] = {}
        for shape in scene.shapes:
            if type(shape) is Line and shape.style == TICK_STYLE:
                ticks.setdefault(shape.x1, []).append(shape)
        labels = [s for s in scene.shapes
                  if type(s) is Text and s.style == AXIS_LABEL_STYLE]
        assert labels
        for label in labels:
            assert 0.0 < label.y < height, (spec.title, label)
            # Its tick is the nearer of the two at its x, above or below.
            tick = min(ticks[label.x], key=lambda t: abs(t.y2 - label.y))
            if tick.y2 < tick.y1:  # above the panels: the label is higher
                assert label.y < tick.y2, (spec.title, label, tick)
            else:
                assert label.y > tick.y2, (spec.title, label, tick)


def _frame_ticks(scene, frame) -> list[Line]:
    """The tick marks a time-series or scatter panel draws on its frame:
    up from its bottom edge, or right from its left edge."""
    return [s for s in scene.shapes if type(s) is Line and s.style is TICK_STYLE
            and ((s.x1 == s.x2 and s.y1 == frame.bottom
                  and frame.x <= s.x1 <= frame.right)
                 or (s.y1 == s.y2 and s.x1 == frame.x
                     and frame.y <= s.y1 <= frame.bottom))]


# Below a height of 118 a demo panel is less high than TICK_MARK (3 units);
# frame ticks then left their panels, and at height 1 the canvas too, where
# the clamp pinned 55-77 of them per demo to its top edge.
@pytest.mark.parametrize("height", [1.0, 20.0, 117.0])
def test_demos_on_short_canvases_need_no_clamp(default_atlas, demos, height):
    """Every shape of every demo lies on the canvas, so the clamp has
    nothing to move, and every frame tick lies inside its panel."""
    for spec, table in demos:
        spec = spec._replace(width=1000.0, height=height)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scene = compose(spec, table, default_atlas)
        assert clamp_scene(scene) is scene, spec.title
        for panel in scene.panels:
            if panel.kind not in ("timeseries", "scatter"):
                continue
            frame = panel.frame
            ticks = _frame_ticks(scene, frame)
            assert ticks, (spec.title, panel.kind, panel.group_index)
            for tick in ticks:
                assert frame.x <= min(tick.x1, tick.x2) <= frame.right
                assert frame.x <= max(tick.x1, tick.x2) <= frame.right
                assert frame.y <= min(tick.y1, tick.y2) <= frame.bottom
                assert frame.y <= max(tick.y1, tick.y2) <= frame.bottom


def test_compose_calls_no_clamp(charts, monkeypatch):
    """The composer keeps every shape on its canvas, so no module calls
    clamp_scene: the demos and the glyph-pin chart draw with it raising."""
    def clamp(scene):
        raise AssertionError("clamp_scene was called")

    monkeypatch.setattr(sys.modules["micromaps.compose"], "clamp_scene", clamp)
    for spec, table, atlas in charts:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            check_chart(compose(spec, table, atlas))
    calls = [(path.name, node.lineno) for path in SRC.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "clamp_scene"]
    assert calls == []


def test_demo_plan_is_what_was_drawn(default_atlas, demos):
    tinted = []  # per demo, the regions its maps tint
    for spec, table in demos:
        tinted.append(set())
        plan = plan_chart(spec, table)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scene = compose(spec, table, default_atlas)
        bands = {band.group_index: band for band in plan.bands}
        assert len(scene.panels) == len(plan.columns) * len(plan.bands)
        for panel in scene.panels:
            column = plan.columns[panel.column_index]
            band = bands[panel.group_index]
            assert panel.frame == PanelFrame(column.x, band.y, column.width,
                                             band.height, band.rows,
                                             plan.row_height)
            assert panel.kind == column.spec.kind
            if panel.kind == "map":
                tint = {scene.shapes[i].tag.removeprefix("region:")
                        for i in panel.marks
                        if scene.shapes[i].style.fill == CUMULATIVE_TINT}
                assert tint == set(band.tinted)
                tinted[-1].update(tint)
    # acs-dot draws group_only maps; acs-timeseries draws cumulative ones.
    assert not tinted[0] and tinted[1]
