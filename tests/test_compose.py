from __future__ import annotations

import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from micromaps.checks import check_color_linkage
from micromaps.colors import DEFAULT_PALETTE
from micromaps.compose import (
    MAX_CANVAS,
    SCALE_PAD_F,
    ChartSpec,
    ColumnSpec,
    compose,
    validate_spec,
)
from micromaps.demos import build_demo
from micromaps.errors import BadExtent, EmptyColumn, SpecError
from micromaps.layout import MEDIAN_SLOT, SortSpec, build_layout
from micromaps.regions import ALL_CODES
from micromaps.scale import linear_scale
from micromaps.scene import Circle, Line, Rect, Text
from micromaps.table import (
    SERIES,
    Column,
    RegionTable,
    bind_series,
    column_extent,
    parse_table,
)

from conftest import (
    check_panel_grid,
    check_shared_scales,
    full_table,
    make_table,
    panels_by_column,
)


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


def test_exactly_one_median_band_per_column(scene51):
    for panels in panels_by_column(scene51).values():
        medians = [p for p in panels if p.is_median]
        assert len(medians) == 1
        assert medians[0].group_index == 5


def test_median_separators_present(scene51):
    medians = [p for p in scene51.panels if p.is_median]
    band_top = medians[0].y
    band_bottom = medians[0].y + medians[0].height
    horizontals = [s for s in scene51.shapes
                   if isinstance(s, Line) and s.y1 == s.y2]
    above = [l for l in horizontals if band_top - 6 < l.y1 < band_top]
    below = [l for l in horizontals if band_bottom < l.y1 < band_bottom + 6]
    assert above and below


def test_row_alignment_across_columns(scene51):
    rows_by_region: dict[str, set[float]] = {}
    for panel in scene51.panels:
        for code, y in panel.rows:
            rows_by_region.setdefault(code, set()).add(y)
    assert len(rows_by_region) == 51
    for code, ys in rows_by_region.items():
        assert max(ys) - min(ys) <= 0.5, code


def test_shared_scales_and_linkage(scene51, table51):
    check_shared_scales(scene51)
    linked = check_color_linkage(scene51)
    assert len(linked) == 51
    layout = build_layout(table51, SortSpec("v"))
    for code, color in linked.items():
        assert color == DEFAULT_PALETTE.for_slot(layout.slot_of[code])


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
    assert {code for code, _ in trailing[0].rows} == {"DC", "VT", "WY"}
    linked = check_color_linkage(scene)
    assert linked["DC"] == DEFAULT_PALETTE.no_data


def test_median_region_is_black(scene51, table51):
    layout = build_layout(table51, SortSpec("v"))
    median_code = layout.ranked[25]
    assert layout.slot_of[median_code] == MEDIAN_SLOT
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
    assert len({p.y_ticks for p in ts_panels}) == 1
    assert len({p.x_ticks for p in ts_panels}) == 1
    check_color_linkage(scene)


# --- spec validation ---------------------------------------------------------

def test_spec_requires_map_column(table51):
    spec = minimal_spec(columns=(
        ColumnSpec("legend"), ColumnSpec("dot", bindings={"value": "v"})))
    with pytest.raises(SpecError) as err:
        validate_spec(spec)
    assert "map" in str(err.value)


@pytest.mark.parametrize("glyphs, message", [
    (0, "columns: chart needs at least one column"),
    (57, "columns: canvas too narrow for the column count"),
])
def test_spec_rejects_column_counts(glyphs, message):
    columns = (ColumnSpec("map"), ColumnSpec("legend")) if glyphs else ()
    columns += (ColumnSpec("dot", bindings={"value": "v"}),) * glyphs
    with pytest.raises(SpecError) as err:
        validate_spec(minimal_spec(columns=columns))
    assert str(err.value) == message


def test_spec_rejects_two_legends():
    spec = minimal_spec(columns=(
        ColumnSpec("map"), ColumnSpec("legend"), ColumnSpec("legend")))
    with pytest.raises(SpecError):
        validate_spec(spec)


def test_spec_rejects_unknown_kind():
    spec = minimal_spec(columns=(
        ColumnSpec("map"), ColumnSpec("legend"), ColumnSpec("pie")))
    with pytest.raises(SpecError) as err:
        validate_spec(spec)
    assert err.value.path == "columns[2]"


def test_spec_rejects_missing_binding():
    spec = minimal_spec(columns=(
        ColumnSpec("map"), ColumnSpec("legend"), ColumnSpec("dot")))
    with pytest.raises(SpecError) as err:
        validate_spec(spec)
    assert err.value.path == "columns[2].bindings"


def test_spec_rejects_unknown_binding_key():
    spec = minimal_spec(columns=(
        ColumnSpec("map"), ColumnSpec("legend"),
        ColumnSpec("dot", bindings={"value": "v", "extra": "v"})))
    with pytest.raises(SpecError):
        validate_spec(spec)


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
    with pytest.warns(UserWarning):
        compose(spec, extended, square_atlas)


def test_spec_bad_group_size():
    with pytest.raises(SpecError):
        validate_spec(minimal_spec(group_size=0))


def test_spec_group_size_beyond_palette_slots(square_atlas, table51):
    slots = len(DEFAULT_PALETTE.slots)
    validate_spec(minimal_spec(group_size=slots))
    for size in (slots + 1, 13):
        with pytest.raises(SpecError) as info:
            validate_spec(minimal_spec(group_size=size))
        assert info.value.path == "group_size"
        with pytest.raises(SpecError):
            compose(minimal_spec(group_size=size), table51, square_atlas)


def test_spec_bad_map_mode():
    with pytest.raises(SpecError):
        validate_spec(minimal_spec(map_mode="rainbow"))


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
def test_spec_rejects_bad_weight(square_atlas, table51, weight):
    spec = _with_dot_options(weight=weight)
    with pytest.raises(SpecError) as info:
        validate_spec(spec)
    assert info.value.path == "columns[2].options.weight"
    with pytest.raises(SpecError):
        compose(spec, table51, square_atlas)


def test_spec_rejects_non_finite_reference_line():
    with pytest.raises(SpecError) as info:
        validate_spec(_with_dot_options(reference_line=float("nan")))
    assert info.value.path == "columns[2].options.reference_line"


def _dot_panels(scene):
    return [p for p in scene.panels if p.kind == "dot"]


def test_reference_line_outside_data_widens_dot_scale(square_atlas, table51):
    lo, hi = 200 - 3 * 50, 200  # table51's values
    scene = compose(_with_dot_options(reference_line=-100), table51,
                    square_atlas)
    domain = _dot_panels(scene)[0].x_domain
    assert domain[0] <= -100 and domain[1] >= hi
    check_shared_scales(scene)
    high = compose(_with_dot_options(reference_line=1e4), table51,
                   square_atlas)
    assert _dot_panels(high)[0].x_domain[0] <= lo
    assert _dot_panels(high)[0].x_domain[1] >= 1e4


def test_reference_line_inside_data_keeps_scale(square_atlas, table51):
    plain = compose(minimal_spec(), table51, square_atlas)
    inside = compose(_with_dot_options(reference_line=100), table51,
                     square_atlas)
    assert _dot_panels(inside)[0].x_domain == _dot_panels(plain)[0].x_domain
    assert _dot_panels(inside)[0].x_ticks == _dot_panels(plain)[0].x_ticks



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
    (_, x, width), = [c for c in validate_spec(BOX_SPEC)
                      if c[0].kind == "boxplot"]
    pad = width * SCALE_PAD_F
    try:
        return linear_scale(column_extent(table, "s"),
                            (x + pad, x + width - pad), target_ticks=5)
    except (EmptyColumn, BadExtent) as exc:
        return f"{BOX_PATH}: {exc}"


# Signed zeros: column_extent keeps the first of equal values, so the max
# is -0.0 here, and a domain ending in -0.0 is kept as it is.
@example([(-5.0, -0.0, None), (0.0, None, None)])
@example([(0.0, -5.0, None), (None, -0.0, None)])
@example([(None, None, None), (None, None, None)])
@settings(max_examples=60, deadline=None)
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
    axes = {repr((p.x_domain, p.x_ticks))
            for p in scene.panels if p.column_index == 2}
    assert axes == {repr((expected.domain, expected.ticks))}


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


# Every width validate_spec accepts.
_WIDTH = st.floats(0.0, MAX_CANVAS, exclude_min=True)
_HEIGHT = st.floats(1.0, MAX_CANVAS)


# Sizes where arrow heads, or scatter points under a vertical pad larger
# than half the band, used to leave their panels; at widths of 30 and 60,
# legend swatches and arrow heads longer than their column's room did.
@example(30.0, 1300.0)
@example(60.0, 1300.0)
@example(1000.0, 150.0)
@example(5000.0, 300.0)
@example(1000.0, 20.0)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_WIDTH, _HEIGHT)
def test_demo_marks_stay_inside_their_panels(default_atlas, demos, width,
                                            height):
    for spec, table in demos:
        spec = spec._replace(width=width, height=height)
        try:
            validate_spec(spec)
        except SpecError:  # a column of no width: not a size it accepts
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scene = compose(spec, table, default_atlas)
        eps = 1e-9 * max(width, height)  # rounding, far below 0.01
        for panel in scene.panels:
            left, top = panel.x - eps, panel.y - eps
            right = panel.x + panel.width + eps
            bottom = panel.y + panel.height + eps
            for i in panel.marks:
                for x, y in _points(scene.shapes[i]):
                    assert left <= x <= right and top <= y <= bottom, (
                        spec.title, panel.kind, panel.group_index,
                        scene.shapes[i])
