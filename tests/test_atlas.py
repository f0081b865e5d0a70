from __future__ import annotations

import copy
import json
import math
import pickle
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from micromaps.atlas import Atlas, load_atlas, render_minimap
from micromaps.checks import check_chart
from micromaps.colors import CONTEXT_FILL, CUMULATIVE_TINT, DEFAULT_PALETTE
from micromaps.compose import (
    CUMULATIVE,
    GROUP_ONLY,
    NO_DATA_PANEL,
    ChartSpec,
    ColumnSpec,
    compose,
    plan_chart,
)
from micromaps.errors import (
    AtlasParse,
    IncompleteAtlas,
    MicromapError,
    UnknownRegion,
)
from micromaps.glyphs import PanelFrame, RowBand
from micromaps.layout import GroupPlan, SortSpec
from micromaps.regions import ALL_CODES, region_lookup
from micromaps.svg import emit_svg

from conftest import full_table, make_table, square_atlas_document


def frame(x=0.0, y=0.0, w=150.0, h=100.0, rows=()) -> PanelFrame:
    return PanelFrame(x, y, w, h, rows, 20.0)


def plan(table, mode: str, group_size: int = 5):
    """The plan of a map-and-legend chart sorted by ``v``."""
    spec = ChartSpec("t", SortSpec("v"),
                     (ColumnSpec("map"), ColumnSpec("legend")),
                     group_size=group_size, map_mode=mode)
    return plan_chart(spec, table)


def tints(chart_plan) -> dict[int, tuple[str, ...]]:
    return {band.group_index: band.tinted for band in chart_plan.bands}


def drop_feature(doc: str, code: str) -> str:
    data = json.loads(doc)
    data["features"] = [f for f in data["features"]
                        if f["properties"]["code"] != code]
    return json.dumps(data)


# --- region lookup -----------------------------------------------------------

def test_registry_fields_are_unique():
    from micromaps.regions import _REGISTRY
    assert len(_REGISTRY) == 51
    for field in ("code", "name", "fips"):
        values = [getattr(m, field) for m in _REGISTRY]
        assert len(set(values)) == 51


def test_lookup_code_case_insensitive():
    meta = region_lookup("dc")
    assert (meta.code, meta.name, meta.fips) == ("DC", "District of Columbia", "11")


def test_lookup_full_name():
    assert region_lookup("Idaho").code == "ID"
    assert region_lookup("district of columbia").code == "DC"
    assert region_lookup("Washington, D.C.").code == "DC"


def test_lookup_fips():
    assert region_lookup("49").code == "UT"


def test_lookup_unknown():
    for key in ("Puerto Rico", "PR", "ZZ", "", "Canada"):
        with pytest.raises(UnknownRegion):
            region_lookup(key)


# --- atlas loading -----------------------------------------------------------

def test_bundled_atlas_validates(default_atlas):
    assert sorted(default_atlas.regions) == list(ALL_CODES)
    xmin, ymin, xmax, ymax = default_atlas.bounds
    for rings in default_atlas.regions.values():
        assert len(rings) >= 1
        for ring in rings:
            assert ring[0] == ring[-1]
            assert len(set(ring)) >= 3
            for x, y in ring:
                assert xmin <= x <= xmax
                assert ymin <= y <= ymax


def test_square_atlas_bounds(square_atlas):
    # 8 columns x 10-unit grid of 8-unit squares, 51 squares in 7 rows.
    assert square_atlas.bounds == (0.0, 0.0, 78.0, 68.0)
    assert sorted(square_atlas.regions) == list(ALL_CODES)


def test_missing_region_is_incomplete():
    with pytest.raises(IncompleteAtlas) as err:
        load_atlas(drop_feature(square_atlas_document(), "HI"))
    assert "HI" in str(err.value)


def test_unknown_region_code():
    data = json.loads(square_atlas_document())
    data["features"][0]["properties"]["code"] = "PR"
    with pytest.raises(UnknownRegion):
        load_atlas(json.dumps(data))


def test_malformed_geometry():
    data = json.loads(square_atlas_document())
    data["features"][0]["geometry"]["coordinates"] = [[[0, 0], [1, 1]]]
    with pytest.raises(AtlasParse):
        load_atlas(json.dumps(data))


def test_holes_rejected():
    data = json.loads(square_atlas_document())
    ring = data["features"][0]["geometry"]["coordinates"][0]
    data["features"][0]["geometry"]["coordinates"] = [ring, ring]
    with pytest.raises(AtlasParse):
        load_atlas(json.dumps(data))


def test_bad_json_is_atlas_parse():
    with pytest.raises(AtlasParse):
        load_atlas("{not json")
    with pytest.raises(AtlasParse):
        load_atlas('{"type": "Topology"}')


def _set_geometry(geometry):
    def edit(data):
        data["features"][0]["geometry"] = geometry
    return edit


def _set_ring(ring):
    return _set_geometry({"type": "Polygon", "coordinates": [ring]})


def _set_insets(insets):
    def edit(data):
        data["insets"] = insets
    return edit


def _drop_key(key):
    def edit(data):
        del data[key]
    return edit


def _drop_code(data):
    del data["features"][0]["properties"]["code"]


def _repeat_feature(data):
    data["features"].append(data["features"][0])


def _one_x(data):
    for i, feature in enumerate(data["features"]):
        feature["geometry"] = {"type": "Polygon", "coordinates": [
            [[5, i], [5, i + 1], [5, i + 2], [5, i]]]}


def _tiny_box(data):
    """Every ring inside a 5.1e-311 by 1e-311 box of subnormal floats."""
    for i, feature in enumerate(data["features"]):
        feature["geometry"] = {"type": "Polygon", "coordinates": [
            [[i * 1e-312, 0], [(i + 1) * 1e-312, 0], [i * 1e-312, 1e-311]]]}


def _inset_and(edit, scale):
    def both(data):
        edit(data)
        _set_insets([{"code": "AK", "translate": [0, 0], "scale": scale}])(data)
    return both


MALFORMED = [
    (_drop_key("features"), "missing features array"),
    (_drop_code, "feature without a region code"),
    (_repeat_feature, "AK: repeated feature"),
    (_set_geometry(None), "AK: missing geometry"),
    (_set_geometry({"type": "Point", "coordinates": [0, 0]}),
     "AK: unsupported geometry type 'Point'"),
    (_set_geometry({"type": "MultiPolygon", "coordinates": []}),
     "AK: empty geometry"),
    (_set_geometry({"type": "MultiPolygon", "coordinates": [[]]}),
     "AK: empty polygon"),
    (_set_geometry({"type": "MultiPolygon", "coordinates": 5}),
     "AK: coordinates must be an array"),
    (_set_geometry({"type": "Polygon", "coordinates": [[[0, 0], [1, 0]]]}),
     "AK: ring must be a list of >= 3 points"),
    (_set_ring([[0, 0], [1, 0], ["a", 1], [0, 0]]), "AK: bad point ['a', 1]"),
    (_set_ring([[0, 0], [1, 0], [float("nan"), 1], [0, 0]]),
     "AK: bad point [nan, 1]"),
    (_set_ring([[0, 0], [1, 0], [True, 1], [0, 0]]), "AK: bad point [True, 1]"),
    (_set_ring([[-1e308, 0], [1e308, 0], [0, 1], [-1e308, 0]]),
     "atlas width and height must be finite and positive, got inf and 68"),
    (_one_x, "atlas width and height must be finite and positive, "
             "got 0 and 52"),
    (_tiny_box, "atlas width and height are too small for a 100000 canvas, "
                "got 5.1e-311 and 1e-311"),
    (_set_ring([[0, 0], [1, 0], [0, 0]]),
     "AK: ring has fewer than 3 distinct points"),
    (_inset_and(_set_ring([[0, 0], [1, 0], ["1", 1]]), 2.0),
     "AK: bad point ['1', 1]"),
    (_inset_and(lambda data: None, 1e308), "AK: bad point (inf, 0.0)"),
    (_set_insets({}), "insets must be an array"),
    (_set_insets([1]), "bad inset entry"),
    (_set_insets([{"code": "AK", "scale": 2.0}]),
     "AK: inset needs translate [dx, dy] and scale"),
    (_set_insets([{"code": "AK", "translate": [0, 0], "scale": float("nan")}]),
     "AK: inset translate and scale must be finite"),
    (_set_insets([{"code": "AK", "translate": ["5", True], "scale": "2"}]),
     "AK: inset translate and scale must be numbers, got ['5', True] and '2'"),
]


@pytest.mark.parametrize("edit, message", MALFORMED,
                         ids=[message for _, message in MALFORMED])
def test_malformed_document_is_atlas_parse(edit, message):
    data = json.loads(square_atlas_document())
    assert data["features"][0]["properties"]["code"] == "AK"
    edit(data)
    with pytest.raises(AtlasParse) as err:
        load_atlas(json.dumps(data))
    assert str(err.value) == message


def test_unclosed_rings_are_closed_on_load():
    data = json.loads(square_atlas_document())
    for feature in data["features"]:
        for poly in [feature["geometry"]["coordinates"]]:
            poly[0] = poly[0][:-1]  # strip the closing point
    atlas = load_atlas(json.dumps(data))
    for rings in atlas.regions.values():
        for ring in rings:
            assert ring[0] == ring[-1]


def test_insets_applied_at_load():
    data = json.loads(square_atlas_document())
    data["insets"] = [{"code": "AK", "translate": [100.0, 200.0], "scale": 2.0}]
    atlas = load_atlas(json.dumps(data))
    plain = load_atlas(square_atlas_document())
    expected = tuple((100.0 + 2.0 * x, 200.0 + 2.0 * y)
                     for x, y in plain.regions["AK"][0])
    assert atlas.regions["AK"][0] == expected
    # Bounds include the moved region.
    assert atlas.bounds[2] >= 100.0


def test_inset_for_unknown_region():
    data = json.loads(square_atlas_document())
    data["insets"] = [{"code": "GU", "translate": [0, 0], "scale": 1.0}]
    with pytest.raises(UnknownRegion):
        load_atlas(json.dumps(data))


# --- atlases built in Python -----------------------------------------------

SQUARE = load_atlas(square_atlas_document())
TRIANGLE = [[0, 0], [1, 0], [0, 1]]


def _edited(edits) -> dict:
    """The square atlas's regions with each (code, rings) edit applied; rings
    of None drop the code."""
    regions = dict(SQUARE.regions)
    for code, rings in edits:
        if rings is None:
            regions.pop(code, None)
        else:
            regions[code] = rings
    return regions


ONE_X = [(code, [[[5, i], [5, i + 1], [5, i + 2]]])
         for i, code in enumerate(ALL_CODES)]
# (case, edits, error, message): each is refused when the Atlas is made.
REFUSED = [
    ("zero width", ONE_X, AtlasParse,
     "atlas width and height must be finite and positive, got 0 and 52"),
    ("no TX", [("TX", None)], IncompleteAtlas, "atlas missing regions: TX"),
    ("unknown code", [("PR", [TRIANGLE])], UnknownRegion,
     "atlas rings for unknown region 'PR'"),
    ("NaN point", [("AL", [[[0, 0], [1, 0], [math.nan, 1]]])], AtlasParse,
     "AL: bad point [nan, 1]"),
    ("bool point", [("AL", [[(0, 0), (1, 0), (True, 1)]])], AtlasParse,
     "AL: bad point (True, 1)"),
    ("string point", [("AL", [[[0, 0], [1, 0], ["0", 1]]])], AtlasParse,
     "AL: bad point ['0', 1]"),
    ("empty ring", [("AL", [[]])], AtlasParse,
     "AL: ring must be a list of >= 3 points"),
    ("two-point ring", [("AL", [[[0, 0], [1, 0]]])], AtlasParse,
     "AL: ring must be a list of >= 3 points"),
    ("two distinct points", [("AL", [[[0, 0], [1, 0], [0, 0], [1, 0]]])],
     AtlasParse, "AL: ring has fewer than 3 distinct points"),
    ("no rings", [("AL", [])], AtlasParse, "AL: empty geometry"),
    ("a ring for its rings", [("AL", TRIANGLE)], AtlasParse,
     "AL: ring must be a list of >= 3 points"),
]


@pytest.mark.parametrize("edits, error, message", [r[1:] for r in REFUSED],
                         ids=[r[0] for r in REFUSED])
def test_hand_built_atlas_is_refused_when_made(edits, error, message):
    with pytest.raises(error) as err:
        Atlas(_edited(edits))
    assert str(err.value) == message
    with pytest.raises(error):
        SQUARE._replace(regions=_edited(edits))


def test_atlas_works_out_its_bounds_and_holds_its_rings_read_only():
    with pytest.raises(TypeError):
        Atlas(SQUARE.regions, (0.0, 0.0, 1.0, 1.0))
    with pytest.raises(AtlasParse):
        Atlas(list(SQUARE.regions.items()))
    far = ((200, 300), (201, 300), (200.5, 301))
    regions = _edited([("AL", [TRIANGLE, far])])
    atlas = Atlas(regions)
    assert atlas.bounds == (0.0, 0.0, 201.0, 301.0)
    assert atlas.regions["AL"] == (
        ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)),
        ((200.0, 300.0), (201.0, 300.0), (200.5, 301.0), (200.0, 300.0)))
    regions["AL"] = [TRIANGLE]  # the atlas keeps its own copy
    assert atlas.bounds == (0.0, 0.0, 201.0, 301.0)
    assert atlas._replace(regions=regions).bounds == (0.0, 0.0, 78.0, 68.0)
    assert Atlas(regions=SQUARE.regions) == SQUARE
    with pytest.raises(TypeError):
        atlas.regions["AL"] = (TRIANGLE,)


def test_atlas_copies_but_refuses_bounds_and_pickle():
    """copy.copy rebuilds the atlas from its regions; ``bounds`` is worked
    out, never given, so ``_replace`` refuses it; a read-only mapping
    cannot be pickled."""
    for atlas in (SQUARE, Atlas(_edited([("AL", [TRIANGLE])]))):
        copied = copy.copy(atlas)
        assert copied == atlas and type(copied) is Atlas
        assert copied.bounds == atlas.bounds
        with pytest.raises(ValueError, match="bounds"):
            atlas._replace(bounds=(0.0, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="bounds"):
            atlas._replace(regions=atlas.regions, bounds=atlas.bounds)
        with pytest.raises(TypeError):
            pickle.dumps(atlas)


# Up to three regions given rings of finite numbers, small or as wide as a
# float holds, then at most one edit that may drop a region, name one that
# is not, or give rings of anything a point might be written as.
_COORDS = st.one_of(st.integers(-1000, 1000), st.floats(-1e3, 1e3),
                    st.floats(allow_nan=False, allow_infinity=False))
_GOOD = st.lists(st.lists(st.tuples(_COORDS, _COORDS), min_size=3, max_size=6),
                 min_size=1, max_size=3)
_ANYTHING = st.one_of(st.integers(), st.floats(), st.booleans(),
                      st.text(max_size=2))
_ANY = st.lists(st.lists(st.one_of(st.tuples(_ANYTHING, _ANYTHING),
                                   st.lists(_ANYTHING, max_size=3)),
                         max_size=5), max_size=3)
_EDITS = st.tuples(
    st.lists(st.tuples(st.sampled_from(ALL_CODES), _GOOD), max_size=3),
    st.lists(st.tuples(st.sampled_from(ALL_CODES + ("PR", "al")),
                       st.one_of(st.none(), _ANY)), max_size=1),
).map(lambda edits: edits[0] + edits[1])
_CHART = ChartSpec("t", SortSpec("v"),
                   (ColumnSpec("map"), ColumnSpec("legend"),
                    ColumnSpec("dot", ("V",), {"value": "v"})))


def _pin_refused(test):
    for _, edits, _, _ in REFUSED:
        test = example(edits)(test)
    return test


@given(_EDITS)
@_pin_refused
@example([])
@example([("AL", [TRIANGLE])])
@example([("AL", [[[1e-300, 0], [2e-300, 0], [1e-300, 1e-300]]])])
@example([("AK", [[[-1e307, 0], [1e307, 0], [0, 1]]])])
def test_edited_atlas_is_refused_when_made_or_renders(edits):
    """An atlas is refused with a MicromapError when it is made, or a chart
    drawn on it passes the gate and writes well-formed SVG."""
    try:
        atlas = Atlas(_edited(edits))
    except MicromapError:
        return
    scene = compose(_CHART, full_table(), atlas)
    check_chart(scene)
    ET.fromstring(emit_svg(scene))


# --- minimap tint, decided by the plan ---------------------------------------

def fills_by_color(shapes) -> dict[str, int]:
    counts: dict[str, int] = {}
    for shape in shapes.fills:
        counts[shape.style.fill] = counts.get(shape.style.fill, 0) + 1
    return counts


def test_group_only_mode_counts(square_atlas, table51):
    band = plan(table51, GROUP_ONLY).bands[0]
    assert band.tinted == ()
    shapes = render_minimap(square_atlas, frame(rows=band.rows), band.tinted)
    counts = fills_by_color(shapes)
    assert counts.get(CONTEXT_FILL) == 46
    slot_colored = sum(n for color, n in counts.items()
                       if color in DEFAULT_PALETTE.slots)
    assert slot_colored == 5
    assert len(shapes.fills) == 51 == len(shapes.strokes)


def test_group_only_fill_count_matches_group_size(square_atlas):
    chart_plan = plan(full_table(), GROUP_ONLY)
    for band, size in zip(chart_plan.bands, chart_plan.layout.plan.sizes,
                          strict=True):
        assert band.tinted == ()
        counts = fills_by_color(render_minimap(
            square_atlas, frame(rows=band.rows), band.tinted))
        highlighted = 51 - counts.get(CONTEXT_FILL, 0)
        assert highlighted == size


def test_cumulative_above_median():
    chart_plan = plan(full_table(), CUMULATIVE)
    layout = chart_plan.layout
    assert set(tints(chart_plan)[2]) == {  # groups 0 and 1
        *layout.groups[0], *layout.groups[1]}
    assert len(tints(chart_plan)[2]) == 10


def test_cumulative_median_panel_tints_nothing():
    chart_plan = plan(full_table(), CUMULATIVE)
    (median,) = [band for band in chart_plan.bands if band.is_median]
    assert median.group_index == 5
    assert median.tinted == ()


def test_cumulative_below_median_mirrors():
    chart_plan = plan(full_table(), CUMULATIVE)
    layout = chart_plan.layout
    # Bottom panel tints nothing; moving up toward the median accumulates.
    for gi, expected in ((10, 0), (9, 5), (8, 10), (7, 15), (6, 20)):
        tinted = tints(chart_plan)[gi]
        assert len(tinted) == expected, gi
        assert set(tinted) == {code for g in range(gi + 1, 11)
                               for code in layout.groups[g]}


def test_cumulative_monotone_toward_median():
    chart_plan = plan(full_table(), CUMULATIVE)
    above = [len(tints(chart_plan)[gi]) for gi in range(0, 5)]
    assert above == [sum(chart_plan.layout.plan.sizes[:gi])
                     for gi in range(0, 5)]


def test_cumulative_even_count_splits_between_the_middle_groups():
    """50 ranked regions: ten groups and no median group, so the five upper
    panels tint the groups above them and the five lower the groups below;
    the no-data panel tints nothing."""
    values = {code: (None if code == "WY" else float(i))
              for i, code in enumerate(ALL_CODES)}
    chart_plan = plan(make_table(values), CUMULATIVE)
    layout = chart_plan.layout
    assert layout.plan == GroupPlan((5,) * 10, None)
    assert list(tints(chart_plan)) == [*range(10), NO_DATA_PANEL]
    for gi, tinted in tints(chart_plan).items():
        groups = () if gi == NO_DATA_PANEL else (
            range(gi) if gi <= 4 else range(gi + 1, 10))
        assert tinted == tuple(code for g in groups
                               for code in layout.groups[g])


def test_no_data_panel_highlights_unranked(square_atlas):
    values = {code: (None if code in ("DC", "WY") else float(i))
              for i, code in enumerate(ALL_CODES)}
    for mode in (GROUP_ONLY, CUMULATIVE):
        band = plan(make_table(values), mode).bands[-1]
        assert band.group_index == NO_DATA_PANEL
        assert band.tinted == ()
        counts = fills_by_color(render_minimap(
            square_atlas, frame(rows=band.rows), band.tinted))
        assert counts.get(DEFAULT_PALETTE.no_data) == 2


def test_cumulative_tints_the_ranked_rows_beyond_each_band():
    """A band above the middle group tints every ranked region above its
    rows, one below it every ranked region below them; the middle band and
    the no-data band tint nothing. Over group sizes and ranked counts."""
    for ranked in (1, 2, 7, 12, 48, 51):
        values = {code: (float(i) if i < ranked else None)
                  for i, code in enumerate(ALL_CODES)}
        for size in (1, 2, 3, 5):
            chart_plan = plan(make_table(values), CUMULATIVE, size)
            order = chart_plan.layout.ranked
            middle = (len(chart_plan.layout.plan.sizes) - 1) / 2.0
            for band in chart_plan.bands:
                gi = band.group_index
                if gi == NO_DATA_PANEL or gi == middle:
                    expected = ()
                elif gi < middle:
                    expected = order[:order.index(band.rows[0].region)]
                else:
                    expected = order[order.index(band.rows[-1].region) + 1:]
                assert band.tinted == expected, (ranked, size, gi)


# --- minimap painting --------------------------------------------------------

def test_minimap_paints_context_then_tint_then_rows(square_atlas):
    """Exactly ``tinted`` less the rows takes the tint, each row's region
    its row's color (over a tint too) and every other region the context."""
    tinted = ALL_CODES[:10]
    rows = (RowBand(ALL_CODES[3], 10.0, "#abcdef"),
            RowBand(ALL_CODES[20], 30.0, "#123456"))
    shapes = render_minimap(square_atlas, frame(rows=rows), tinted)
    fills = {s.tag.removeprefix("region:"): s.style.fill for s in shapes.fills}
    assert len(shapes.fills) == 51
    assert {c for c, f in fills.items() if f == CUMULATIVE_TINT} == (
        set(tinted) - {ALL_CODES[3]})
    assert (fills[ALL_CODES[3]], fills[ALL_CODES[20]]) == ("#abcdef", "#123456")
    assert {c for c, f in fills.items() if f == CONTEXT_FILL} == (
        set(ALL_CODES) - set(tinted) - {ALL_CODES[20]})


def test_row_color_fills_its_region(square_atlas):
    """The map paints a row's region in the row's color, palette or not."""
    code = ALL_CODES[7]
    rows = (RowBand(code, 10.0, "#abcdef"),)
    shapes = render_minimap(square_atlas, frame(rows=rows), ())
    assert {s.tag for s in shapes.fills if s.style.fill == "#abcdef"} == {
        f"region:{code}"}


def test_render_is_pure(square_atlas):
    before = {code: rings for code, rings in square_atlas.regions.items()}
    a = render_minimap(square_atlas, frame(), ALL_CODES[:5])
    b = render_minimap(square_atlas, frame(), ALL_CODES[:5])
    assert a.fills == b.fills
    assert a.strokes == b.strokes
    assert square_atlas.regions == before
