from __future__ import annotations

import json

import pytest

from micromaps.atlas import (
    CUMULATIVE,
    GROUP_ONLY,
    NO_DATA_PANEL,
    load_atlas,
    render_minimap,
)
from micromaps.colors import CONTEXT_FILL, CUMULATIVE_TINT, DEFAULT_PALETTE
from micromaps.errors import AtlasParse, IncompleteAtlas, UnknownRegion
from micromaps.glyphs import PanelFrame, RowBand
from micromaps.layout import GroupPlan, SortSpec, build_layout
from micromaps.regions import ALL_CODES, region_lookup

from conftest import full_table, square_atlas_document


def frame(x=0.0, y=0.0, w=150.0, h=100.0, rows=()) -> PanelFrame:
    return PanelFrame(x, y, w, h, rows, 20.0)


def panel_frame(layout, group_index: int) -> PanelFrame:
    """A frame whose rows are the panel's regions in their palette colors."""
    if group_index == NO_DATA_PANEL:
        colored = [(code, DEFAULT_PALETTE.no_data) for code in layout.unranked]
    else:
        colored = [(code, DEFAULT_PALETTE.for_slot(layout.slot_of[code]))
                   for code in layout.group_members(group_index)]
    return frame(rows=tuple(RowBand(code, 10.0 + 20.0 * i, color)
                            for i, (code, color) in enumerate(colored)))


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
    (_set_ring([[0, 0], [1, 0], ["a", 1], [0, 0]]), "AK: bad point ['a', 1]"),
    (_set_ring([[0, 0], [1, 0], [0, 0]]),
     "AK: ring has fewer than 3 distinct points"),
    (_set_insets({}), "insets must be an array"),
    (_set_insets([1]), "bad inset entry"),
    (_set_insets([{"code": "AK", "scale": 2.0}]),
     "AK: inset needs translate [dx, dy] and scale"),
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


# --- minimap rendering -------------------------------------------------------

def fills_by_color(shapes) -> dict[str, int]:
    counts: dict[str, int] = {}
    for shape in shapes.fills:
        counts[shape.style.fill] = counts.get(shape.style.fill, 0) + 1
    return counts


def test_group_only_mode_counts(square_atlas, table51):
    layout = build_layout(full_table(), SortSpec("v"))
    shapes = render_minimap(square_atlas, layout, 0, GROUP_ONLY,
                            panel_frame(layout, 0))
    counts = fills_by_color(shapes)
    assert counts.get(CONTEXT_FILL) == 46
    slot_colored = sum(n for color, n in counts.items()
                       if color in DEFAULT_PALETTE.slots)
    assert slot_colored == 5
    assert len(shapes.fills) == 51 == len(shapes.strokes)


def test_group_only_fill_count_matches_group_size(square_atlas):
    layout = build_layout(full_table(), SortSpec("v"))
    for gi, size in enumerate(layout.plan.sizes):
        counts = fills_by_color(render_minimap(square_atlas, layout, gi,
                                               GROUP_ONLY,
                                               panel_frame(layout, gi)))
        highlighted = 51 - counts.get(CONTEXT_FILL, 0)
        assert highlighted == size


def test_cumulative_above_median(square_atlas):
    layout = build_layout(full_table(), SortSpec("v"))
    counts = fills_by_color(render_minimap(square_atlas, layout, 2, CUMULATIVE,
                                           panel_frame(layout, 2)))
    assert counts.get(CUMULATIVE_TINT) == 10  # groups 0 and 1
    assert counts.get(CONTEXT_FILL) == 51 - 10 - 5


def test_cumulative_median_panel_tints_nothing(square_atlas):
    layout = build_layout(full_table(), SortSpec("v"))
    counts = fills_by_color(render_minimap(square_atlas, layout, 5, CUMULATIVE,
                                           panel_frame(layout, 5)))
    assert counts.get(CUMULATIVE_TINT) is None
    assert counts.get(DEFAULT_PALETTE.median) == 1
    assert counts.get(CONTEXT_FILL) == 50


def test_cumulative_below_median_mirrors(square_atlas):
    layout = build_layout(full_table(), SortSpec("v"))
    # Bottom panel tints nothing; moving up toward the median accumulates.
    for gi, expected in ((10, 0), (9, 5), (8, 10), (7, 15), (6, 20)):
        counts = fills_by_color(render_minimap(square_atlas, layout, gi,
                                               CUMULATIVE, frame()))
        assert counts.get(CUMULATIVE_TINT, 0) == expected, gi


def test_cumulative_monotone_toward_median(square_atlas):
    layout = build_layout(full_table(), SortSpec("v"))
    above = [fills_by_color(render_minimap(square_atlas, layout, gi,
                                           CUMULATIVE, frame())
                            ).get(CUMULATIVE_TINT, 0)
             for gi in range(0, 5)]
    assert above == [sum(layout.plan.sizes[:gi]) for gi in range(0, 5)]


def test_cumulative_even_count_splits_between_the_middle_groups(square_atlas):
    """50 ranked regions: ten groups and no median group, so the five upper
    panels tint the groups above them and the five lower the groups below."""
    from conftest import make_table
    values = {code: (None if code == "WY" else float(i))
              for i, code in enumerate(ALL_CODES)}
    layout = build_layout(make_table(values), SortSpec("v"))
    assert layout.plan == GroupPlan((5,) * 10, None)
    for gi in (*range(10), NO_DATA_PANEL):
        shapes = render_minimap(square_atlas, layout, gi, CUMULATIVE,
                                panel_frame(layout, gi))
        fills = {s.tag.removeprefix("region:"): s.style.fill
                 for s in shapes.fills}
        groups = () if gi == NO_DATA_PANEL else (
            range(gi) if gi <= 4 else range(gi + 1, 10))
        tinted = {code for g in groups for code in layout.group_members(g)}
        assert {c for c, f in fills.items() if f == CUMULATIVE_TINT} == tinted
        rows = {row.region for row in panel_frame(layout, gi).rows}
        assert {c for c, f in fills.items() if f == CONTEXT_FILL} == (
            set(ALL_CODES) - tinted - rows)


def test_no_data_panel_highlights_unranked(square_atlas):
    values = {code: (None if code in ("DC", "WY") else float(i))
              for i, code in enumerate(ALL_CODES)}
    from conftest import make_table
    layout = build_layout(make_table(values), SortSpec("v"))
    counts = fills_by_color(render_minimap(square_atlas, layout,
                                           NO_DATA_PANEL, GROUP_ONLY,
                                           panel_frame(layout, NO_DATA_PANEL)))
    assert counts.get(DEFAULT_PALETTE.no_data) == 2


def test_row_color_fills_its_region(square_atlas):
    """The map paints a row's region in the row's color, palette or not."""
    layout = build_layout(full_table(), SortSpec("v"))
    code = layout.group_members(0)[0]
    rows = (RowBand(code, 10.0, "#abcdef"),)
    shapes = render_minimap(square_atlas, layout, 0, GROUP_ONLY,
                            frame(rows=rows))
    assert {s.tag for s in shapes.fills if s.style.fill == "#abcdef"} == {
        f"region:{code}"}


def test_render_is_pure(square_atlas):
    layout = build_layout(full_table(), SortSpec("v"))
    before = {code: rings for code, rings in square_atlas.regions.items()}
    a = render_minimap(square_atlas, layout, 0, GROUP_ONLY, frame())
    b = render_minimap(square_atlas, layout, 0, GROUP_ONLY, frame())
    assert a.fills == b.fills
    assert a.strokes == b.strokes
    assert square_atlas.regions == before


def test_bad_group_index(square_atlas):
    layout = build_layout(full_table(), SortSpec("v"))
    with pytest.raises(ValueError):
        render_minimap(square_atlas, layout, 11, GROUP_ONLY, frame())
