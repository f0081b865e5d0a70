"""The process-wide records of placed map rings: one record per map fit
(``atlas._FITS``) and one per placed ring (``scene.RING_RECORD``, read by
``clamp_scene`` and the SVG writer). Same bytes cold, warm and after
clearing; no kept errors; no stale entries; bounded size; a recorded ring
that crosses the canvas is still clamped.
"""

from __future__ import annotations

import json
import warnings

import pytest

from micromaps import atlas as atlas_mod
from micromaps.atlas import GROUP_ONLY, load_atlas, load_default_atlas, render_minimap
from micromaps.compose import compose
from micromaps.demos import build_demo
from micromaps.errors import BadGeometry
from micromaps.glyphs import PanelFrame
from micromaps.layout import SortSpec, build_layout
from micromaps.regions import ALL_CODES
from micromaps.scene import (
    RECORD_CAPACITY,
    RING_RECORD,
    Polygon,
    Scene,
    Style,
    clamp_scene,
    clamp_shape,
    record_rings,
)
from micromaps.svg import SvgOptions, _Writer, emit_svg

from conftest import full_table, square_atlas_document
from test_demo_hashes import BUNDLED, HASHES, demo_hashes

FRAME = PanelFrame(3.0, 5.0, 150.0, 100.0, (), 20.0)
# An interior square of the square atlas: moving it leaves the bounds alone.
MOVED = ALL_CODES[9]


def clear_records() -> None:
    atlas_mod._FITS.clear()
    RING_RECORD.clear()


def moved_square_atlas(shift: float):
    doc = json.loads(square_atlas_document())
    for feature in doc["features"]:
        if feature["properties"]["code"] == MOVED:
            ring = feature["geometry"]["coordinates"][0]
            feature["geometry"]["coordinates"][0] = [
                [x + shift, y + shift] for x, y in ring]
    return load_atlas(json.dumps(doc))


def region_points(shapes, code: str):
    return [s.points for s in shapes.fills if s.tag == f"region:{code}"]


def placed(atlas, ring, frame=FRAME):
    ox, oy, s, xmin, ymin = atlas_mod._fit_transform(atlas, frame)
    return tuple((ox + s * (x - xmin), oy + s * (y - ymin)) for x, y in ring)


def test_demos_match_pinned_hashes_cold_warm_and_after_clearing():
    pinned = json.loads(HASHES.read_text("utf-8"))
    clear_records()
    assert demo_hashes() == pinned
    assert atlas_mod._FITS and RING_RECORD
    assert demo_hashes() == pinned
    # Fit records whose rings have left the ring record: the rings are
    # clamped and formatted as any other polygon.
    RING_RECORD.clear()
    assert demo_hashes() == pinned
    clear_records()
    assert demo_hashes() == pinned


def test_same_ring_and_fit_give_the_same_placed_tuple(square_atlas):
    layout = build_layout(full_table(), SortSpec("v"))
    a = render_minimap(square_atlas, layout, 0, GROUP_ONLY, FRAME)
    b = render_minimap(square_atlas, layout, 3, GROUP_ONLY, FRAME)
    assert all(p.points is q.points for p, q in zip(a.fills, b.fills))
    assert all(p is q for p, q in zip(a.strokes, b.strokes))
    for shape in a.fills:
        entry = RING_RECORD[id(shape.points)]
        assert entry[0] is shape.points
        xs, ys = zip(*shape.points)
        assert entry[1] == (min(xs), min(ys), max(xs), max(ys))
    moved = FRAME._replace(x=FRAME.x + 1.0)
    c = render_minimap(square_atlas, layout, 0, GROUP_ONLY, moved)
    assert all(p.points != q.points for p, q in zip(a.fills, c.fills))


def test_equal_bounds_different_rings_render_different_points():
    layout = build_layout(full_table(), SortSpec("v"))
    for shift in (0.0, 0.5, 0.0, 1.0, 0.5):
        # Each atlas is dropped after its loop, so the regions of a later
        # one may take the memory, and the id, of an earlier one.
        atlas = moved_square_atlas(shift)
        assert atlas.bounds == (0.0, 0.0, 78.0, 68.0)
        shapes = render_minimap(atlas, layout, 0, GROUP_ONLY, FRAME)
        (ring,) = atlas.regions[MOVED]
        assert region_points(shapes, MOVED) == [placed(atlas, ring)]
        text = emit_svg(Scene(200.0, 200.0, tuple(shapes.fills)))
        assert _Writer(2).points(placed(atlas, ring)) in text

    # A ring replaced in place, in the same regions dict, is placed anew.
    render_minimap(atlas, layout, 0, GROUP_ONLY, FRAME)
    ring = tuple((x + 0.25, y) for x, y in atlas.regions[MOVED][0])
    atlas.regions[MOVED] = (ring,)
    shapes = render_minimap(atlas, layout, 0, GROUP_ONLY, FRAME)
    assert region_points(shapes, MOVED) == [placed(atlas, ring)]
    text = emit_svg(Scene(200.0, 200.0, tuple(shapes.strokes)))
    assert _Writer(2).points(placed(atlas, ring)) in text


def test_non_finite_ring_raises_on_every_emit():
    ring = ((0.0, 0.0), (1.0, float("nan")), (2.0, 0.0))
    record_rings([ring])
    scene = Scene(10.0, 10.0, (Polygon(ring), Polygon(ring[::-1])))
    for _ in range(2):
        with pytest.raises(BadGeometry, match="Polygon"):
            emit_svg(scene)
    assert RING_RECORD.pop(id(ring))[2] == {}  # the error was not kept


def test_negative_zero_prints_as_zero_through_the_memo():
    ring = ((-0.0, -0.001), (4.0, -0.0), (-0.004, 3.0))
    scene = Scene(10.0, 10.0, (Polygon(ring, Style(fill="#000000")),
                               Polygon(ring, Style(fill="none"))))
    for recorded in (False, True):
        if recorded:
            record_rings([ring])
        for dp, expected in ((2, "0.00,0.00 4.00,0.00 0.00,3.00"),
                             (0, "0,0 4,0 0,3")):
            for _ in range(2):
                lines = emit_svg(scene,
                                 SvgOptions(decimal_places=dp)).splitlines()
                assert f'points="{expected}"' in lines[1]
                assert f'points="{expected}"' in lines[2]
    assert RING_RECORD.pop(id(ring))[2] == {2: "0.00,0.00 4.00,0.00 0.00,3.00",
                                            0: "0,0 4,0 0,3"}


def test_memos_stay_within_their_capacity(square_atlas):
    clear_records()
    layout = build_layout(full_table(), SortSpec("v"))
    per_fit = 1 + sum(map(len, square_atlas.regions.values()))
    fits = RECORD_CAPACITY // per_fit + 2
    for i in range(fits):
        frame = FRAME._replace(x=float(i))
        shapes = render_minimap(square_atlas, layout, 0, GROUP_ONLY, frame)
        size = len(atlas_mod._FITS) + len(RING_RECORD)
        assert 0 < size <= RECORD_CAPACITY
        # Both records are emptied together: every recorded ring is a ring
        # of a recorded fit.
        rings = {id(p) for entry in atlas_mod._FITS.values()
                 for _, _, p in entry[2]}
        assert set(RING_RECORD) == rings
    assert len(atlas_mod._FITS) < fits
    (ring,) = square_atlas.regions[MOVED]
    assert region_points(shapes, MOVED) == [placed(square_atlas, ring, frame)]
    clear_records()


def test_recorded_ring_whose_fit_crosses_the_canvas_is_clamped(square_atlas):
    layout = build_layout(full_table(), SortSpec("v"))
    frame = PanelFrame(-40.0, -30.0, 150.0, 100.0, (), 20.0)
    shapes = render_minimap(square_atlas, layout, 0, GROUP_ONLY, frame)
    scene = Scene(60.0, 50.0, tuple(shapes.fills + shapes.strokes))
    assert all(id(s.points) in RING_RECORD for s in scene.shapes)
    clamped = clamp_scene(scene)
    assert clamped.shapes == tuple(clamp_shape(s, 60.0, 50.0)
                                   for s in scene.shapes)
    assert clamped.shapes != scene.shapes
    kept = [a is b for a, b in zip(scene.shapes, clamped.shapes)]
    assert any(kept) and not all(kept)


def test_demo_loop_records_only_atlas_rings_and_never_empties():
    atlas = load_default_atlas()
    clear_records()
    seen: dict[int, list] = {}
    glyph_polygons = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(3):
            for name in BUNDLED:
                spec, table = build_demo(name)
                scene = compose(spec, table, atlas)
                emit_svg(scene)
                map_rings = {id(s.points) for panel in scene.panels
                             if panel.kind == "map"
                             for s in scene.shapes[panel.marks.start:
                                                   panel.marks.stop]}
                # Arrow heads, zero-change diamonds and other glyph
                # polygons stay out of the record.
                other = {id(s.points) for s in scene.shapes
                         if isinstance(s, Polygon)} - map_rings
                assert other.isdisjoint(RING_RECORD)
                glyph_polygons += len(other)
                assert map_rings <= set(RING_RECORD)
                # Every entry made earlier in the loop is still there.
                assert all(RING_RECORD.get(key) is entry
                           for key, entry in seen.items())
                seen.update(RING_RECORD)
    assert glyph_polygons > 0
    assert len(seen) == len(RING_RECORD) == 55 * len(atlas_mod._FITS)
    assert all(entry[2].keys() == {2} for entry in RING_RECORD.values())
