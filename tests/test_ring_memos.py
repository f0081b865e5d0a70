"""The process-wide memos of placed map rings (atlas) and their SVG points
text (svg): same bytes cold, warm and after clearing, no kept errors, no
stale entries, bounded size.
"""

from __future__ import annotations

import json

import pytest

from micromaps import atlas as atlas_mod
from micromaps import svg as svg_mod
from micromaps.atlas import GROUP_ONLY, load_atlas, render_minimap
from micromaps.errors import BadGeometry
from micromaps.glyphs import PanelFrame
from micromaps.layout import SortSpec, build_layout
from micromaps.regions import ALL_CODES
from micromaps.scene import Polygon, Scene, Style
from micromaps.svg import SvgOptions, emit_svg

from conftest import full_table, square_atlas_document
from test_demo_hashes import HASHES, demo_hashes

FRAME = PanelFrame(3.0, 5.0, 150.0, 100.0, (), 20.0)
# An interior square of the square atlas: moving it leaves the bounds alone.
MOVED = ALL_CODES[9]


def clear_memos() -> None:
    atlas_mod._PLACED.clear()
    svg_mod._RINGS.clear()


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


def test_demos_match_pinned_hashes_cold_warm_and_after_clearing():
    pinned = json.loads(HASHES.read_text("utf-8"))
    clear_memos()
    assert demo_hashes() == pinned
    assert atlas_mod._PLACED and svg_mod._RINGS
    assert demo_hashes() == pinned
    clear_memos()
    assert demo_hashes() == pinned


def test_same_ring_and_fit_give_the_same_placed_tuple(square_atlas):
    layout = build_layout(full_table(), SortSpec("v"))
    a = render_minimap(square_atlas, layout, 0, GROUP_ONLY, FRAME)
    b = render_minimap(square_atlas, layout, 3, GROUP_ONLY, FRAME)
    assert all(p.points is q.points for p, q in zip(a.fills, b.fills))
    moved = FRAME._replace(x=FRAME.x + 1.0)
    c = render_minimap(square_atlas, layout, 0, GROUP_ONLY, moved)
    assert all(p.points != q.points for p, q in zip(a.fills, c.fills))


def test_equal_bounds_different_rings_render_different_points():
    layout = build_layout(full_table(), SortSpec("v"))
    ox, oy, s, xmin, ymin = atlas_mod._fit_transform(moved_square_atlas(0.0),
                                                     FRAME)
    for shift in (0.0, 0.5, 0.0, 1.0, 0.5):
        # Each atlas is dropped after its loop, so a ring of a later one
        # may take the memory, and the id, of an earlier one.
        atlas = moved_square_atlas(shift)
        assert atlas.bounds == (0.0, 0.0, 78.0, 68.0)
        shapes = render_minimap(atlas, layout, 0, GROUP_ONLY, FRAME)
        (ring,) = atlas.regions[MOVED]
        expected = tuple((ox + s * (x - xmin), oy + s * (y - ymin))
                         for x, y in ring)
        assert region_points(shapes, MOVED) == [expected]
        text = emit_svg(Scene(200.0, 200.0, tuple(shapes.fills)))
        assert svg_mod._Writer(2).points(expected) in text


def test_non_finite_ring_raises_on_every_emit():
    scene = Scene(10.0, 10.0, (Polygon(((0.0, 0.0), (1.0, float("nan")),
                                        (2.0, 0.0))),))
    for _ in range(2):
        with pytest.raises(BadGeometry, match="Polygon"):
            emit_svg(scene)


def test_negative_zero_prints_as_zero_through_the_memo():
    ring = ((-0.0, -0.001), (4.0, -0.0), (-0.004, 3.0))
    scene = Scene(10.0, 10.0, (Polygon(ring, Style(fill="#000000")),
                               Polygon(ring, Style(fill="none"))))
    for dp, expected in ((2, "0.00,0.00 4.00,0.00 0.00,3.00"),
                         (0, "0,0 4,0 0,3")):
        for _ in range(2):
            lines = emit_svg(scene, SvgOptions(decimal_places=dp)).splitlines()
            assert f'points="{expected}"' in lines[1]
            assert f'points="{expected}"' in lines[2]
        assert svg_mod._RINGS[(id(ring), dp)] == (ring, expected)


def test_memos_stay_within_their_capacity():
    clear_memos()
    ring = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))
    for i in range(atlas_mod._PLACED_CAPACITY + 10):
        atlas_mod._place(ring, float(i), 0.0, 1.0, 0.0, 0.0)
        assert len(atlas_mod._PLACED) <= atlas_mod._PLACED_CAPACITY
    assert atlas_mod._place(ring, 2.0, 0.0, 1.0, 0.0, 0.0)[1] == (3.0, 0.0)

    polygons = tuple(Polygon(((float(i), 0.0), (1.0, 1.0), (0.0, 1.0)))
                     for i in range(svg_mod._RINGS_CAPACITY + 10))
    lines = emit_svg(Scene(10.0, 10.0, polygons)).splitlines()
    assert 0 < len(svg_mod._RINGS) <= svg_mod._RINGS_CAPACITY
    assert lines[-2] == (f'<polygon points="{svg_mod._RINGS_CAPACITY + 9}.00,'
                         '0.00 1.00,1.00 0.00,1.00"/>')
    clear_memos()
