"""What a process keeps of placed map rings between charts: one record per
map fit (``atlas._FITS``), whose rings are ``scene.PlacedRing``s that carry
their own bounds (read by ``clamp_scene``) and SVG points text and
``<polygon>`` lines (filled by the SVG writer), and whose fill polygons
are kept per ring and color. Same bytes cold, warm and after clearing; no
kept errors; no stale rings or fills; bounded size; a placed ring that
crosses the canvas is still clamped.
"""

from __future__ import annotations

import json
import warnings

import pytest

from micromaps import atlas as atlas_mod
from micromaps.atlas import load_atlas, load_default_atlas, render_minimap
from micromaps.compose import compose
from micromaps.demos import build_demo
from micromaps.errors import BadGeometry
from micromaps.glyphs import PanelFrame, RowBand
from micromaps.regions import ALL_CODES
from micromaps.scene import (
    PlacedRing,
    Polygon,
    Polyline,
    Scene,
    Style,
    clamp_scene,
    clamp_shape,
)
from micromaps.svg import SvgOptions, _Writer, emit_svg

from conftest import square_atlas_document
from test_demo_hashes import BUNDLED, HASHES, demo_hashes

FRAME = PanelFrame(3.0, 5.0, 150.0, 100.0, (), 20.0)
# An interior square of the square atlas: moving it leaves the bounds alone.
MOVED = ALL_CODES[9]


def kept_rings():
    return [ring for entry in atlas_mod._FITS.values()
            for _, _, ring in entry[1]]


def kept_fills():
    return [fill for entry in atlas_mod._FITS.values()
            for fill in entry[3].values()]


def kept_size():
    """What _FITS_CAPACITY bounds: each fit, its rings, its fill polygons."""
    return len(atlas_mod._FITS) + len(kept_rings()) + len(kept_fills())


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


def bounds(points):
    xs, ys = zip(*points)
    return (min(xs), min(ys), max(xs), max(ys))


def composed_demos(atlas):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in BUNDLED:
            spec, table = build_demo(name)
            yield compose(spec, table, atlas)


def test_demos_match_pinned_hashes_cold_warm_and_after_clearing():
    # Every in-process CLI run draws on the one bundled atlas, so the runs
    # after the first find each fit, its rings and its fill polygons kept.
    pinned = json.loads(HASHES.read_text("utf-8"))
    atlas_mod._FITS.clear()
    assert demo_hashes() == pinned
    assert atlas_mod._FITS and all(ring.texts for ring in kept_rings())
    fills = {id(fill): fill for fill in kept_fills()}
    assert demo_hashes() == pinned
    # Warm, every fill polygon was reused, and none was made.
    assert {id(fill): fill for fill in kept_fills()} == fills
    # Rings that lost their text are formatted again, to the same bytes.
    for ring in kept_rings():
        ring.texts.clear()
    assert demo_hashes() == pinned
    atlas_mod._FITS.clear()
    assert demo_hashes() == pinned


def test_cli_loads_the_bundled_atlas_once_and_read_only():
    atlas_mod._FITS.clear()
    demo_hashes()
    fits = set(atlas_mod._FITS)
    demo_hashes()  # a second round of CLI runs makes no fit
    assert set(atlas_mod._FITS) == fits
    assert load_default_atlas() is load_default_atlas()
    with pytest.raises(TypeError):
        load_default_atlas().regions["AL"] = ()
    atlas_mod._FITS.clear()


def test_same_ring_and_fit_give_the_same_placed_tuple(square_atlas):
    a = render_minimap(square_atlas, FRAME, ())
    b = render_minimap(square_atlas, FRAME, ALL_CODES[:5])
    assert all(p.points is q.points for p, q in zip(a.fills, b.fills))
    assert all(p is q for p, q in zip(a.strokes, b.strokes))
    for shape in a.fills:
        assert type(shape.points) is PlacedRing
        assert shape.points.bounds == bounds(shape.points)
    moved = FRAME._replace(x=FRAME.x + 1.0)
    c = render_minimap(square_atlas, moved, ())
    assert all(p.points != q.points for p, q in zip(a.fills, c.fills))


def test_equal_bounds_different_rings_render_different_points():
    for shift in (0.0, 0.5, 0.0, 1.0, 0.5):
        # Each atlas is dropped after its loop, so the regions of a later
        # one may take the memory, and the id, of an earlier one.
        atlas = moved_square_atlas(shift)
        assert atlas.bounds == (0.0, 0.0, 78.0, 68.0)
        shapes = render_minimap(atlas, FRAME, ())
        (ring,) = atlas.regions[MOVED]
        assert region_points(shapes, MOVED) == [placed(atlas, ring)]
        text = emit_svg(Scene(200.0, 200.0, tuple(shapes.fills)))
        assert _Writer(2).points(placed(atlas, ring)) in text

    # No ring can be replaced in place; a copy with ``_replace`` holds new
    # regions, so its ring is placed anew, with its own bounds, text and
    # fill polygons.
    before = render_minimap(atlas, FRAME, ())
    ring = tuple((x + 0.25, y) for x, y in atlas.regions[MOVED][0])
    with pytest.raises(TypeError):
        atlas.regions[MOVED] = (ring,)
    atlas = atlas._replace(regions={**atlas.regions, MOVED: (ring,)})
    shapes = render_minimap(atlas, FRAME, ())
    assert region_points(shapes, MOVED) == [placed(atlas, ring)]
    assert not any(p is q for p, q in zip(before.fills, shapes.fills))
    (points,) = region_points(shapes, MOVED)
    assert points.bounds == bounds(placed(atlas, ring))
    text = emit_svg(Scene(200.0, 200.0, tuple(shapes.strokes)))
    assert _Writer(2).points(placed(atlas, ring)) in text


def test_non_finite_ring_raises_on_every_emit():
    ring = PlacedRing([(0.0, 0.0), (1.0, float("nan")), (2.0, 0.0)])
    scene = Scene(10.0, 10.0, (Polygon(ring), Polygon(ring[::-1])))
    for _ in range(2):
        with pytest.raises(BadGeometry, match="Polygon"):
            emit_svg(scene)
    assert ring.texts == {}  # the error was not kept


def test_negative_zero_prints_as_zero_through_the_memo():
    points = ((-0.0, -0.001), (4.0, -0.0), (-0.004, 3.0))
    for ring in (points, PlacedRing(points)):
        scene = Scene(10.0, 10.0, (Polygon(ring, Style(fill="#000000")),
                                   Polygon(ring, Style(fill="none"))))
        for dp, expected in ((2, "0.00,0.00 4.00,0.00 0.00,3.00"),
                             (0, "0,0 4,0 0,3")):
            for _ in range(2):
                lines = emit_svg(scene,
                                 SvgOptions(decimal_places=dp)).splitlines()
                assert f'points="{expected}"' in lines[1]
                assert f'points="{expected}"' in lines[2]
    # Per decimal places: one points text, and one line per style.
    texts = {2: "0.00,0.00 4.00,0.00 0.00,3.00", 0: "0,0 4,0 0,3"}
    assert ring.texts == {**texts, **{
        (dp, style): f'<polygon fill="{style.fill}" points="{text}"/>'
        for dp, text in texts.items() for style in (scene.shapes[0].style,
                                                     scene.shapes[1].style)}}


def test_memos_stay_within_their_capacity(square_atlas):
    atlas_mod._FITS.clear()
    # A fit with no tint keeps one fill polygon per ring.
    per_fit = 1 + 2 * sum(map(len, square_atlas.regions.values()))
    fits = atlas_mod._FITS_CAPACITY // per_fit + 2
    for i in range(fits):
        frame = FRAME._replace(x=float(i))
        shapes = render_minimap(square_atlas, frame, ())
        assert 0 < kept_size() <= atlas_mod._FITS_CAPACITY
        # Emptied, it keeps only the fit just drawn, that fit's rings and
        # the fills it drew.
        assert len(kept_fills()) <= len(kept_rings())
    assert len(atlas_mod._FITS) < fits
    (ring,) = square_atlas.regions[MOVED]
    assert region_points(shapes, MOVED) == [placed(square_atlas, ring, frame)]
    atlas_mod._FITS.clear()


def test_memos_stay_within_their_capacity_across_palettes(square_atlas):
    """A long-lived process that draws its map fits in many palettes keeps
    each ring's fill in every color it showed, up to the capacity."""
    atlas_mod._FITS.clear()
    codes = sorted(square_atlas.regions)
    # 20 palettes on 5 fits, or 100 on one, are more fill polygons than the
    # record holds, so it is emptied on the way.
    assert 20 * 5 * len(codes) > atlas_mod._FITS_CAPACITY
    for palettes, fits in ((20, 5), (100, 1)):
        atlas_mod._FITS.clear()
        sizes = []
        for p in range(palettes):
            rows = tuple(RowBand(code, 10.0 + k, f"#{p:02x}{k:04x}")
                         for k, code in enumerate(codes))
            for x in range(fits):
                frame = FRAME._replace(x=float(x), rows=rows)
                shapes = render_minimap(square_atlas, frame, ())
                assert [s.style.fill for s in shapes.fills] == [
                    row.color for row in rows
                    for _ in square_atlas.regions[row.region]]
                sizes.append(kept_size())
                assert 0 < sizes[-1] <= atlas_mod._FITS_CAPACITY
        assert any(b < a for a, b in zip(sizes, sizes[1:]))
    atlas_mod._FITS.clear()


def test_one_fit_in_more_palettes_than_kept_keeps_lines_within_fills():
    """Emptying the record at its capacity drops the kept rings' lines too,
    so one fit drawn and written in ever new colors keeps, per ring, no
    more lines than its kept fills plus its border."""
    atlas = load_default_atlas()
    atlas_mod._FITS.clear()
    codes = sorted(atlas.regions)
    rings = sum(map(len, atlas.regions.values()))
    palettes = atlas_mod._FITS_CAPACITY // rings + 3
    sizes = []
    for p in range(palettes):
        rows = tuple(RowBand(code, 10.0 + k, f"#{p:02x}{k:04x}")
                     for k, code in enumerate(codes))
        shapes = render_minimap(atlas, FRAME._replace(rows=rows), ())
        emit_svg(Scene(200.0, 120.0, shapes.flatten()))
        ((_, placed_rings, _, fills),) = atlas_mod._FITS.values()
        for i, (_, _, ring) in enumerate(placed_rings):
            kept = sum(type(key) is tuple for key in ring.texts)
            shown = sum(key[0] == i for key in fills)
            assert 0 < kept <= shown + 1  # the ring's fills and its border
        sizes.append(len(fills))
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # it was emptied
    atlas_mod._FITS.clear()


def test_cold_fit_makes_one_fill_polygon_per_ring(square_atlas, monkeypatch):
    made = []
    monkeypatch.setattr(atlas_mod, "Polygon",
                        lambda *args: made.append(args) or Polygon(*args))
    atlas_mod._FITS.clear()
    rings = sum(map(len, square_atlas.regions.values()))
    render_minimap(square_atlas, FRAME, ())
    fills = [args for args in made if args[1].fill != "none"]
    assert len(fills) == rings and len(made) == 2 * rings
    assert len(kept_fills()) == rings
    # Warm, a fill is made only for a ring in a color it has not shown.
    made.clear()
    render_minimap(square_atlas, FRAME, ())
    assert made == []
    tinted = ALL_CODES[:3]
    render_minimap(square_atlas, FRAME, tinted)
    assert sorted(args[2] for args in made) == [
        f"region:{code}" for code in sorted(tinted)
        for _ in square_atlas.regions[code]]
    made.clear()
    render_minimap(square_atlas, FRAME, tinted)
    render_minimap(square_atlas, FRAME, ())
    assert made == []
    atlas_mod._FITS.clear()


def test_recorded_ring_whose_fit_crosses_the_canvas_is_clamped(square_atlas):
    frame = PanelFrame(-40.0, -30.0, 150.0, 100.0, (), 20.0)
    shapes = render_minimap(square_atlas, frame, ())
    scene = Scene(60.0, 50.0, tuple(shapes.fills + shapes.strokes))
    assert all(type(s.points) is PlacedRing for s in scene.shapes)
    clamped = clamp_scene(scene)
    assert clamped.shapes == tuple(clamp_shape(s, 60.0, 50.0)
                                   for s in scene.shapes)
    assert clamped.shapes != scene.shapes
    kept = [a is b for a, b in zip(scene.shapes, clamped.shapes)]
    assert any(kept) and not all(kept)


def test_demo_loop_records_only_atlas_rings_and_never_empties():
    atlas = load_default_atlas()
    atlas_mod._FITS.clear()
    seen: dict[tuple, tuple] = {}
    written: dict[int, set] = {}  # id(ring) -> the styles it was written in
    glyph_polygons = 0
    for _ in range(3):
        for scene in composed_demos(atlas):
            emit_svg(scene)
            map_fills = {i for panel in scene.panels if panel.kind == "map"
                         for i in panel.marks}
            # Arrow heads, zero-change diamonds and other glyph polygons
            # are plain tuples, made anew in every chart.
            other = [s for i, s in enumerate(scene.shapes)
                     if type(s) is Polygon and s.style.fill != "none"
                     and i not in map_fills]
            assert not any(type(s.points) is PlacedRing for s in other)
            glyph_polygons += len(other)
            for shape in scene.shapes:
                if type(shape) is Polygon and type(shape.points) is PlacedRing:
                    written.setdefault(id(shape.points), set()).add(shape.style)
            # Every fit kept earlier in the loop is still there.
            assert all(atlas_mod._FITS.get(key) is entry
                       for key, entry in seen.items())
            seen.update(atlas_mod._FITS)
    assert glyph_polygons > 0
    assert len(seen) == len(atlas_mod._FITS)
    assert len(kept_rings()) == 55 * len(atlas_mod._FITS)
    # An entry is (regions, rings, borders, fills), and trusts its regions
    # by identity.
    assert all(len(entry) == 4 and entry[0] is atlas.regions
               for entry in atlas_mod._FITS.values())
    # Each ring keeps one points text and one line per style it was
    # written in, all at the default two decimal places.
    assert all(ring.texts.keys() == {2, *((2, style)
                                          for style in written[id(ring)])}
               for ring in kept_rings())


def test_ring_written_in_two_styles_keeps_two_lines_and_one_points_text(
        monkeypatch):
    formatted = []
    points = _Writer.points
    monkeypatch.setattr(_Writer, "points", lambda self, ring: (
        formatted.append(ring) or points(self, ring)))
    ring = PlacedRing([(1.0, 1.0), (4.0, 1.0), (4.0, 3.0)])
    fill = Style(fill="#336699")
    border = Style(fill="none", stroke="#808080", stroke_width=0.4)
    scene = Scene(10.0, 5.0, (Polygon(ring, fill), Polygon(ring, border)))
    first = emit_svg(scene)
    assert emit_svg(scene) == first
    assert formatted == [ring]
    text = "1.00,1.00 4.00,1.00 4.00,3.00"
    assert ring.texts == {
        2: text,
        (2, fill): f'<polygon fill="#336699" points="{text}"/>',
        (2, border): f'<polygon fill="none" points="{text}" stroke="#808080"'
                     ' stroke-width="0.40"/>'}
    assert first.splitlines()[1:3] == [ring.texts[2, fill],
                                       ring.texts[2, border]]


@pytest.mark.parametrize("width", [float("nan"), float("inf")])
def test_non_finite_stroke_width_raises_on_every_emit_and_keeps_nothing(
        width):
    ring = PlacedRing([(1.0, 1.0), (4.0, 1.0), (4.0, 3.0)])
    bad = Polygon(ring, Style(fill="none", stroke="#000000",
                              stroke_width=width))
    for _ in range(2):
        with pytest.raises(BadGeometry, match="^non-finite size in Polygon$"):
            emit_svg(Scene(10.0, 5.0, (bad,)))
        assert ring.texts == {}
    # The ring still writes, and keeps, a style that formats.
    good = bad._replace(style=Style(fill="none"))
    emit_svg(Scene(10.0, 5.0, (good,)))
    assert ring.texts.keys() == {2, (2, good.style)}


def test_demos_keep_no_more_lines_than_fills_plus_borders():
    atlas_mod._FITS.clear()
    for _ in range(2):
        for scene in composed_demos(load_default_atlas()):
            emit_svg(scene)
    lines = 0
    for entry in atlas_mod._FITS.values():
        for _, _, ring in entry[1]:
            kept = sum(type(key) is tuple for key in ring.texts)
            fills = sum(fill.points is ring for fill in entry[3].values())
            assert 0 < kept <= fills + 1  # the ring's fills and its border
            lines += kept
    assert 0 < lines <= len(kept_fills()) + len(kept_rings())
    atlas_mod._FITS.clear()


def test_every_map_ring_of_a_demo_is_a_placed_ring():
    """If atlas, clamp_scene or the SVG writer stopped seeing PlacedRing
    (say, a local name shadowing it), bytes would stay the same and only
    time would tell; this makes it fail instead."""
    for scene in composed_demos(load_default_atlas()):
        maps = [p for p in scene.panels if p.kind == "map"]
        assert maps
        fills = [scene.shapes[i] for p in maps for i in p.marks]
        borders = [s for s in scene.shapes
                   if type(s) is Polygon and s.style.fill == "none"]
        assert len(borders) == len(fills) == 55 * len(maps)
        assert all(type(s.points) is PlacedRing for s in fills + borders)
        # The writer keeps each ring's text on the ring.
        for ring in {id(s.points): s.points for s in fills}.values():
            ring.texts.clear()
        emit_svg(scene)
        assert all(s.points.texts for s in fills)


def test_clamp_and_writer_read_the_ring_not_its_points():
    points = ((1.0, 1.0), (4.0, 1.0), (4.0, 3.0))
    ring = PlacedRing(points)
    assert ring.bounds == (1.0, 1.0, 4.0, 3.0) and ring.texts == {}
    scene = Scene(10.0, 5.0, (Polygon(ring), Polyline(ring)))
    assert clamp_scene(scene) is scene
    # Bounds that cross an edge send an on-canvas ring to clamp_shape,
    # which returns an equal shape: the clamp read the bounds.
    ring.bounds = (-1.0, 1.0, 4.0, 3.0)
    clamped = clamp_scene(scene)
    assert clamped is not scene and clamped == scene
    ring.texts[2] = "kept"
    assert 'points="kept"' in emit_svg(scene)


def test_polygon_on_a_placed_ring_equals_one_on_a_plain_tuple():
    points = ((0.5, 1.25), (3.0, -0.0), (2.125, 4.0))
    style = Style(fill="#336699", stroke="#000000", stroke_width=0.4)
    plain = Polygon(points, style, "region:CA")
    ring = Polygon(PlacedRing(points), style, "region:CA")
    assert ring == plain and plain == ring
    assert hash(ring) == hash(plain)
    assert len({ring, plain}) == 1
    assert PlacedRing(points) == points and hash(PlacedRing(points)) == hash(points)
    for dp in (0, 2, 6):
        options = SvgOptions(decimal_places=dp)
        for _ in range(2):  # text formatted, then text kept
            assert (emit_svg(Scene(10.0, 5.0, (ring,)), options)
                    == emit_svg(Scene(10.0, 5.0, (plain,)), options))
    empty = PlacedRing(())
    assert clamp_scene(Scene(10.0, 5.0, (Polygon(empty),))).shapes[0].points is empty
