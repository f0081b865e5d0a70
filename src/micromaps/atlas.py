"""Planar geometry for the 51 regions, and a small-map panel painter that
knows no groups or map modes: it fills each region as it is told.

The atlas interchange format is a GeoJSON-compatible FeatureCollection:
each feature carries properties ``code`` (USPS), ``name`` and ``fips`` with
Polygon or MultiPolygon geometry in pre-projected planar units (y grows
downward, matching the canvas). An optional top-level ``insets`` array of
``{code, translate: [dx, dy], scale: s}`` entries is applied at load time,
so everything downstream works in final coordinates. There is no projection
math anywhere in the engine: micromaps need recognizability, not geodesy.

The bundled default atlas uses coarse simplified state outlines with the
conventional Alaska/Hawaii insets and an enlarged offshore square for
Washington, DC, which is invisible at true scale.
"""

import json
import sys
from collections.abc import Mapping
from functools import cache
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from . import colors
from .errors import AtlasParse, IncompleteAtlas, UnknownRegion
from .glyphs import PanelFrame, shared_style
from .regions import ALL_CODES, region_lookup
from .scene import MAX_CANVAS, Layers, PlacedRing, Polygon, Style
from .values import value_type

Ring = tuple[tuple[float, float], ...]

BORDER_STYLE = Style(fill="none", stroke="#808080", stroke_width=0.4)


@value_type
class Atlas(NamedTuple):
    regions: Mapping[str, tuple[Ring, ...]]
    bounds: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax


def _parse_ring(raw: object, code: str) -> Ring:
    if not isinstance(raw, list) or len(raw) < 3:
        raise AtlasParse(f"{code}: ring must be a list of >= 3 points")
    points: list[tuple[float, float]] = []
    for pt in raw:
        if not isinstance(pt, list) or len(pt) != 2 or not all(  # finite, no bool
                type(v) in (int, float) and abs(v) <= sys.float_info.max for v in pt):
            raise AtlasParse(f"{code}: bad point {pt!r}")
        points.append((float(pt[0]), float(pt[1])))
    if points[0] != points[-1]:
        points.append(points[0])
    if len(points) < 4:
        raise AtlasParse(f"{code}: ring has fewer than 3 distinct points")
    return tuple(points)


def _parse_geometry(geom: object, code: str) -> list[Ring]:
    if not isinstance(geom, dict):
        raise AtlasParse(f"{code}: missing geometry")
    gtype = geom.get("type")
    coords = geom.get("coordinates")
    if gtype == "Polygon":
        polys = [coords]
    elif gtype == "MultiPolygon":
        polys = coords
    else:
        raise AtlasParse(f"{code}: unsupported geometry type {gtype!r}")
    if not isinstance(polys, list) or not polys:
        raise AtlasParse(f"{code}: empty geometry")
    rings: list[Ring] = []
    for poly in polys:
        if not isinstance(poly, list) or not poly:
            raise AtlasParse(f"{code}: empty polygon")
        if len(poly) > 1:
            raise AtlasParse(f"{code}: polygons with holes are not supported")
        rings.append(_parse_ring(poly[0], code))
    return rings


def load_atlas(document: str) -> Atlas:
    """Parse and validate an atlas document; all 51 regions are required."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise AtlasParse(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise AtlasParse("document is not a FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list):
        raise AtlasParse("missing features array")

    regions: dict[str, list[Ring]] = {}
    for feature in features:
        props = feature.get("properties") if isinstance(feature, dict) else None
        if not isinstance(props, dict) or "code" not in props:
            raise AtlasParse("feature without a region code")
        code = str(props["code"])
        try:
            meta = region_lookup(code)
        except UnknownRegion:
            raise UnknownRegion(f"atlas feature for unknown region {code!r}") from None
        if meta.code in regions:
            raise AtlasParse(f"{meta.code}: repeated feature")
        regions[meta.code] = _parse_geometry(feature.get("geometry"), meta.code)

    missing = sorted(set(ALL_CODES) - set(regions))
    if missing:
        raise IncompleteAtlas(f"atlas missing regions: {', '.join(missing)}")

    insets = doc.get("insets", [])
    if not isinstance(insets, list):
        raise AtlasParse("insets must be an array")
    for inset in insets:
        if not isinstance(inset, dict):
            raise AtlasParse("bad inset entry")
        code = str(inset.get("code", ""))
        if code not in regions:
            raise UnknownRegion(f"inset for unknown region {code!r}")
        try:
            dx, dy = inset["translate"]
            s = inset["scale"]
        except (KeyError, TypeError, ValueError):
            raise AtlasParse(f"{code}: inset needs translate [dx, dy] and scale") from None
        if not all(type(v) in (int, float) for v in (dx, dy, s)):  # no bool
            raise AtlasParse(f"{code}: inset translate and scale must be "
                             f"numbers, got {[dx, dy]!r} and {s!r}")
        if not all(abs(v) <= sys.float_info.max for v in (dx, dy, s)):
            raise AtlasParse(f"{code}: inset translate and scale must be finite")
        regions[code] = [
            tuple((dx + s * x, dy + s * y) for x, y in ring)
            for ring in regions[code]
        ]

    xs = [x for rings in regions.values() for ring in rings for x, _ in ring]
    ys = [y for rings in regions.values() for ring in rings for _, y in ring]
    bounds = (min(xs), min(ys), max(xs), max(ys))
    spans = (bounds[2] - bounds[0], bounds[3] - bounds[1])
    if not all(0 < span <= sys.float_info.max for span in spans):
        raise AtlasParse("atlas width and height must be finite and positive, "
                         "got {:g} and {:g}".format(*spans))
    if not all(MAX_CANVAS / span <= sys.float_info.max for span in spans):
        raise AtlasParse("atlas width and height are too small for a {:g} "
                         "canvas, got {:g} and {:g}".format(MAX_CANVAS, *spans))
    return Atlas({code: tuple(rings) for code, rings in regions.items()}, bounds)


@cache
def load_default_atlas() -> Atlas:
    """The bundled atlas, loaded once per process; its regions are read-only,
    so no caller can change them under another."""
    path = Path(__file__).parent / "data" / "us_atlas.json"
    atlas = load_atlas(path.read_text("utf-8"))
    return atlas._replace(regions=MappingProxyType(atlas.regions))


def _fit_transform(atlas: Atlas, frame: PanelFrame, pad: float = 0.04,
                   ) -> tuple[float, float, float, float, float]:
    """(ox, oy, s, xmin, ymin) that put (x, y) at ox + s*(x - xmin), oy + s*(y - ymin).

    ``pad`` is the margin on each side as a fraction of the frame.
    """
    xmin, ymin, xmax, ymax = atlas.bounds
    pad_x = frame.width * pad
    pad_y = frame.height * pad
    avail_w = frame.width - 2 * pad_x
    avail_h = frame.height - 2 * pad_y
    s = min(avail_w / (xmax - xmin), avail_h / (ymax - ymin))
    ox = frame.x + (frame.width - s * (xmax - xmin)) / 2.0
    oy = frame.y + (frame.height - s * (ymax - ymin)) / 2.0
    return ox, oy, s, xmin, ymin


# One record per map fit, kept across charts: (id(regions), fit, border
# style) -> (regions, its items, (code, tag, PlacedRing) in code order,
# border polygons, (ring index, color) -> fill polygon, made when the ring
# first shows that color under the fit). An entry holds its regions, so no
# other object has that id, and compares its items, so a ring replaced in
# place misses. A call that takes the fits, rings and fill polygons past
# _FITS_CAPACITY leaves only its own fit and that fit's rings.
_FITS: dict[tuple, tuple] = {}
_FITS_CAPACITY = 4096


def render_minimap(atlas: Atlas, frame: PanelFrame,
                   tinted: tuple[str, ...]) -> Layers:
    """Draw one small-map panel: every region in the neutral context fill,
    then each region of ``tinted`` in the cumulative tint, then each row's
    region of the frame in the row's color, the one its legend swatch and
    glyphs use. The region fills go to the ``fills`` layer and their
    borders to ``strokes``, which paints after every fill, keeping shared
    borders crisp.
    """
    fills = dict.fromkeys(atlas.regions, colors.CONTEXT_FILL)
    fills.update(dict.fromkeys(tinted, colors.CUMULATIVE_TINT))
    for row in frame.rows:
        fills[row.region] = row.color
    return _draw_map(atlas, fills, BORDER_STYLE, _fit_transform(atlas, frame))


def _draw_map(atlas: Atlas, fills: dict[str, str], stroke: Style,
              fit: tuple[float, float, float, float, float]) -> Layers:
    """Every region placed by ``fit`` (from _fit_transform): fills, borders.
    Rings, borders and fills in each color are made once per fit (_FITS)."""
    regions = atlas.regions
    items = tuple(regions.items())
    key = (id(regions), fit, stroke)
    entry = _FITS.get(key)
    if entry is None or entry[0] is not regions or entry[1] != items:
        ox, oy, s, xmin, ymin = fit
        rings = tuple((code, f"region:{code}",
                       PlacedRing([(ox + s * (x - xmin), oy + s * (y - ymin))
                                   for x, y in ring]))
                      for code in sorted(regions) for ring in regions[code])
        entry = _FITS[key] = (regions, items, rings, tuple(
            Polygon(points, stroke) for _, _, points in rings), {})
    colored = entry[4]
    known = len(colored)
    out = Layers()
    out.fills = [colored.get(k := (i, fills[code])) or colored.setdefault(
                     k, Polygon(points, shared_style(fill=k[1]), tag))
                 for i, (code, tag, points) in enumerate(entry[2])]
    out.strokes.extend(entry[3])
    if len(colored) > known and _FITS_CAPACITY < sum(
            1 + len(e[2]) + len(e[4]) for e in _FITS.values()):
        _FITS.clear()
        colored.clear()
        _FITS[key] = entry
    return out
