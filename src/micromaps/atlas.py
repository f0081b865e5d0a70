"""Planar geometry for the chart regions, and a small-map panel painter that
knows no groups or map modes: it fills each region as it is told.

The atlas interchange format is a GeoJSON-compatible FeatureCollection:
each feature carries properties ``code`` (USPS), ``name`` and ``fips`` with
Polygon or MultiPolygon geometry in pre-projected planar units (y grows
downward, matching the canvas). An optional top-level ``insets`` array of
``{code, translate: [dx, dy], scale: s}`` entries is applied at load time,
so everything downstream works in final coordinates. There is no projection
math anywhere in the engine: micromaps need recognizability, not geodesy.
The bundled atlas's feature properties are also the region list
(``BY_CODE``, ``ALL_CODES``, ``region_lookup``), decoded once per process
with the rings that ``load_default_atlas`` builds; any document given to
``load_atlas`` is checked against that list.

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
from typing import NamedTuple, Sequence

from . import colors
from .errors import AtlasParse, IncompleteAtlas, UnknownRegion
from .scene import (MAX_CANVAS, Layers, PanelFrame, PlacedRing, Polygon, Style,
                    shared_style)
from .values import value_type

Ring = tuple[tuple[float, float], ...]


@value_type
class RegionMeta(NamedTuple):
    code: str
    name: str
    fips: str


# Decoded once per process: the region list and load_default_atlas read it.
_DOCUMENT = json.loads(
    (Path(__file__).parent / "data" / "us_atlas.json").read_text("utf-8"))

BY_CODE: dict[str, RegionMeta] = {meta.code: meta for meta in sorted(
    (RegionMeta(**feature["properties"]) for feature in _DOCUMENT["features"]),
    key=lambda meta: meta.fips)}

ALL_CODES: tuple[str, ...] = tuple(sorted(BY_CODE))


def _normalize(key: str) -> str:
    # Punctuation-insensitive so "Washington, D.C." matches.
    return " ".join(key.replace(".", "").replace(",", " ").lower().split())


_LOOKUP: dict[str, RegionMeta] = {
    key: meta for meta in BY_CODE.values()
    for key in (_normalize(meta.code), _normalize(meta.name), meta.fips)}
_LOOKUP[_normalize("Washington DC")] = BY_CODE["DC"]  # "Washington D.C." too


def region_lookup(key: str) -> RegionMeta:
    """Resolve a USPS code, full name, FIPS code or "Washington DC" (with
    or without dots) to region metadata.

    Raises UnknownRegion for anything outside the atlas's regions
    (territories, typos, county names).
    """
    meta = _LOOKUP.get(_normalize(key))
    if meta is None:
        raise UnknownRegion(f"unknown region: {key!r}")
    return meta


BORDER_STYLE = Style(fill="none", stroke="#808080", stroke_width=0.4)


class _AtlasFields(NamedTuple):
    regions: Mapping[str, tuple[Ring, ...]]
    bounds: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax


@value_type
class Atlas(_AtlasFields):
    """Rings for exactly the bundled atlas's regions, checked when made (by
    ``._replace`` too) and held read-only; ``bounds`` is worked out from
    them."""

    __slots__ = ()

    def __new__(cls, regions: Mapping[str, Sequence]) -> "Atlas":
        if not isinstance(regions, Mapping):
            raise AtlasParse("atlas regions must map region codes to rings")
        held: dict[str, tuple[Ring, ...]] = {}
        for code, rings in regions.items():
            if code not in BY_CODE:
                raise UnknownRegion(f"atlas rings for unknown region {code!r}")
            if type(rings) not in (list, tuple) or not rings:
                raise AtlasParse(f"{code}: empty geometry")
            held[code] = tuple(_ring(ring, code) for ring in rings)
        missing = sorted(BY_CODE.keys() - held.keys())
        if missing:
            raise IncompleteAtlas(f"atlas missing regions: {', '.join(missing)}")
        xs, ys = zip(*(pt for rings in held.values() for ring in rings for pt in ring))
        bounds = (min(xs), min(ys), max(xs), max(ys))
        spans = (bounds[2] - bounds[0], bounds[3] - bounds[1])
        if not all(0 < span <= sys.float_info.max for span in spans):
            raise AtlasParse("atlas width and height must be finite and "
                             "positive, got {:g} and {:g}".format(*spans))
        if not all(MAX_CANVAS / span <= sys.float_info.max for span in spans):
            raise AtlasParse("atlas width and height are too small for a {:g} "
                             "canvas, got {:g} and {:g}".format(MAX_CANVAS, *spans))
        return super().__new__(cls, MappingProxyType(held), bounds)

    @classmethod
    def _make(cls, fields) -> "Atlas":  # _replace checks it, and refuses bounds
        return cls(next(iter(fields)))

    def __getnewargs__(self) -> tuple:  # for copy.copy
        return (self.regions,)


def _ring(raw: object, code: str) -> Ring:
    if type(raw) not in (list, tuple) or len(raw) < 3:
        raise AtlasParse(f"{code}: ring must be a list of >= 3 points")
    points: list[tuple[float, float]] = []
    for pt in raw:  # two finite ints or floats, not bools
        if type(pt) not in (list, tuple) or len(pt) != 2 or not (
                type(pt[0]) in (int, float) and type(pt[1]) in (int, float)
                and abs(pt[0]) <= sys.float_info.max >= abs(pt[1])):
            raise AtlasParse(f"{code}: bad point {pt!r}")
        points.append((float(pt[0]), float(pt[1])))
    if points[0] != points[-1]:
        points.append(points[0])
    if len(set(points)) < 3:
        raise AtlasParse(f"{code}: ring has fewer than 3 distinct points")
    return tuple(points)


def _outer_rings(geom: object, code: str) -> list:
    """A feature's rings as written, one per polygon; Atlas checks them."""
    if not isinstance(geom, dict):
        raise AtlasParse(f"{code}: missing geometry")
    gtype, polys = geom.get("type"), geom.get("coordinates")
    if gtype not in ("Polygon", "MultiPolygon"):
        raise AtlasParse(f"{code}: unsupported geometry type {gtype!r}")
    polys = [polys] if gtype == "Polygon" else polys
    if not isinstance(polys, list):
        raise AtlasParse(f"{code}: coordinates must be an array")
    for poly in polys:
        if not isinstance(poly, list) or not poly:
            raise AtlasParse(f"{code}: empty polygon")
        if len(poly) > 1:
            raise AtlasParse(f"{code}: polygons with holes are not supported")
    return [poly[0] for poly in polys]


def load_atlas(document: str) -> Atlas:
    """Parse an atlas document into an Atlas, its insets applied."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise AtlasParse(f"not valid JSON: {exc}") from None
    return _build_atlas(doc)


def _build_atlas(doc: object) -> Atlas:
    """The Atlas of a decoded atlas document, which it does not change."""
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise AtlasParse("document is not a FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list):
        raise AtlasParse("missing features array")

    regions: dict[str, list] = {}
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
        regions[meta.code] = _outer_rings(feature.get("geometry"), meta.code)

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
        # Moved once its points pass the ring rule; Atlas checks the result.
        regions[code] = [tuple((dx + s * x, dy + s * y) for x, y in _ring(ring, code))
                         for ring in regions[code]]
    return Atlas(regions)


@cache
def load_default_atlas() -> Atlas:
    """The bundled atlas, built once per process from the decoded document."""
    return _build_atlas(_DOCUMENT)


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
# style) -> (regions, (code, tag, PlacedRing) in code order, border
# polygons, (ring index, color) -> fill polygon, made when the ring first
# shows that color under the fit). An entry holds its regions, read-only
# like every Atlas's, so no other object has that id and no ring changes.
# A call that takes the fits, rings and fill polygons past _FITS_CAPACITY
# leaves only its own fit, that fit's rings with their SVG texts dropped,
# and the fill polygons it drew. So a ring's kept lines (svg._Writer) stay
# within its kept fills plus its border, however many colors it shows.
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
    key = (id(regions), fit, stroke)
    entry = _FITS.get(key)
    if entry is None or entry[0] is not regions:
        ox, oy, s, xmin, ymin = fit
        rings = tuple((code, f"region:{code}",
                       PlacedRing([(ox + s * (x - xmin), oy + s * (y - ymin))
                                   for x, y in ring]))
                      for code in sorted(regions) for ring in regions[code])
        entry = _FITS[key] = (regions, rings, tuple(
            Polygon(points, stroke) for _, _, points in rings), {})
    colored = entry[3]
    known = len(colored)
    out = Layers()
    out.fills = [colored.get(k := (i, fills[code])) or colored.setdefault(
                     k, Polygon(points, shared_style(fill=k[1]), tag))
                 for i, (code, tag, points) in enumerate(entry[1])]
    out.strokes.extend(entry[2])
    if len(colored) > known and _FITS_CAPACITY < sum(
            1 + len(e[1]) + len(e[3]) for e in _FITS.values()):
        _FITS.clear()
        _FITS[key] = entry
        colored.clear()
        colored.update(((i, p.style.fill), p) for i, p in enumerate(out.fills))
        for _, _, ring in entry[1]:  # lines of fills no longer kept
            ring.texts.clear()
    return out
