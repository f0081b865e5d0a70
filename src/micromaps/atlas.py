"""Planar geometry for the 51 regions and the small-map column renderer.

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
from pathlib import Path
from typing import NamedTuple

from . import colors
from .errors import AtlasParse, IncompleteAtlas, UnknownRegion
from .glyphs import PanelFrame, shared_style
from .layout import LinkedLayout
from .regions import ALL_CODES, region_lookup
from .scene import Layers, Polygon, Style
from .values import value_type

Ring = tuple[tuple[float, float], ...]

GROUP_ONLY = "group_only"
CUMULATIVE = "cumulative"

# Sentinel group index for the trailing no-data panel.
NO_DATA_PANEL = -1

BORDER_STYLE = Style(fill="none", stroke="#808080", stroke_width=0.4)


@value_type
class Atlas(NamedTuple):
    regions: dict[str, tuple[Ring, ...]]
    bounds: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax


def _parse_ring(raw: object, code: str) -> Ring:
    if not isinstance(raw, list) or len(raw) < 3:
        raise AtlasParse(f"{code}: ring must be a list of >= 3 points")
    points: list[tuple[float, float]] = []
    for pt in raw:
        if (not isinstance(pt, list) or len(pt) != 2
                or not all(isinstance(v, (int, float)) for v in pt)):
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
            dx, dy = (float(v) for v in inset["translate"])
            s = float(inset["scale"])
        except (KeyError, TypeError, ValueError):
            raise AtlasParse(f"{code}: inset needs translate [dx, dy] and scale") from None
        regions[code] = [
            tuple((dx + s * x, dy + s * y) for x, y in ring)
            for ring in regions[code]
        ]

    xs = [x for rings in regions.values() for ring in rings for x, _ in ring]
    ys = [y for rings in regions.values() for ring in rings for _, y in ring]
    bounds = (min(xs), min(ys), max(xs), max(ys))
    return Atlas({code: tuple(rings) for code, rings in regions.items()}, bounds)


def load_default_atlas() -> Atlas:
    path = Path(__file__).parent / "data" / "us_atlas.json"
    return load_atlas(path.read_text("utf-8"))


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


# Placed rings, kept across charts: (id(ring), ox, oy, s, xmin, ymin) ->
# (ring, placed). Each entry holds its ring, so no other object has that id.
_PLACED: dict[tuple, tuple[Ring, Ring]] = {}
_PLACED_CAPACITY = 4096


def _place(ring: Ring, ox: float, oy: float, s: float, xmin: float,
           ymin: float) -> Ring:
    """The ring at ox + s*(x - xmin), oy + s*(y - ymin); one tuple per fit."""
    key = (id(ring), ox, oy, s, xmin, ymin)
    entry = _PLACED.get(key)
    if entry is None or entry[0] is not ring:
        placed = tuple([(ox + s * (x - xmin), oy + s * (y - ymin))
                        for x, y in ring])
        if len(_PLACED) >= _PLACED_CAPACITY:
            _PLACED.clear()
        entry = _PLACED[key] = (ring, placed)
    return entry[1]


def _fill_for(code: str, layout: LinkedLayout, group_index: int,
              mode: str) -> str:
    """A region's fill when the panel's rows do not name it."""
    group = layout.group_of.get(code)
    if mode == CUMULATIVE and group is not None:
        median = layout.plan.median_group_index
        # With no median group the halves split between the two middle
        # indices; the fractional boundary keeps the comparisons strict.
        boundary = float(median) if median is not None \
            else (len(layout.plan.sizes) - 1) / 2.0
        if group_index < boundary and group < group_index:
            return colors.CUMULATIVE_TINT
        if group_index > boundary and group > group_index:
            return colors.CUMULATIVE_TINT
    return colors.CONTEXT_FILL


def render_minimap(atlas: Atlas, layout: LinkedLayout, group_index: int,
                   mode: str, frame: PanelFrame) -> Layers:
    """Draw one small-map panel.

    group_only mode fills each row's region of the frame in the row's
    color, the one its legend swatch and glyphs use, over a neutral
    context. cumulative mode additionally tints the regions of groups
    already shown between this panel and its side's extreme (above the
    median: all smaller group indices; below: all larger), so shading
    accumulates toward the median; the median panel tints nothing. The
    region fills go to the ``fills`` layer and their borders to ``strokes``,
    which paints after every fill, keeping shared borders crisp.
    """
    if group_index != NO_DATA_PANEL and not (
            0 <= group_index < len(layout.plan.sizes)):
        raise ValueError(f"bad group index {group_index}")
    fills = {code: _fill_for(code, layout, group_index, mode)
             for code in atlas.regions}
    for row in frame.rows:
        fills[row.region] = row.color
    return _draw_map(atlas, fills, BORDER_STYLE, _fit_transform(atlas, frame))


def _draw_map(atlas: Atlas, fills: dict[str, str], stroke: Style,
              fit: tuple[float, float, float, float, float]) -> Layers:
    """Every region placed by ``fit`` (from _fit_transform): fills, borders."""
    ox, oy, s, xmin, ymin = fit
    out = Layers()
    for code in sorted(atlas.regions):
        fill = shared_style(fill=fills[code])
        region = f"region:{code}"
        for ring in atlas.regions[code]:
            points = _place(ring, ox, oy, s, xmin, ymin)
            out.fills.append(Polygon(points, fill, tag=region))
            out.strokes.append(Polygon(points, stroke))
    return out
