"""Output checks that do not trust micromaps' own code.

Each chart is parsed with ``xml.etree``; its element counts per tag must
equal the Scene's shape counts per type; its map polygons must number
2 x map panels x the ring count of ``us_atlas.json`` (read here with plain
``json``); and two renders of one input must be byte-identical (checked by
the callers). The sha256 of each chart is recorded, never checked, so a
rendering change shows in the report without failing the run.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

# The SVG element each Scene shape type serializes to.
SHAPE_TAGS = {"Rect": "rect", "Circle": "circle", "Line": "line",
              "Polyline": "polyline", "Polygon": "polygon", "Path": "path",
              "Text": "text"}
# Every element the serializer writes, for per-element byte counts.
SVG_TAGS = ("svg", "title") + tuple(SHAPE_TAGS.values())


def atlas_ring_count(atlas_path: Path) -> int:
    doc = json.loads(atlas_path.read_text("utf-8"))
    rings = 0
    for feature in doc["features"]:
        geometry = feature["geometry"]
        if geometry["type"] == "Polygon":
            rings += 1
        else:
            rings += len(geometry["coordinates"])
    return rings


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bytes_by_element(text: str) -> dict[str, int]:
    """UTF-8 bytes per element tag; the serializer writes one element per
    line, and the closing ``</svg>`` line counts toward ``svg``.
    """
    out = dict.fromkeys(SVG_TAGS, 0)
    for line in text.splitlines(keepends=True):
        tag = line[1:].lstrip("/").split(" ", 1)[0].split(">", 1)[0].rstrip("/")
        out[tag] = out.get(tag, 0) + len(line.encode("utf-8"))
    return out


def shape_counts(scene) -> dict[str, int]:
    counts = Counter(type(shape).__name__ for shape in scene.shapes)
    return {name: counts.get(name, 0) for name in SHAPE_TAGS}


def check_svg(text: str, scene, rings: int) -> list[str]:
    """Problems found in one titled chart's SVG text; empty when sound."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"ill-formed XML: {exc}"]
    tags = Counter(el.tag.rpartition("}")[2] for el in root.iter())
    problems = []
    expected = {SHAPE_TAGS[name]: n for name, n in shape_counts(scene).items()
                if n}
    expected["svg"] = expected["title"] = 1
    if dict(tags) != expected:
        problems.append(f"element counts {dict(tags)} != scene {expected}")

    polygons = [el for el in root.iter() if el.tag.endswith("polygon")]
    borders = {el.get("points") for el in polygons if el.get("fill") == "none"}
    map_polygons = sum(1 for el in polygons if el.get("points") in borders)
    map_panels = sum(1 for panel in scene.panels if panel.kind == "map")
    if map_polygons != 2 * map_panels * rings:
        problems.append(f"{map_polygons} map polygons != 2 x {map_panels} "
                        f"panels x {rings} rings")
    return problems
