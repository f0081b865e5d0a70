"""Strict JSON chart configuration.

This module maps a JSON document onto ChartSpec and its parts. It rejects
unknown keys with their full path, missing required keys, and objects or
arrays of the wrong JSON shape; every rule on the values of the chart spec
(types, ranges, enums) belongs to ``compose.validate_spec``, which checks
specs built through the Python API the same way. This tool exists to
produce evidence-grade figures, so typos must fail loudly rather than be
silently ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .colors import Palette
from .compose import ChartSpec, ColumnSpec, expect, validate_spec
from .errors import BadValue, ConfigSyntax, UnknownKey
from .layout import SortSpec

_TOP_KEYS = {"title", "data", "sort", "group_size", "map_mode", "columns",
             "output", "palette"}
_DATA_KEYS = {"path", "region_column", "series"}
_SORT_KEYS = {"column", "direction"}
_COLUMN_KEYS = {"kind", "header", "bindings", "options"}
_OUTPUT_KEYS = {"path", "width", "height", "decimal_places"}
_PALETTE_KEYS = {"slots", "median", "no_data"}


@dataclass(frozen=True)
class SeriesBinding:
    name: str
    columns: tuple[str, ...]


@dataclass(frozen=True)
class RenderConfig:
    spec: ChartSpec
    data_path: str
    region_column: str
    series: tuple[SeriesBinding, ...]
    output_path: str | None
    decimal_places: int


def _object(value: object, path: str, allowed: set[str]) -> dict:
    obj = expect(value, dict, path or "config")
    for key in obj:
        if key not in allowed:
            raise UnknownKey(f"{path}.{key}" if path else key)
    return obj


def _require(obj: dict, key: str, path: str) -> object:
    if key not in obj:
        raise BadValue(f"{path}.{key}" if path else key, "required key missing")
    return obj[key]


def _parse_column(value: object, path: str) -> ColumnSpec:
    obj = _object(value, path, _COLUMN_KEYS)
    _require(obj, "kind", path)
    header = obj.get("header", [])
    if isinstance(header, str):
        obj["header"] = (header,)
    else:
        obj["header"] = tuple(expect(header, list, f"{path}.header"))
    return ColumnSpec(**obj)


def _parse_palette(value: object) -> Palette:
    obj = _object(value, "palette", _PALETTE_KEYS)
    if "slots" in obj:
        obj["slots"] = tuple(expect(obj["slots"], list, "palette.slots"))
    return Palette(**obj)


def parse_config(document: str) -> RenderConfig:
    """Map a chart config document onto a RenderConfig and validate its spec.

    Data-dependent validation (binding targets, sort column) happens later,
    once the referenced CSV has been loaded.
    """
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigSyntax(exc.lineno, exc.colno, exc.msg) from None
    root = _object(raw, "", _TOP_KEYS)
    _require(root, "title", "")

    data = _object(_require(root, "data", ""), "data", _DATA_KEYS)
    data_path = expect(_require(data, "path", "data"), str, "data.path")
    region_column = expect(_require(data, "region_column", "data"), str,
                           "data.region_column")
    series: list[SeriesBinding] = []
    for i, entry in enumerate(expect(data.get("series", []), list,
                                     "data.series")):
        path = f"data.series[{i}]"
        obj = _object(entry, path, {"name", "columns"})
        name = expect(_require(obj, "name", path), str, f"{path}.name")
        cols = [expect(c, str, f"{path}.columns[{j}]") for j, c in
                enumerate(expect(_require(obj, "columns", path), list,
                                 f"{path}.columns"))]
        series.append(SeriesBinding(name, tuple(cols)))

    sort = _object(_require(root, "sort", ""), "sort", _SORT_KEYS)
    _require(sort, "column", "sort")

    columns = tuple(_parse_column(entry, f"columns[{i}]") for i, entry in
                    enumerate(expect(_require(root, "columns", ""), list,
                                     "columns")))

    output = _object(root.get("output", {}), "output", _OUTPUT_KEYS)
    output_path = expect(output["path"], str, "output.path") \
        if "path" in output else None
    decimal_places = expect(output.get("decimal_places", 2), int,
                            "output.decimal_places")
    if not 0 <= decimal_places <= 6:
        raise BadValue("output.decimal_places", "must be in 0..6")

    fields = {key: root[key] for key in ("title", "group_size", "map_mode")
              if key in root}
    fields.update((key, output[key]) for key in ("width", "height")
                  if key in output)
    if "palette" in root:
        fields["palette"] = _parse_palette(root["palette"])
    spec = ChartSpec(sort=SortSpec(**sort), columns=columns, **fields)
    validate_spec(spec)  # anatomy only; table checks happen at render time
    return RenderConfig(spec, data_path, region_column, tuple(series),
                        output_path, decimal_places)
