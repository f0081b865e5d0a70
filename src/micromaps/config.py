"""Strict JSON chart configuration.

This module maps a JSON document onto ChartSpec and its parts. It rejects
unknown keys with their full path, missing required keys, and objects or
arrays of the wrong JSON shape; every rule on the values of the chart spec
(types, ranges, enums) is ``compose.validate_spec``, which every ChartSpec
runs when it is made, so a spec built through the Python API is checked
the same way. This tool exists to produce evidence-grade figures, so typos
must fail loudly rather than be silently ignored.
"""

import json
from typing import NamedTuple

from .colors import Palette
from .compose import ChartSpec, ColumnSpec, expect
from .errors import ConfigError, ConfigSyntax, SpecError, UnknownKey
from .layout import SortSpec
from .svg import check_decimal_places
from .values import value_type

_TOP_KEYS = {"title", "data", "sort", "group_size", "map_mode", "columns",
             "output", "palette"}
_DATA_KEYS = {"path", "region_column", "series", "samples", "join"}
_SORT_KEYS = {"column", "direction"}
_COLUMN_KEYS = {"kind", "header", "bindings", "options"}
_OUTPUT_KEYS = {"path", "width", "height", "decimal_places"}
_PALETTE_KEYS = {"slots", "median", "no_data"}


@value_type
class SeriesBinding(NamedTuple):
    name: str
    columns: tuple[str, ...]


@value_type
class SampleSource(NamedTuple):
    """A long CSV with one sample per row, bound as the series ``name``."""
    name: str
    path: str
    column: str


@value_type
class RenderConfig(NamedTuple):
    spec: ChartSpec
    data_path: str
    region_column: str
    series: tuple[SeriesBinding, ...]
    output_path: str | None
    decimal_places: int
    samples: tuple[SampleSource, ...] = ()
    join: tuple[str, ...] = ()  # the path of each join file


def _object(value: object, path: str, allowed: set[str]) -> dict:
    obj = expect(value, dict, path or "config")
    for key in obj:
        if key not in allowed:
            raise UnknownKey(f"{path}.{key}" if path else key)
    return obj


def _require(obj: dict, key: str, path: str) -> object:
    if key not in obj:
        raise SpecError(f"{path}.{key}" if path else key, "required key missing")
    return obj[key]


def _entries(data: dict, key: str) -> list[tuple[str, object]]:
    """Each entry of the list ``data.<key>``, with its config path."""
    return [(f"data.{key}[{i}]", entry) for i, entry in
            enumerate(expect(data.get(key, []), list, f"data.{key}"))]


def _strings(value: object, path: str, keys: tuple[str, ...]) -> tuple[str, ...]:
    """An object whose ``keys`` are all required strings, in that order."""
    obj = _object(value, path, set(keys))
    return tuple(expect(_require(obj, key, path), str, f"{path}.{key}")
                 for key in keys)


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
    """Map a chart config document onto a RenderConfig, whose ChartSpec
    checks the spec's values as it is made. Data-dependent validation
    (binding targets, sort column) happens later, once the referenced CSV
    has been loaded.
    """
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigSyntax(exc.lineno, exc.colno, exc.msg) from None
    except ValueError as exc:  # an integer literal past the digit limit
        detail = str(exc).split(";")[0]  # drop the hint about sys settings
        raise ConfigError(f"cannot decode config: {detail}") from None
    except RecursionError:
        raise ConfigError("cannot decode config: nested too deeply") from None
    root = _object(raw, "", _TOP_KEYS)
    _require(root, "title", "")

    data = _object(_require(root, "data", ""), "data", _DATA_KEYS)
    data_path = expect(_require(data, "path", "data"), str, "data.path")
    region_column = expect(_require(data, "region_column", "data"), str,
                           "data.region_column")
    series: list[SeriesBinding] = []
    for path, entry in _entries(data, "series"):
        obj = _object(entry, path, {"name", "columns"})
        name = expect(_require(obj, "name", path), str, f"{path}.name")
        cols = [expect(c, str, f"{path}.columns[{j}]") for j, c in
                enumerate(expect(_require(obj, "columns", path), list,
                                 f"{path}.columns"))]
        series.append(SeriesBinding(name, tuple(cols)))
    samples = tuple(SampleSource(*_strings(entry, path, SampleSource._fields))
                    for path, entry in _entries(data, "samples"))
    join = tuple(_strings(entry, path, ("path",))[0]
                 for path, entry in _entries(data, "join"))

    sort = _object(_require(root, "sort", ""), "sort", _SORT_KEYS)
    _require(sort, "column", "sort")

    columns = tuple(_parse_column(entry, f"columns[{i}]") for i, entry in
                    enumerate(expect(_require(root, "columns", ""), list,
                                     "columns")))

    output = _object(root.get("output", {}), "output", _OUTPUT_KEYS)
    output_path = expect(output["path"], str, "output.path") \
        if "path" in output else None
    decimal_places = check_decimal_places(output.get("decimal_places", 2))

    fields = {key: root[key] for key in ("title", "group_size", "map_mode")
              if key in root}
    fields.update((key, output[key]) for key in ("width", "height")
                  if key in output)
    if "palette" in root:
        fields["palette"] = _parse_palette(root["palette"])
    spec = ChartSpec(sort=SortSpec(**sort), columns=columns, **fields)
    return RenderConfig(spec, data_path, region_column, tuple(series),
                        output_path, decimal_places, samples, join)
