"""Strict JSON chart configuration.

Unknown keys are rejected with their full path, and enum/type violations
say exactly where they happened: this tool exists to produce evidence-grade
figures, so typos must fail loudly rather than be silently ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .atlas import CUMULATIVE, GROUP_ONLY
from .colors import DEFAULT_PALETTE, Palette
from .compose import COLUMN_KINDS, ChartSpec, ColumnSpec, validate_spec
from .errors import BadValue, ConfigSyntax, UnknownKey
from .layout import ASCENDING, DESCENDING, SortSpec

_TOP_KEYS = {"title", "data", "sort", "group_size", "map_mode", "columns",
             "output", "palette"}
_DATA_KEYS = {"path", "region_column", "series"}
_SORT_KEYS = {"column", "direction"}
_COLUMN_KEYS = {"kind", "header", "bindings", "options"}
_OUTPUT_KEYS = {"path", "width", "height", "decimal_places"}
_PALETTE_KEYS = {"slots", "median", "no_data"}
_OPTION_KEYS = {"weight", "reference_line", "name_style", "target_ticks"}


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


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise UnknownKey(f"{path}.{key}" if path else key)


def _require(obj: dict, key: str, path: str) -> object:
    if key not in obj:
        raise BadValue(f"{path}.{key}" if path else key, "required key missing")
    return obj[key]


def _as_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise BadValue(path, f"expected a string, got {type(value).__name__}")
    return value


def _as_number(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadValue(path, f"expected a number, got {type(value).__name__}")
    return float(value)


def _as_int(value: object, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadValue(path, f"expected an integer, got {type(value).__name__}")
    return value


def _as_object(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        raise BadValue(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_array(value: object, path: str) -> list:
    if not isinstance(value, list):
        raise BadValue(path, f"expected an array, got {type(value).__name__}")
    return value


def _enum(value: object, choices: tuple[str, ...], path: str) -> str:
    text = _as_str(value, path)
    if text not in choices:
        raise BadValue(path, f"must be one of {', '.join(choices)}; got {text!r}")
    return text


def _parse_header(value: object, path: str) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    lines = _as_array(value, path)
    if len(lines) > 2:
        raise BadValue(path, "at most two header lines")
    return tuple(_as_str(line, f"{path}[{i}]") for i, line in enumerate(lines))


def _parse_options(value: object, path: str) -> dict[str, object]:
    obj = _as_object(value, path)
    _check_keys(obj, _OPTION_KEYS, path)
    options: dict[str, object] = {}
    if "weight" in obj:  # its range is checked by validate_spec
        options["weight"] = _as_number(obj["weight"], f"{path}.weight")
    if "reference_line" in obj:
        options["reference_line"] = _as_number(obj["reference_line"],
                                               f"{path}.reference_line")
    if "name_style" in obj:
        options["name_style"] = _enum(obj["name_style"], ("full", "abbrev"),
                                      f"{path}.name_style")
    if "target_ticks" in obj:
        ticks = _as_int(obj["target_ticks"], f"{path}.target_ticks")
        if not 1 <= ticks <= 12:
            raise BadValue(f"{path}.target_ticks", "must be in 1..12")
        options["target_ticks"] = ticks
    return options


def _parse_column(value: object, path: str) -> ColumnSpec:
    obj = _as_object(value, path)
    _check_keys(obj, _COLUMN_KEYS, path)
    kind = _enum(_require(obj, "kind", path), COLUMN_KINDS, f"{path}.kind")
    header = _parse_header(obj["header"], f"{path}.header") if "header" in obj else ()
    bindings: dict[str, str] = {}
    if "bindings" in obj:
        raw = _as_object(obj["bindings"], f"{path}.bindings")
        bindings = {key: _as_str(ref, f"{path}.bindings.{key}")
                    for key, ref in raw.items()}
    options = _parse_options(obj["options"], f"{path}.options") \
        if "options" in obj else {}
    return ColumnSpec(kind, header, bindings, options)


def _parse_palette(value: object, path: str) -> Palette:
    obj = _as_object(value, path)
    _check_keys(obj, _PALETTE_KEYS, path)
    slots = DEFAULT_PALETTE.slots
    if "slots" in obj:
        raw = _as_array(obj["slots"], f"{path}.slots")
        if len(raw) != 5:
            raise BadValue(f"{path}.slots", "exactly five slot colors")
        slots = tuple(_as_str(c, f"{path}.slots[{i}]")
                      for i, c in enumerate(raw))  # type: ignore[assignment]
    median = _as_str(obj["median"], f"{path}.median") \
        if "median" in obj else DEFAULT_PALETTE.median
    no_data = _as_str(obj["no_data"], f"{path}.no_data") \
        if "no_data" in obj else DEFAULT_PALETTE.no_data
    return Palette(slots, median, no_data)


def parse_config(document: str) -> RenderConfig:
    """Parse and structurally validate a chart config document.

    Data-dependent validation (binding targets, sort column) happens later,
    once the referenced CSV has been loaded.
    """
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigSyntax(exc.lineno, exc.colno, exc.msg) from None
    root = _as_object(raw, "config")
    _check_keys(root, _TOP_KEYS, "")

    title = _as_str(_require(root, "title", ""), "title")

    data = _as_object(_require(root, "data", ""), "data")
    _check_keys(data, _DATA_KEYS, "data")
    data_path = _as_str(_require(data, "path", "data"), "data.path")
    region_column = _as_str(_require(data, "region_column", "data"),
                            "data.region_column")
    series: list[SeriesBinding] = []
    if "series" in data:
        for i, entry in enumerate(_as_array(data["series"], "data.series")):
            path = f"data.series[{i}]"
            obj = _as_object(entry, path)
            _check_keys(obj, {"name", "columns"}, path)
            name = _as_str(_require(obj, "name", path), f"{path}.name")
            cols = [_as_str(c, f"{path}.columns[{j}]") for j, c in
                    enumerate(_as_array(_require(obj, "columns", path),
                                        f"{path}.columns"))]
            series.append(SeriesBinding(name, tuple(cols)))

    sort_obj = _as_object(_require(root, "sort", ""), "sort")
    _check_keys(sort_obj, _SORT_KEYS, "sort")
    sort_column = _as_str(_require(sort_obj, "column", "sort"), "sort.column")
    direction = _enum(sort_obj["direction"], (ASCENDING, DESCENDING),
                      "sort.direction") if "direction" in sort_obj else DESCENDING

    group_size = 5
    if "group_size" in root:
        group_size = _as_int(root["group_size"], "group_size")
        if group_size < 1:
            raise BadValue("group_size", "must be >= 1")
    map_mode = _enum(root["map_mode"], (GROUP_ONLY, CUMULATIVE), "map_mode") \
        if "map_mode" in root else GROUP_ONLY

    columns = tuple(_parse_column(entry, f"columns[{i}]") for i, entry in
                    enumerate(_as_array(_require(root, "columns", ""), "columns")))

    width, height = 1000.0, 1300.0
    output_path: str | None = None
    decimal_places = 2
    if "output" in root:
        output = _as_object(root["output"], "output")
        _check_keys(output, _OUTPUT_KEYS, "output")
        if "path" in output:
            output_path = _as_str(output["path"], "output.path")
        if "width" in output:
            width = _as_number(output["width"], "output.width")
            if width <= 0:
                raise BadValue("output.width", "must be positive")
        if "height" in output:
            height = _as_number(output["height"], "output.height")
            if height <= 0:
                raise BadValue("output.height", "must be positive")
        if "decimal_places" in output:
            decimal_places = _as_int(output["decimal_places"],
                                     "output.decimal_places")
            if not 0 <= decimal_places <= 6:
                raise BadValue("output.decimal_places", "must be in 0..6")

    palette = _parse_palette(root["palette"], "palette") \
        if "palette" in root else DEFAULT_PALETTE

    spec = ChartSpec(title=title, sort=SortSpec(sort_column, direction),
                     columns=columns, group_size=group_size, map_mode=map_mode,
                     width=width, height=height, palette=palette)
    validate_spec(spec)  # anatomy only; table checks happen at render time
    return RenderConfig(spec, data_path, region_column, tuple(series),
                        output_path, decimal_places)
