"""The config and the Python API reject the same specs at the same path.

Each case is one invalid value, written once as JSON for ``parse_config``
and once as the equivalent ChartSpec for ``validate_spec`` and ``compose``.
Both sides must raise the same exception class naming the same path, and
``compose`` must not render.
"""

from __future__ import annotations

import copy
import json
from dataclasses import replace

import pytest

from micromaps.colors import DEFAULT_PALETTE
from micromaps.compose import ChartSpec, ColumnSpec, compose, validate_spec
from micromaps.config import parse_config
from micromaps.errors import BadValue, MicromapError, SpecError, UnknownKey
from micromaps.layout import SortSpec

BASE = {
    "title": "Chart",
    "data": {"path": "data.csv", "region_column": "state"},
    "sort": {"column": "v"},
    "columns": [
        {"kind": "map"},
        {"kind": "legend"},
        {"kind": "dot", "header": ["Value"], "bindings": {"value": "v"}},
    ],
}
BASE_SPEC = ChartSpec(
    title="Chart", sort=SortSpec("v"),
    columns=(ColumnSpec("map"), ColumnSpec("legend"),
             ColumnSpec("dot", header=("Value",), bindings={"value": "v"})))

SAME = object()  # the API value equals the JSON value


def case(where, key, value, error, path, api=SAME):
    api_value = value if api is SAME else api
    label = where if isinstance(where, str) else f"{where[0]}[{where[1]}]"
    return pytest.param(where, key, value, api_value, error, path,
                        id=f"{label}.{key}={value!r}")


CASES = [
    # Rendered through the API although parse_config rejected them.
    case(("options", 1), "name_style", "bogus", SpecError,
         "columns[1].options.name_style"),
    case(("options", 2), "target_ticks", 0, SpecError,
         "columns[2].options.target_ticks"),
    case(("options", 2), "target_ticks", 100, SpecError,
         "columns[2].options.target_ticks"),
    case(("options", 2), "target_ticks", 2.5, SpecError,
         "columns[2].options.target_ticks"),
    case(("options", 2), "sparkle", True, UnknownKey,
         "columns[2].options.sparkle"),
    case("output", "height", 0, SpecError, "output.height"),
    case("top", "group_size", True, SpecError, "group_size"),
    case("palette", "slots", ["#111", "#222", "#333"], SpecError,
         "palette.slots", api=("#111", "#222", "#333")),
    # Crashed in the API with a raw TypeError or ValueError.
    case("top", "title", 7, SpecError, "title"),
    case("output", "width", "1000", SpecError, "output.width"),
    case("top", "group_size", 2.5, SpecError, "group_size"),
    case(("column", 2), "header", ["Value", 7], SpecError,
         "columns[2].header[1]", api=("Value", 7)),
    case("palette", "slots", ["#1", "#2", 7, "#4", "#5"], SpecError,
         "palette.slots[2]", api=("#1", "#2", 7, "#4", "#5")),
    case("sort", "direction", "sideways", SpecError, "sort.direction"),
    # Failed in the API with a misleading or late error. A bare string is
    # a valid header in JSON, so its JSON twin is a header that is neither
    # a string nor an array.
    case(("column", 1), "header", 7, SpecError, "columns[1].header",
         api="U.S. States"),
    case(("column", 2), "bindings", {"value": 7}, SpecError,
         "columns[2].bindings.value"),
    case("output", "width", float("nan"), SpecError, "output.width"),
    # Rules both layers checked before, or only the config did.
    case("top", "group_size", 0, SpecError, "group_size"),
    case("top", "group_size", 6, SpecError, "group_size"),
    case("top", "map_mode", "sparkly", SpecError, "map_mode"),
    case("top", "map_mode", 7, SpecError, "map_mode"),
    case("output", "width", -5, SpecError, "output.width"),
    case("output", "height", float("inf"), SpecError, "output.height"),
    case("sort", "column", 7, SpecError, "sort.column"),
    case("sort", "direction", 7, SpecError, "sort.direction"),
    case("palette", "median", 7, SpecError, "palette.median"),
    case("palette", "no_data", 7, SpecError, "palette.no_data"),
    case(("column", 2), "kind", "pie", SpecError, "columns[2]"),
    case(("column", 2), "kind", 7, SpecError, "columns[2]"),
    case(("column", 2), "header", ["a", "b", "c"], SpecError,
         "columns[2].header", api=("a", "b", "c")),
    case(("column", 2), "bindings", ["v"], SpecError, "columns[2].bindings"),
    case(("column", 2), "bindings", {}, SpecError, "columns[2].bindings"),
    case(("column", 2), "bindings", {"value": "v", "extra": "v"}, SpecError,
         "columns[2].bindings"),
    case(("column", 2), "options", [], SpecError, "columns[2].options"),
    case(("options", 2), "weight", 0, SpecError, "columns[2].options.weight"),
    case(("options", 2), "weight", -1, SpecError,
         "columns[2].options.weight"),
    case(("options", 2), "weight", "abc", SpecError,
         "columns[2].options.weight"),
    case(("options", 2), "reference_line", "x", SpecError,
         "columns[2].options.reference_line"),
    case(("options", 2), "reference_line", float("inf"), SpecError,
         "columns[2].options.reference_line"),
    case(("options", 1), "name_style", 7, SpecError,
         "columns[1].options.name_style"),
    case(("options", 2), "target_ticks", True, SpecError,
         "columns[2].options.target_ticks"),
]


def json_form(where, key, value) -> str:
    doc = copy.deepcopy(BASE)
    if where == "top":
        doc[key] = value
    elif where in ("output", "palette", "sort"):
        doc.setdefault(where, {})[key] = value
    elif where[0] == "column":
        doc["columns"][where[1]][key] = value
    else:
        doc["columns"][where[1]]["options"] = {key: value}
    return json.dumps(doc)


def api_form(where, key, value) -> ChartSpec:
    if where in ("top", "output"):
        return replace(BASE_SPEC, **{key: value})
    if where == "sort":
        return replace(BASE_SPEC, sort=replace(BASE_SPEC.sort, **{key: value}))
    if where == "palette":
        return replace(BASE_SPEC,
                       palette=replace(DEFAULT_PALETTE, **{key: value}))
    columns = list(BASE_SPEC.columns)
    i = where[1]
    change = {key: value} if where[0] == "column" else {"options": {key: value}}
    columns[i] = replace(columns[i], **change)
    return replace(BASE_SPEC, columns=tuple(columns))


def test_base_forms_are_valid(table51, square_atlas):
    assert parse_config(json.dumps(BASE)).spec == BASE_SPEC
    compose(BASE_SPEC, table51, square_atlas)


@pytest.mark.parametrize("where,key,value,api_value,error,path", CASES)
def test_config_and_api_reject_alike(table51, square_atlas, where, key, value,
                                     api_value, error, path):
    spec = api_form(where, key, api_value)
    raised = []
    for attempt in (lambda: parse_config(json_form(where, key, value)),
                    lambda: validate_spec(spec),
                    lambda: compose(spec, table51, square_atlas)):
        with pytest.raises(MicromapError) as info:
            attempt()
        raised.append((type(info.value), info.value.path))
    assert raised == [(error, path)] * 3


def test_bad_value_is_spec_error():
    assert BadValue is SpecError
