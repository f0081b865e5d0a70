"""The config and the Python API reject the same specs at the same path.

Each case is one invalid value, written once as JSON for ``parse_config``
and once as the equivalent fields of a ChartSpec, which is built with the
constructor and with ``_replace``. Both sides must raise the same exception
class naming the same path, so no ChartSpec holding the value exists. An
option that its column kind ignores, and a weight that leaves a column no
room, are also run through ``micromaps validate`` and ``micromaps render``.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from micromaps.atlas import ALL_CODES
from micromaps.cli import EXIT_VALIDATION, run
from micromaps.colors import DEFAULT_PALETTE, SLOT_COLORS
from micromaps.compose import (CUMULATIVE, GROUP_ONLY, ChartSpec, ColumnSpec,
                               compose)
from micromaps.config import parse_config
from micromaps.errors import MicromapError, SpecError, UnknownKey
from micromaps.layout import SortSpec
from micromaps.scene import Circle, Style

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


def weight_case(i, weight, path):
    """Two dot columns, the one at ``columns[i]`` given ``weight``."""
    dots = [{"kind": "dot", "bindings": {"value": "v"}} for _ in range(2)]
    dots[i - 2]["options"] = {"weight": weight}
    return case("top", "columns", [{"kind": "map"}, {"kind": "legend"}, *dots],
                SpecError, path,
                api=(ColumnSpec("map"), ColumnSpec("legend"),
                     *(ColumnSpec(**dot) for dot in dots)))


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
    case("top", "columns", 7, SpecError, "columns"),
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
    case("output", "width", 100000.5, SpecError, "output.width"),
    case("output", "height", 1.7e308, SpecError, "output.height"),
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
    # Rendering failed with a "bad range" error that named no path, while
    # validate said the config checked out.
    case("top", "columns", [{"kind": "map"}, {"kind": "legend"},
                            {"kind": "dot", "bindings": {"value": "v"},
                             "options": {"weight": 5e-324}},
                            {"kind": "dot", "bindings": {"value": "v"}}],
         SpecError, "columns[2].options.weight",
         api=(ColumnSpec("map"), ColumnSpec("legend"),
              ColumnSpec("dot", bindings={"value": "v"},
                         options={"weight": 5e-324}),
              ColumnSpec("dot", bindings={"value": "v"}))),
    case("top", "columns", [{"kind": "map"}, {"kind": "legend"}]
         + [{"kind": "dot", "bindings": {"value": "v"},
             "options": {"weight": 1e308}}] * 2,
         SpecError, "columns[2].options.weight",
         api=(ColumnSpec("map"), ColumnSpec("legend"))
         + (ColumnSpec("dot", bindings={"value": "v"},
                       options={"weight": 1e308}),) * 2),
    # A huge weight starves a column that sets none: the huge one is named,
    # before or after it. A tiny weight starves its own column.
    weight_case(2, 1e300, "columns[2].options.weight"),
    weight_case(3, 1e300, "columns[3].options.weight"),
    weight_case(2, 1e-300, "columns[2].options.weight"),
    # A part of the wrong type raised AttributeError in the API.
    case("top", "sort", "v", SpecError, "sort"),
    case("top", "palette", "#000", SpecError, "palette",
         api={"slots": SLOT_COLORS}),
    case("top", "columns", [{"kind": "map"}, {"kind": "legend"}, "dot"],
         SpecError, "columns[2]",
         api=(ColumnSpec("map"), ColumnSpec("legend"),
              {"kind": "dot", "bindings": {"value": "v"}})),
    # Value types are tuples, but none is a header or a palette's slots.
    case(("column", 2), "header", {"column": "v"}, SpecError,
         "columns[2].header", api=SortSpec("v")),
    case(("column", 2), "header", {"fill": "#000"}, SpecError,
         "columns[2].header", api=Style()),
    case("palette", "slots", {"fill": "#000"}, SpecError, "palette.slots",
         api=Style()),
    case("palette", "slots", {"cx": "#1"}, SpecError, "palette.slots",
         api=Circle(*SLOT_COLORS)),
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


def api_fields(where, key, value) -> dict:
    """The ChartSpec fields that hold the value, as BASE_SPEC's otherwise."""
    if where in ("top", "output"):
        return {key: value}
    if where == "sort":
        return {"sort": BASE_SPEC.sort._replace(**{key: value})}
    if where == "palette":
        return {"palette": DEFAULT_PALETTE._replace(**{key: value})}
    columns = list(BASE_SPEC.columns)
    i = where[1]
    change = {key: value} if where[0] == "column" else {"options": {key: value}}
    columns[i] = columns[i]._replace(**change)
    return {"columns": tuple(columns)}


def build(base: ChartSpec, fields: dict, replace: bool) -> ChartSpec:
    """``base`` with ``fields``, by ``_replace`` or by the constructor."""
    if replace:
        return base._replace(**fields)
    return ChartSpec(**{**base._asdict(), **fields})


def test_base_forms_are_valid(table51, square_atlas):
    assert parse_config(json.dumps(BASE)).spec == BASE_SPEC
    compose(BASE_SPEC, table51, square_atlas)


@pytest.mark.parametrize("where,key,value,api_value,error,path", CASES)
def test_config_and_api_reject_alike(where, key, value, api_value, error,
                                     path):
    fields = api_fields(where, key, api_value)
    raised = []
    for attempt in (lambda: parse_config(json_form(where, key, value)),
                    lambda: build(BASE_SPEC, fields, replace=False),
                    lambda: build(BASE_SPEC, fields, replace=True)):
        with pytest.raises(MicromapError) as info:
            attempt()
        raised.append((type(info.value), info.value.path))
    assert raised == [(error, path)] * 3


# Valid fields that no case sets, so the case's value stays the only fault.
_VALID_BASE = st.builds(
    BASE_SPEC._replace, title=st.text(max_size=8),
    group_size=st.integers(1, 5),
    map_mode=st.sampled_from((GROUP_ONLY, CUMULATIVE)),
    height=st.floats(100.0, 5000.0))


@given(st.sampled_from([case.values for case in CASES]), _VALID_BASE,
       st.booleans())
def test_no_case_can_be_built_into_a_spec(case, base, replace):
    where, key, _, api_value, error, path = case
    with pytest.raises(MicromapError) as info:
        build(base, api_fields(where, key, api_value), replace)
    assert (type(info.value), info.value.path) == (error, path)


@pytest.mark.parametrize("replace", [False, True], ids=["new", "_replace"])
def test_spec_keeps_copies_of_bindings_and_options(replace):
    bindings, options = {"value": "v"}, {"reference_line": 0.0}
    dot = ColumnSpec("dot", ("Value",), bindings, options)
    spec = build(BASE_SPEC, {"columns": BASE_SPEC.columns[:2] + (dot,)},
                 replace)
    twin = ChartSpec("Chart", SortSpec("v"), BASE_SPEC.columns[:2] + (
        ColumnSpec("dot", ("Value",), {"value": "v"},
                   {"reference_line": 0.0}),))
    bindings["value"], bindings["extra"] = 7, "v"
    options.clear()
    assert spec == twin
    for column in spec.columns:
        with pytest.raises(TypeError):
            column.bindings["value"] = "w"
        with pytest.raises(TypeError):
            column.options["weight"] = 2.0


# A known option on a column kind that ignores it: (index, column, key,
# value). Each of these rendered as if the option were absent.
IGNORED = [
    (2, {"kind": "timeseries", "bindings": {"series": "s"}}, "target_ticks",
     3),
    (2, {"kind": "bar", "bindings": {"value": "v"}}, "reference_line", 0.0),
    (2, {"kind": "scatter", "bindings": {"x": "v", "y": "v"}},
     "reference_line", 0.0),
    (0, {"kind": "map"}, "weight", 2.0),
    (1, {"kind": "legend"}, "weight", 2.0),
    (2, {"kind": "dot", "bindings": {"value": "v"}}, "name_style", "abbrev"),
]


@pytest.mark.parametrize(
    "index,column,key,value", IGNORED,
    ids=[f"{key}-on-{column['kind']}" for _, column, key, _ in IGNORED])
def test_ignored_option_is_rejected_by_api_and_cli(
        tmp_path, monkeypatch, capsys, index, column, key, value):
    path = f"columns[{index}].options.{key}"
    line = f"{path}: not used by a {column['kind']} column"
    columns = list(BASE_SPEC.columns)
    columns[index] = ColumnSpec(column["kind"],
                                bindings=column.get("bindings", {}),
                                options={key: value})
    with pytest.raises(SpecError) as info:
        BASE_SPEC._replace(columns=tuple(columns))
    assert (info.value.path, str(info.value)) == (path, line)

    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("state,v,a,b\n" + "\n".join(
        f"{code},{i},{2 * i},{3 * i}" for i, code in enumerate(ALL_CODES)))
    doc = copy.deepcopy(BASE)
    doc["data"]["series"] = [{"name": "s", "columns": ["a", "b"]}]
    doc["columns"][index] = {**column, "options": {key: value}}
    (tmp_path / "chart.json").write_text(json.dumps(doc))
    for command in ("validate", "render"):
        assert run([command, "--config", "chart.json"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("",
                                                f"micromaps: error: {line}\n")
    assert not (tmp_path / "chart.svg").exists()


@pytest.mark.parametrize("key,value", [("width", 1.7e308),
                                       ("height", 100001)])
def test_oversized_canvas_is_rejected_by_cli(tmp_path, monkeypatch, capsys,
                                             key, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("state,v\n" + "\n".join(
        f"{code},{i}" for i, code in enumerate(ALL_CODES)))
    doc = copy.deepcopy(BASE)
    doc["output"] = {"path": "chart.svg", key: value}
    (tmp_path / "chart.json").write_text(json.dumps(doc))
    for command in ("validate", "render"):
        assert run([command, "--config", "chart.json"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"micromaps: error: output.{key}: must be above 0 and at "
                "most 100000\n")
    assert not (tmp_path / "chart.svg").exists()


@pytest.mark.parametrize("i, weight, line", [
    (2, 1e300, "columns[2].options.weight: leaves columns[3] no room"),
    (3, 1e300, "columns[3].options.weight: leaves columns[2] no room"),
    (2, 1e-300, "columns[2].options.weight: leaves the column no room"),
])
def test_starving_weight_is_named_alike_by_api_and_cli(
        tmp_path, monkeypatch, capsys, i, weight, line):
    """A huge weight is blamed, not the column it squeezes; a tiny weight
    is its own column's fault."""
    doc = copy.deepcopy(BASE)
    doc["columns"].append(copy.deepcopy(doc["columns"][2]))
    doc["columns"][i]["options"] = {"weight": weight}
    with pytest.raises(SpecError) as info:
        parse_config(json.dumps(doc))
    message = str(info.value)
    assert message.startswith(line + " (width ")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("state,v\n" + "\n".join(
        f"{code},{i}" for i, code in enumerate(ALL_CODES)))
    (tmp_path / "chart.json").write_text(json.dumps(doc))
    for command in ("validate", "render"):
        assert run([command, "--config", "chart.json"]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"micromaps: error: {message}\n")
    assert not (tmp_path / "chart.svg").exists()
