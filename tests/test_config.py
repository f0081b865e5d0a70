from __future__ import annotations

import json

import pytest

from micromaps.config import SampleSource, parse_config
from micromaps.errors import ConfigSyntax, SpecError, UnknownKey

MINIMAL = {
    "title": "Chart",
    "data": {"path": "data.csv", "region_column": "state"},
    "sort": {"column": "rate"},
    "columns": [
        {"kind": "map"},
        {"kind": "legend", "header": "States"},
        {"kind": "dot", "header": ["Rate", "(%)"], "bindings": {"value": "rate"}},
    ],
}


def doc(**overrides) -> str:
    merged = {**MINIMAL, **overrides}
    return json.dumps(merged)


def test_minimal_config_defaults():
    config = parse_config(doc())
    assert config.spec.title == "Chart"
    assert config.spec.group_size == 5
    assert config.spec.sort.direction == "descending"
    assert config.spec.map_mode == "group_only"
    assert config.spec.width == 1000.0
    assert config.spec.height == 1300.0
    assert config.decimal_places == 2
    assert config.output_path is None
    assert config.data_path == "data.csv"
    assert config.region_column == "state"
    assert [c.kind for c in config.spec.columns] == ["map", "legend", "dot"]
    assert config.spec.columns[2].header == ("Rate", "(%)")


def test_unknown_top_level_key():
    with pytest.raises(UnknownKey) as err:
        parse_config(doc(colour="red"))
    assert err.value.path == "colour"


def test_unknown_nested_key_has_path():
    bad = {**MINIMAL, "columns": [{"kind": "map", "colour": "x"},
                                  {"kind": "legend"},
                                  {"kind": "dot", "bindings": {"value": "r"}}]}
    with pytest.raises(UnknownKey) as err:
        parse_config(json.dumps(bad))
    assert err.value.path == "columns[0].colour"


def test_syntax_error_reports_line_and_column():
    with pytest.raises(ConfigSyntax) as err:
        parse_config('{\n  "title": }')
    assert err.value.line == 2
    assert err.value.col == 12


def test_bad_direction_enum():
    bad = {**MINIMAL, "sort": {"column": "rate", "direction": "sideways"}}
    with pytest.raises(SpecError) as err:
        parse_config(json.dumps(bad))
    assert err.value.path == "sort.direction"


def test_bad_map_mode_enum():
    with pytest.raises(SpecError):
        parse_config(doc(map_mode="sparkly"))


def test_missing_required_key():
    bad = {k: v for k, v in MINIMAL.items() if k != "sort"}
    with pytest.raises(SpecError) as err:
        parse_config(json.dumps(bad))
    assert err.value.path == "sort"


def test_missing_map_column_is_spec_error():
    bad = {**MINIMAL, "columns": [{"kind": "legend"},
                                  {"kind": "dot", "bindings": {"value": "r"}}]}
    with pytest.raises(SpecError):
        parse_config(json.dumps(bad))


def test_group_size_validation():
    assert parse_config(doc(group_size=3)).spec.group_size == 3
    with pytest.raises(SpecError):
        parse_config(doc(group_size=0))
    with pytest.raises(SpecError):
        parse_config(doc(group_size=2.5))


def test_output_block():
    config = parse_config(doc(output={"path": "out.svg", "width": 800,
                                      "height": 900, "decimal_places": 3}))
    assert config.output_path == "out.svg"
    assert config.spec.width == 800.0
    assert config.spec.height == 900.0
    assert config.decimal_places == 3
    with pytest.raises(SpecError):
        parse_config(doc(output={"decimal_places": 9}))
    with pytest.raises(SpecError):
        parse_config(doc(output={"width": -5}))


def test_series_bindings():
    config = parse_config(doc(data={"path": "d.csv", "region_column": "state",
                                    "series": [{"name": "rr",
                                                "columns": ["2010", "2011"]}]}))
    assert config.series[0].name == "rr"
    assert config.series[0].columns == ("2010", "2011")


def test_palette_override():
    palette = {"slots": ["#1", "#2", "#3", "#4", "#5"], "median": "#M"}
    config = parse_config(doc(palette=palette))
    assert config.spec.palette.slots == ("#1", "#2", "#3", "#4", "#5")
    assert config.spec.palette.median == "#M"
    with pytest.raises(SpecError):
        parse_config(doc(palette={"slots": ["#1", "#2"]}))


def test_options_validation():
    cols = [{"kind": "map"}, {"kind": "legend"},
            {"kind": "dot", "bindings": {"value": "r"},
             "options": {"reference_line": 0, "weight": 2}}]
    config = parse_config(doc(columns=cols))
    assert config.spec.columns[2].options == {"reference_line": 0.0,
                                              "weight": 2.0}
    cols[2]["options"] = {"sparkle": True}
    with pytest.raises(UnknownKey) as err:
        parse_config(doc(columns=cols))
    assert err.value.path == "columns[2].options.sparkle"


def test_header_validation():
    cols = [{"kind": "map", "header": ["a", "b", "c"]}, {"kind": "legend"},
            {"kind": "dot", "bindings": {"value": "r"}}]
    with pytest.raises(SpecError):
        parse_config(doc(columns=cols))


def test_type_errors_have_paths():
    with pytest.raises(SpecError) as err:
        parse_config(doc(title=7))
    assert err.value.path == "title"
    with pytest.raises(SpecError) as err:
        parse_config(json.dumps({**MINIMAL, "data": "d.csv"}))
    assert err.value.path == "data"


def test_samples_and_join_blocks():
    data = {**MINIMAL["data"], "join": [{"path": "pew.csv"}],
            "samples": [{"name": "s", "path": "long.csv", "column": "x"}]}
    config = parse_config(doc(data=data))
    assert config.samples == (SampleSource("s", "long.csv", "x"),)
    assert config.join == ("pew.csv",)
    assert parse_config(doc()).samples == parse_config(doc()).join == ()


@pytest.mark.parametrize("block, error, path", [
    ({"samples": [{"name": "s", "path": "l.csv"}]}, SpecError,
     "data.samples[0].column"),
    ({"samples": [{"name": "s", "path": "l.csv", "column": "x",
                   "value": "y"}]}, UnknownKey, "data.samples[0].value"),
    ({"samples": {"name": "s"}}, SpecError, "data.samples"),
    ({"join": [{"path": 3}]}, SpecError, "data.join[0].path"),
    ({"join": ["pew.csv"]}, SpecError, "data.join[0]"),
])
def test_bad_samples_or_join_block_names_its_path(block, error, path):
    with pytest.raises(error) as err:
        parse_config(doc(data={**MINIMAL["data"], **block}))
    assert err.value.path == path
