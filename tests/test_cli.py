from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from micromaps.atlas import ALL_CODES
import micromaps.cli
import micromaps.demos
from micromaps.adapters import snapshot_text
from micromaps.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, run
from micromaps.demos import PEW_FILE
from micromaps.scene import Circle, Style
from micromaps.table import parse_table

from conftest import readme_api_blocks

CONFIG = {
    "title": "Rates",
    "data": {"path": "rates.csv", "region_column": "state"},
    "sort": {"column": "rate"},
    "columns": [
        {"kind": "map"},
        {"kind": "legend"},
        {"kind": "dot", "header": "Rate", "bindings": {"value": "rate"}},
    ],
}


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    csv_text = "state,rate\n" + "\n".join(
        f"{code},{50 + i}" for i, code in enumerate(ALL_CODES))
    (tmp_path / "rates.csv").write_text(csv_text)
    (tmp_path / "chart.json").write_text(json.dumps(CONFIG))
    return tmp_path


def test_render_from_config(workspace, capsys):
    assert run(["render", "--config", "chart.json"]) == 0
    out = workspace / "chart.svg"
    assert out.is_file()
    ET.fromstring(out.read_text())
    assert "wrote" in capsys.readouterr().out


def test_render_out_override(workspace):
    assert run(["render", "--config", "chart.json", "--out", "x/y.svg"]) == 0
    assert (workspace / "x" / "y.svg").is_file()


def test_render_missing_config_is_io_error(workspace, capsys):
    assert run(["render", "--config", "missing.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def test_render_bad_binding_is_validation_error(workspace, capsys):
    bad = dict(CONFIG, columns=[
        {"kind": "map"}, {"kind": "legend"},
        {"kind": "dot", "bindings": {"value": "nope"}},
    ])
    (workspace / "bad.json").write_text(json.dumps(bad))
    assert run(["render", "--config", "bad.json"]) == 1
    assert "columns[2].bindings.value" in capsys.readouterr().err


def test_render_unknown_key_is_validation_error(workspace, capsys):
    (workspace / "typo.json").write_text(json.dumps({**CONFIG, "colour": 1}))
    assert run(["render", "--config", "typo.json"]) == 1
    assert "colour" in capsys.readouterr().err


def test_render_quiet_suppresses_stdout(workspace, capsys):
    assert run(["render", "--config", "chart.json", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["render", "validate"])
def test_group_size_beyond_palette_is_validation_error(workspace, capsys,
                                                       command):
    (workspace / "big.json").write_text(json.dumps({**CONFIG,
                                                    "group_size": 13}))
    assert run([command, "--config", "big.json"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "group_size" in captured.err
    assert "Traceback" not in captured.err
    assert not (workspace / "big.svg").exists()


def test_validate_ok_writes_nothing(workspace, capsys):
    before = sorted(p.name for p in workspace.iterdir())
    assert run(["validate", "--config", "chart.json"]) == 0
    after = sorted(p.name for p in workspace.iterdir())
    assert before == after
    assert "check out" in capsys.readouterr().out


def test_validate_reports_spec_path(workspace, capsys):
    bad = dict(CONFIG, columns=[
        {"kind": "map"}, {"kind": "legend"},
        {"kind": "dot", "bindings": {"value": "ghost"}},
    ])
    (workspace / "bad.json").write_text(json.dumps(bad))
    assert run(["validate", "--config", "bad.json"]) == 1
    assert "ghost" in capsys.readouterr().err


def test_demo_writes_reproducible_svg(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["demo", "acs-dot", "--quiet"]) == 0
    first = (tmp_path / "acs-dot.svg").read_bytes()
    assert run(["demo", "acs-dot", "--quiet"]) == 0
    assert (tmp_path / "acs-dot.svg").read_bytes() == first
    ET.fromstring(first.decode())


def test_demo_unknown_name_rejected_by_argparse(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit):
        run(["demo", "nope"])


def test_demo_missing_snapshots_is_io_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["demo", "acs-dot", "--data", str(empty)]) == 2
    assert "acs_response_rates.csv" in capsys.readouterr().err


def test_demo_snapshot_that_cannot_be_read_is_io_error(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "acs_response_rates.csv").mkdir()  # there, but not a file
    assert run(["demo", "acs-dot", "--data", str(tmp_path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("micromaps: error: snapshot acs_response_rates.csv: ")
    assert "not found" not in err and err.count("\n") == 1


def test_demo_pew_without_csv_prints_instructions(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["demo", "acs-pew"]) == 0
    captured = capsys.readouterr()
    assert "pew_small_government.csv" in captured.out
    assert not (tmp_path / "acs-pew.svg").exists()


def test_demo_pew_with_csv_renders(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    from micromaps.adapters import default_data_dir
    data = tmp_path / "data"
    data.mkdir()
    for name in ("acs_response_rates.csv",):
        (data / name).write_text(
            (default_data_dir() / name).read_text())
    pew = "state,pro_small_government\n" + "\n".join(
        f"{code},{40 + i % 30}" for i, code in enumerate(ALL_CODES))
    (data / "pew_small_government.csv").write_text(pew)
    assert run(["demo", "acs-pew", "--data", str(data), "--quiet"]) == 0
    assert (tmp_path / "acs-pew.svg").is_file()


@pytest.mark.filterwarnings("ignore:sort column")
@pytest.mark.parametrize("name", ["acs-dot", "acs-timeseries", "qcew-arrows",
                                  "ers-snap", "ers-boxscatter"])
def test_all_bundled_demos_render(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run(["demo", name, "--quiet"]) == 0
    text = (tmp_path / f"{name}.svg").read_text()
    ET.fromstring(text)


def test_overflowing_cell_is_validation_error_naming_cell(workspace, capsys):
    rows = [f"{code},{50 + i}" for i, code in enumerate(ALL_CODES)]
    rows[3] = f"{ALL_CODES[3]},{'9' * 400}"
    (workspace / "rates.csv").write_text("state,rate\n" + "\n".join(rows))
    assert run(["render", "--config", "chart.json"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"row '{ALL_CODES[3]}', column 'rate'" in err
    assert "non-finite extent" not in err
    assert not (workspace / "chart.svg").exists()


@pytest.mark.parametrize("weight", [-1, 0])
def test_bad_weight_message_and_exit_code(workspace, capsys, weight):
    bad = dict(CONFIG, columns=CONFIG["columns"][:2] + [
        {**CONFIG["columns"][2], "options": {"weight": weight}}])
    (workspace / "bad.json").write_text(json.dumps(bad))
    assert run(["render", "--config", "bad.json"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "micromaps: error: columns[2].options.weight: must be positive\n")


@pytest.mark.parametrize("column,message", [
    ({"options": {"target_ticks": 0}},
     "columns[2].options.target_ticks: must be in 1..12"),
    ({"kind": "pie"}, "columns[2]: unknown column kind 'pie'"),
])
def test_spec_rule_message_and_exit_code(workspace, capsys, column, message):
    """Rules on the spec are checked as its ChartSpec is made, with the
    config's path."""
    bad = dict(CONFIG, columns=CONFIG["columns"][:2] + [
        {**CONFIG["columns"][2], **column}])
    (workspace / "bad.json").write_text(json.dumps(bad))
    assert run(["render", "--config", "bad.json"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"micromaps: error: {message}\n"
    assert not (workspace / "chart.svg").exists()


def test_control_characters_give_well_formed_svg(workspace):
    odd = dict(CONFIG, title="Rates\x01 2022\x0b",
               columns=CONFIG["columns"][:2] + [
                   {**CONFIG["columns"][2], "header": ["Rate\x1f", "(%)"]}])
    (workspace / "odd.json").write_text(json.dumps(odd))
    assert run(["render", "--config", "odd.json", "--quiet"]) == 0
    root = ET.fromstring((workspace / "odd.svg").read_text("utf-8"))
    texts = [el.text for el in root.iter() if el.text]
    assert "Rates 2022" in texts and "Rate" in texts


def _readme_config() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Chart config", 1)[1].split("```json\n", 1)[1]
    return json.loads(block.split("```", 1)[0])


def test_readme_config_example_renders(tmp_path, monkeypatch):
    """The README example draws a reference line at 0 on rates of 76-89%."""
    monkeypatch.chdir(tmp_path)
    config = _readme_config()
    assert config["columns"][2]["options"] == {"reference_line": 0}
    table = parse_table(snapshot_text("acs_response_rates.csv"), "state")
    years = ("2010", "2011", "2012")
    lines = ["state," + ",".join(years) + ",rate_2022"]
    for code in ALL_CODES:
        cells = [table.rows[code][year] for year in years + ("2022",)]
        lines.append(code + "," + ",".join(map(str, cells)))
    (tmp_path / "rates.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "readme.json").write_text(json.dumps(config))
    assert run(["render", "--config", "readme.json", "--quiet"]) == 0
    root = ET.fromstring((tmp_path / "chart.svg").read_text("utf-8"))
    assert root.find("{http://www.w3.org/2000/svg}title").text == config["title"]


def test_readme_python_api_example_runs(tmp_path, monkeypatch):
    """The Python blocks of README's Python API section run, in order, in
    one namespace, on the ACS 2022 response rates, and take every name
    from the package."""
    monkeypatch.chdir(tmp_path)
    blocks = readme_api_blocks()
    assert len(blocks) > 2
    table = parse_table(snapshot_text("acs_response_rates.csv"), "state")
    (tmp_path / "rates.csv").write_text("state,rate\n" + "".join(
        f"{code},{table.rows[code]['2022']}\n" for code in ALL_CODES))
    namespace: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in blocks:
            exec(block, namespace)
    ET.parse(tmp_path / "chart.svg")
    assert namespace["plan"].absent == ()


@pytest.mark.parametrize("value,detail", [
    pytest.param("1" * 5000, "Exceeds the limit", id="5000-digit-integer"),
    pytest.param("[" * 100_000 + "]" * 100_000, "nested too deeply",
                 id="100k-deep-array"),
])
def test_undecodable_config_is_validation_error(workspace, capsys, value,
                                                detail):
    """Valid JSON syntax that json cannot decode still gets one error line."""
    document = json.dumps(CONFIG)[:-1] + f', "group_size": {value}}}'
    (workspace / "bad.json").write_text(document)
    assert run(["render", "--config", "bad.json"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("micromaps: error: cannot decode config: ")
    assert detail in err and err.count("\n") == 1
    assert not (workspace / "bad.svg").exists()


@pytest.mark.parametrize("command", ["render", "validate"])
@pytest.mark.parametrize("which, name, text, latin1", [
    ("config", "chart.json", b'"Rates"', b'"Caf\xe9"'),
    ("data", "rates.csv", b"state,rate", b"state,rate\xe9"),
])
def test_file_not_utf8_is_one_line_validation_error(workspace, capsys, command,
                                                     which, name, text, latin1):
    path = workspace / name
    path.write_bytes(path.read_bytes().replace(text, latin1))
    assert run([command, "--config", "chart.json"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith(f"micromaps: error: cannot decode {which}: ")
    assert "0xe9" in captured.err
    assert captured.err.count("\n") == 1
    assert not (workspace / "chart.svg").exists()


def test_demo_snapshot_not_utf8_is_validation_error(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    name = "acs_response_rates.csv"
    (tmp_path / name).write_bytes(snapshot_text(name).encode() + b"\xe9")
    assert run(["demo", "acs-dot", "--data", str(tmp_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"micromaps: error: snapshot {name}: cannot decode: ")
    assert err.count("\n") == 1


def test_render_runs_the_check_gate(workspace, capsys, monkeypatch):
    import micromaps.cli
    compose = micromaps.cli.compose

    def recolored(*args):
        scene = compose(*args)
        i = next(i for i, shape in enumerate(scene.shapes)
                 if isinstance(shape, Circle) and shape.tag)
        shapes = list(scene.shapes)
        shapes[i] = shapes[i]._replace(style=Style(fill="#123456"))
        return scene._replace(shapes=tuple(shapes))

    monkeypatch.setattr(micromaps.cli, "compose", recolored)
    assert run(["render", "--config", "chart.json"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("micromaps: error: ") and "#123456" in err
    assert err.count("\n") == 1
    assert not (workspace / "chart.svg").exists()


def test_render_short_canvas_passes_the_gate(workspace):
    (workspace / "short.json").write_text(
        json.dumps({**CONFIG, "output": {"height": 100}}))
    assert run(["render", "--config", "short.json", "--quiet"]) == 0
    ET.fromstring((workspace / "short.svg").read_text())


def _write_fault_data(workspace: Path) -> dict:
    """A CSV with an all-empty column and two bound series, one all empty."""
    rows = [f"{code},{50 + i},,{i},{2 * i},," for i, code in enumerate(ALL_CODES)]
    (workspace / "faults.csv").write_text("state,rate,empty,a,b,e1,e2\n"
                                          + "\n".join(rows))
    return {"path": "faults.csv", "region_column": "state",
            "series": [{"name": "ss", "columns": ["a", "b"]},
                       {"name": "es", "columns": ["e1", "e2"]}]}


@pytest.mark.parametrize("change,line", [
    pytest.param({"columns": CONFIG["columns"][:2] + [
        {"kind": "dot", "bindings": {"value": "empty"}}]},
        "columns[2].bindings.value: column 'empty' has no values",
        id="empty-dot"),
    pytest.param({"columns": CONFIG["columns"][:2] + [
        {"kind": "timeseries", "bindings": {"series": "es"}}]},
        "columns[2].bindings.series: column 'es' has no values",
        id="empty-timeseries"),
    pytest.param({"columns": CONFIG["columns"][:2] + [
        {"kind": "timeseries", "bindings": {"series": "empty"}}]},
        "columns[2].bindings.series: 'empty' must name a series column",
        id="timeseries-on-empty-scalar"),
    pytest.param({"columns": CONFIG["columns"][:2] + [
        {"kind": "boxplot", "bindings": {"samples": "es"}}]},
        "columns[2].bindings.samples: column 'es' has no values",
        id="empty-boxplot"),
    pytest.param({"sort": {"column": "ss"}},
                 "sort.column: 'ss' names a whole series, not a value",
                 id="series-sort"),
])
def test_data_fault_is_one_line_at_its_path_in_validate_and_render(
        workspace, capsys, change, line):
    """validate runs what render runs, so both report the same line."""
    config = {**CONFIG, "data": _write_fault_data(workspace), **change}
    (workspace / "fault.json").write_text(json.dumps(config))
    for command in ("validate", "render"):
        assert run([command, "--config", "fault.json"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"micromaps: error: {line}\n"
        assert captured.out == ""
    assert not (workspace / "fault.svg").exists()


@pytest.mark.parametrize("binding, line", [
    pytest.param({"name": "t", "columns": ["rate", "rate"]},
                 "data.series[1].columns: repeated column in series binding",
                 id="repeated"),
    pytest.param({"name": "t", "columns": ["zz"]},
                 "data.series[1].columns: no column named 'zz'", id="absent"),
    pytest.param({"name": "t", "columns": ["e1", "ss"]},
                 "data.series[1].columns: column 'ss' is not scalar",
                 id="not-scalar"),
    pytest.param({"name": "t", "columns": []},
                 "data.series[1].columns: no columns named in series binding",
                 id="none"),
    pytest.param({"name": "rate", "columns": ["e1", "e2"]},
                 "data.series[1].name: column 'rate' already exists",
                 id="name-clash"),
])
@pytest.mark.parametrize("command", ["render", "validate"])
def test_series_binding_fault_is_one_line_at_its_path(
        workspace, capsys, command, binding, line):
    data = _write_fault_data(workspace)
    data["series"][1] = binding
    (workspace / "fault.json").write_text(json.dumps({**CONFIG, "data": data}))
    assert run([command, "--config", "fault.json"]) == EXIT_VALIDATION
    assert capsys.readouterr() == ("", f"micromaps: error: {line}\n")
    assert not (workspace / "fault.svg").exists()


def test_warning_is_one_line_on_stderr(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-m", "micromaps.cli", "demo", "ers-boxscatter",
         "--out", str(tmp_path / "ers.svg"), "--quiet"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ("micromaps: warning: sort column "
                           "'insecurity_change' is not shown by any glyph "
                           "column\n")


COUNTY = "ers_county_low_access_change.csv"


def _county_data(tmp_path: Path, edit) -> Path:
    """A --data directory for ers-boxscatter whose county file is edited."""
    data = tmp_path / "data"
    data.mkdir()
    name = "ers_state_indicators.csv"
    (data / name).write_text(snapshot_text(name))
    (data / COUNTY).write_text(edit(snapshot_text(COUNTY)))
    return data


def _sixth_line(row: str):
    """An edit that replaces the county file's sixth line with ``row``."""
    return lambda text: text.replace("\nAK,AK-005,-2.0\n", f"\n{row}\n")


@pytest.mark.parametrize("edit, detail", [
    pytest.param(_sixth_line("AK,AK-005"),
                 "row narrower than header at line 6", id="two-fields"),
    pytest.param(_sixth_line("AK,AK-005,-2.0,7"),
                 "row wider than header at line 6", id="extra-field"),
    pytest.param(_sixth_line("AK,AK-005,nan"),
                 "not a number: 'nan' at line 6", id="nan"),
    pytest.param(_sixth_line("AK,AK-005,-inf"),
                 "not a number: '-inf' at line 6", id="infinite"),
    pytest.param(_sixth_line("AK,AK-005,1_0"),
                 "not a number: '1_0' at line 6", id="underscore"),
    pytest.param(_sixth_line("AK,AK-005,1e5"),
                 "not a number: '1e5' at line 6", id="exponent"),
    pytest.param(_sixth_line("AK,AK-005," + "9" * 400),
                 f"number out of range: '{'9' * 400}' at line 6",
                 id="too-large"),
    pytest.param(lambda text: text.splitlines(keepends=True)[0],
                 "no sample rows", id="header-only"),
])
def test_county_file_fault_is_one_error_line(tmp_path, monkeypatch, capsys,
                                             edit, detail):
    monkeypatch.chdir(tmp_path)
    data = _county_data(tmp_path, edit)
    assert run(["demo", "ers-boxscatter", "--data", str(data),
                "--quiet"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"micromaps: error: snapshot {COUNTY}: {detail}\n")
    assert not (tmp_path / "ers-boxscatter.svg").exists()


@pytest.mark.filterwarnings("ignore:sort column")
def test_county_file_with_bom_renders_the_same_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = _county_data(tmp_path, lambda text: "\ufeff" + text)
    assert run(["demo", "ers-boxscatter", "--out", "plain.svg",
                "--quiet"]) == 0
    assert run(["demo", "ers-boxscatter", "--data", str(data), "--out",
                "bom.svg", "--quiet"]) == 0
    assert (tmp_path / "bom.svg").read_bytes() == \
        (tmp_path / "plain.svg").read_bytes()


@pytest.mark.filterwarnings("ignore:sort column")
def test_county_file_blank_lines_render_the_same_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = _county_data(tmp_path, lambda text: text.replace(
        "\nAK,AK-005,-2.0\n", "\n\nAK,AK-005,-2.0\n\n\n") + "\n")
    assert run(["demo", "ers-boxscatter", "--out", "plain.svg",
                "--quiet"]) == 0
    assert run(["demo", "ers-boxscatter", "--data", str(data), "--out",
                "blank.svg", "--quiet"]) == 0
    assert (tmp_path / "blank.svg").read_bytes() == \
        (tmp_path / "plain.svg").read_bytes()


def test_failed_write_is_one_line_io_error(workspace, capsys):
    (workspace / "blocker").write_text("")
    assert run(["render", "--config", "chart.json", "--out",
                "blocker/chart.svg"]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err.startswith("micromaps: error: cannot write output: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_demo_unreadable_config_is_one_line_io_error(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(micromaps.demos, "CONFIG_DIR", tmp_path / "none")
    assert run(["demo", "acs-dot"]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("micromaps: error: ") and "acs-dot.json" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "acs-dot.svg").exists()


def test_demo_join_column_clash_is_one_line_validation_error(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    name = "acs_response_rates.csv"
    (tmp_path / name).write_text(snapshot_text(name))
    (tmp_path / PEW_FILE).write_text("state,response_rate\nUT,1\n")
    assert run(["demo", "acs-pew", "--data", str(tmp_path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "micromaps: error: data.join[0]: column 'response_rate' "
        "already exists\n")
    assert not (tmp_path / "acs-pew.svg").exists()


@pytest.mark.parametrize("config, code", [("chart.json", EXIT_OK),
                                          ("missing.json", EXIT_IO)])
def test_main_sets_the_warning_format_and_exits_with_the_code(
        workspace, monkeypatch, config, code):
    monkeypatch.setattr(warnings, "formatwarning", warnings.formatwarning)
    monkeypatch.setattr(sys, "argv", ["micromaps", "validate", "--config",
                                      config])
    with pytest.raises(SystemExit) as done:
        micromaps.cli.main()
    assert done.value.code == code
    assert warnings.formatwarning(UserWarning("odd"), UserWarning, "x.py",
                                  1) == "micromaps: warning: odd\n"


SAMPLES = {"name": "s", "path": "long.csv", "column": "x"}


@pytest.mark.parametrize("name, text, code, detail", [
    ("long.csv", None, EXIT_IO, "not found in "),
    ("long.csv", "state,x\nUT,abc\n", EXIT_VALIDATION,
     "not a number: 'abc' at line 2"),
    ("long.csv", "state,y\nUT,1\n", EXIT_VALIDATION,
     "long.csv: needs state and x columns\n"),
    ("long.csv", "state,x\n", EXIT_VALIDATION, "long.csv: no sample rows\n"),
    ("long.csv", "state,x,x\nUT,1,2\n", EXIT_VALIDATION,
     "long.csv: duplicate header names\n"),
    ("long.csv", "state,x,state\nUT,1,ID\n", EXIT_VALIDATION,
     "long.csv: duplicate header names\n"),
    ("long.csv", "state,x\nUT,1\nZZ,2\nQQ,3\nZZ,4\n", EXIT_VALIDATION,
     "long.csv: rows for unknown regions: 'QQ', 'ZZ'\n"),
    # An empty key and a quoted key with a comma are each named as one.
    ("long.csv", 'state,x\n,5\n"Foo, Bar",1\nUT,1\n', EXIT_VALIDATION,
     "long.csv: rows for unknown regions: '', 'Foo, Bar'\n"),
    ("extra.csv", None, EXIT_IO, "not found in "),
    ("extra.csv", "state,w\nZZ,1\n", EXIT_VALIDATION,
     "unknown region: 'ZZ'"),
])
@pytest.mark.parametrize("command", ["render", "validate"])
def test_samples_or_join_file_fault_is_one_line_naming_it(
        workspace, capsys, command, name, text, code, detail):
    (workspace / "long.csv").write_text("state,x\nUT,1\n")
    (workspace / "extra.csv").write_text("state,w\nUT,1\n")
    if text is None:
        (workspace / name).unlink()
    else:
        (workspace / name).write_text(text)
    config = {**CONFIG, "data": {**CONFIG["data"], "samples": [SAMPLES],
                                 "join": [{"path": "extra.csv"}]}}
    (workspace / "blocks.json").write_text(json.dumps(config))
    assert run([command, "--config", "blocks.json"]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(f"micromaps: error: {name}: ")
    assert detail in captured.err and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (workspace / "blocks.svg").exists()


@pytest.mark.parametrize("name, text, code, detail", [
    pytest.param("ers-boxscatter", None, EXIT_IO, "not found in ",
                 id="missing-samples"),
    pytest.param("acs-pew", "state,pro_small_government\nUT,x\n",
                 EXIT_VALIDATION, "cannot parse cell", id="ill-formed-join"),
])
def test_demo_samples_or_join_file_fault_is_one_line_naming_it(
        tmp_path, monkeypatch, capsys, name, text, code, detail):
    monkeypatch.chdir(tmp_path)
    for snapshot in ("acs_response_rates.csv", "ers_state_indicators.csv"):
        (tmp_path / snapshot).write_text(snapshot_text(snapshot))
    faulty = COUNTY if text is None else PEW_FILE
    if text is not None:
        (tmp_path / faulty).write_text(text)
    assert run(["demo", name, "--data", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"micromaps: error: snapshot {faulty}: ")
    assert detail in err and err.count("\n") == 1
    assert not (tmp_path / f"{name}.svg").exists()
