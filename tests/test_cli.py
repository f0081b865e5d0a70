from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from micromaps.adapters import snapshot_text
from micromaps.cli import EXIT_VALIDATION, run
from micromaps.regions import ALL_CODES
from micromaps.table import parse_table

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


def test_demo_env_var_overrides_data_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MICROMAP_DATA_DIR", str(tmp_path / "nowhere"))
    assert run(["demo", "acs-dot"]) == 2
    capsys.readouterr()


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
    """Rules on the spec come from validate_spec, with the config's path."""
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
        cells = [table.scalar(code, year) for year in years + ("2022",)]
        lines.append(code + "," + ",".join(map(str, cells)))
    (tmp_path / "rates.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "readme.json").write_text(json.dumps(config))
    assert run(["render", "--config", "readme.json", "--quiet"]) == 0
    root = ET.fromstring((tmp_path / "chart.svg").read_text("utf-8"))
    assert root.find("{http://www.w3.org/2000/svg}title").text == config["title"]
