"""The demos shipped as chart configs, and the package data that carries them.

All six demos are plain chart configs under ``src/micromaps/data/demos``.
``micromaps demo <name>`` and ``micromaps render --config <that file>
--data <its snapshot>`` must write the same bytes, pinned for the five
demos whose data is bundled, and a truncated or reshaped snapshot must
fail with one error line.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

from micromaps.atlas import ALL_CODES
from micromaps.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, run
from micromaps.demos import CONFIG_DIR, DEMO_NAMES, PEW_FILE, build_demo

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "micromaps"
DATA = PACKAGE / "data"
PINS = json.loads((Path(__file__).parent / "golden" / "demo_sha256.json")
                  .read_text("utf-8"))
PINNED = tuple(name for name in DEMO_NAMES if name in PINS)
ACS = "acs_response_rates.csv"


def _config(name: str) -> dict:
    return json.loads((CONFIG_DIR / f"{name}.json").read_text("utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_demo_is_a_config():
    shipped = {path.stem for path in CONFIG_DIR.glob("*.json")}
    assert shipped == set(DEMO_NAMES)
    assert set(PINS) == set(DEMO_NAMES) - {"acs-pew"}


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_config_names_a_manifest_snapshot_and_no_output(name):
    config = _config(name)
    assert "output" not in config
    manifest = json.loads((DATA / "MANIFEST.json").read_text("utf-8"))
    data = config["data"]
    paths = [data["path"]] + [entry["path"] for entry in data.get("samples", [])]
    assert set(paths) <= set(manifest["files"])


@pytest.mark.filterwarnings("ignore:sort column")
@pytest.mark.parametrize("name", PINNED)
def test_demo_and_render_write_the_pinned_bytes(name, tmp_path):
    demo_svg, render_svg = tmp_path / "demo.svg", tmp_path / "render.svg"
    assert run(["demo", name, "--out", str(demo_svg), "--quiet"]) == EXIT_OK
    assert run(["render", "--config", str(CONFIG_DIR / f"{name}.json"),
                "--data", str(DATA / _config(name)["data"]["path"]),
                "--out", str(render_svg), "--quiet"]) == EXIT_OK
    assert _sha256(demo_svg) == _sha256(render_svg) == PINS[name]


def _pew_data(directory: Path) -> Path:
    """A snapshot directory with the ACS file and a synthetic Pew file."""
    directory.mkdir()
    shutil.copy(DATA / ACS, directory)
    (directory / PEW_FILE).write_text("state,pro_small_government\n" + "".join(
        f"{code},{40 + i % 30}\n" for i, code in enumerate(ALL_CODES)))
    return directory


def test_acs_pew_demo_and_render_write_the_same_bytes(tmp_path):
    data = _pew_data(tmp_path / "data")
    demo_svg, render_svg = tmp_path / "demo.svg", tmp_path / "render.svg"
    assert run(["demo", "acs-pew", "--data", str(data), "--out",
                str(demo_svg), "--quiet"]) == EXIT_OK
    assert run(["render", "--config", str(CONFIG_DIR / "acs-pew.json"),
                "--data", str(data / ACS), "--out", str(render_svg),
                "--quiet"]) == EXIT_OK
    assert demo_svg.read_bytes() == render_svg.read_bytes()
    spec, table = build_demo("acs-pew", data)
    assert [column.kind for column in spec.columns] == [
        "map", "legend", "dot", "arrow", "dot"]
    assert table.rows[ALL_CODES[0]]["pro_small_government"] == 40.0


@pytest.mark.filterwarnings("ignore:sort column")
@pytest.mark.parametrize("name", PINNED)
def test_copied_snapshot_directory_gives_the_same_bytes(name, tmp_path):
    snapshots = tmp_path / "snapshots"
    snapshots.mkdir()
    for csv_file in DATA.glob("*.csv"):
        shutil.copy(csv_file, snapshots)
    out = tmp_path / "chart.svg"
    assert run(["demo", name, "--data", str(snapshots), "--out", str(out),
                "--quiet"]) == EXIT_OK
    assert _sha256(out) == PINS[name]


@pytest.mark.filterwarnings("ignore:sort column")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shuffled_snapshot_rows_give_the_same_bytes(seed, tmp_path):
    """Row order, the county file's included, is not part of a chart."""
    rng = random.Random(seed)
    for csv_file in DATA.glob("*.csv"):
        header, *rows = csv_file.read_text("utf-8").splitlines()
        rng.shuffle(rows)
        (tmp_path / csv_file.name).write_text(
            "\n".join([header] + rows) + "\n", "utf-8")
    for name in PINNED:
        out = tmp_path / f"{name}.svg"
        assert run(["demo", name, "--data", str(tmp_path), "--out", str(out),
                    "--quiet"]) == EXIT_OK
        assert _sha256(out) == PINS[name], name


def _acs_demo_error(tmp_path, capsys, text: str | None) -> tuple[int, str]:
    if text is not None:
        (tmp_path / ACS).write_text(text, encoding="utf-8")
    code = run(["demo", "acs-dot", "--data", str(tmp_path),
                "--out", str(tmp_path / "chart.svg")])
    assert not (tmp_path / "chart.svg").exists()
    return code, capsys.readouterr().err


def test_truncated_snapshot_is_one_line_validation_error(tmp_path, capsys):
    lines = (DATA / ACS).read_text("utf-8").splitlines()
    code, err = _acs_demo_error(tmp_path, capsys, "\n".join(lines[:-1]) + "\n")
    assert code == EXIT_VALIDATION
    assert err == (f"micromaps: error: snapshot {ACS}: "
                   "expected 51 regions, got 50\n")


def test_snapshot_without_a_bound_column_is_one_line_error(tmp_path, capsys):
    lines = (DATA / ACS).read_text("utf-8").splitlines()
    text = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
    code, err = _acs_demo_error(tmp_path, capsys, text)
    assert code == EXIT_VALIDATION
    assert err.startswith(f"micromaps: error: snapshot {ACS}: ")
    assert "'2022'" in err
    assert err.count("\n") == 1


def test_absent_snapshot_is_io_error(tmp_path, capsys):
    code, err = _acs_demo_error(tmp_path, capsys, None)
    assert code == EXIT_IO
    assert err.startswith(f"micromaps: error: snapshot {ACS}: not found")
    assert err.count("\n") == 1


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs tomllib")
def test_package_data_globs_cover_every_data_file():
    import tomllib

    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml")
                              .read_text("utf-8"))
    globs = pyproject["tool"]["setuptools"]["package-data"]["micromaps"]
    packaged = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    files = {path for path in DATA.rglob("*")
             if path.is_file() and "__pycache__" not in path.parts}
    assert files - packaged == set()
