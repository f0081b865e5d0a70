"""Grammar fuzz of the CLI front door: ``validate`` and ``render`` agree.

Configs are built from a JSON grammar that mutates column kinds, bindings,
the sort column, options and the canvas size, and run against one small
CSV with an all-empty column, a bound series and an all-empty series. Each
config must either render a well-formed SVG or fail with exactly one
``micromaps: error: <path>: ...`` line, and ``validate`` must end the same
way as ``render``, since it runs everything ``render`` runs except the write.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import warnings
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from micromaps.atlas import ALL_CODES
from micromaps.cli import EXIT_OK, EXIT_VALIDATION, run

CODES = ALL_CODES[:12]
BINDINGS = {"dot": ("value",), "bar": ("value",), "arrow": ("start", "end"),
            "timeseries": ("series",), "boxplot": ("samples",),
            "scatter": ("x", "y")}
SCALARS = ("v", "w", "flat", "big", "huge", "ss:a", "ss:b", "empty", "es:e1")
SERIES = ("ss", "es")
REFS = SCALARS + SERIES + ("nope", "", "ss:z", 7)
NUMBERS = (0, 1, 2.5, -1, 1e-3, 60, 1e6, 1e300, 1.7e308, -1.7e308,
           float("inf"), float("nan"), "7", True, None)
OPTIONS = {"weight": NUMBERS, "reference_line": NUMBERS,
           "target_ticks": (1, 5, 12, 0, 13, 2.0),
           "name_style": ("full", "abbrev", "short"), "colour": (1,)}
TOP_VALUES = {"title": (1, None, "Ctl\x01"), "group_size": (1, 0, 6, "5", 2.5),
              "map_mode": ("cumulative", "rainbow"),
              "palette": ({"median": "#123456"}, {"slots": ["#000"]})}
DATA = {"path": "data.csv", "region_column": "state",
        "series": [{"name": "ss", "columns": ["a", "b"]},
                   {"name": "es", "columns": ["e1", "e2"]}]}
BIG = "1" + "0" * 308  # just under the largest float; the span overflows
# One error line naming a config path: "columns[2].bindings.value: ...".
PATH_LINE = re.compile(r"micromaps: error: (unknown key: \S+|"
                       r"[a-z_]+(\[\d+\])?(\.[a-z_]+(\[\d+\])?)*: .+)\n")


def _csv() -> str:
    lines = ["state,v,w,flat,big,huge,empty,a,b,e1,e2"]
    for i, code in enumerate(CODES):
        v = "" if i in (3, 7) else str(10 * i - 25)
        w = "" if i % 2 else str(i * 0.5)
        big = "-" + BIG if i % 2 else BIG
        a = "" if i == 5 else str(i)
        lines.append(f"{code},{v},{w},4,{big},{BIG},,{a},{i * i},,")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "data.csv").write_text(_csv(), "utf-8")
    return path


@st.composite
def glyph_columns(draw):
    """A well-formed glyph column; its refs may still be empty or huge."""
    kind = draw(st.sampled_from(tuple(BINDINGS)))
    pool = SERIES if kind in ("timeseries", "boxplot") else SCALARS
    column = {"kind": kind, "header": draw(st.sampled_from(
        ("Rate", ["Rate", "(%)"]))),
        "bindings": {key: draw(st.sampled_from(pool))
                     for key in BINDINGS[kind]}}
    if kind == "dot" and draw(st.booleans()):
        column["options"] = {"reference_line": draw(st.sampled_from(
            (0, 30, -1e9)))}
    return column


@st.composite
def mutate(draw, config):
    """Break one part of a well-formed config (or leave it well-formed)."""
    columns = config["columns"]
    glyphs = [c for c in columns if c["kind"] not in ("map", "legend")]
    target = draw(st.sampled_from(
        ("none", "top", "sort", "output", "kind", "binding", "bindings",
         "option", "header", "drop", "repeat")))
    if target == "top":
        key = draw(st.sampled_from(sorted(TOP_VALUES)))
        config[key] = draw(st.sampled_from(TOP_VALUES[key]))
    elif target == "sort":
        config["sort"] = draw(st.sampled_from((
            {"column": draw(st.sampled_from(REFS))},
            {"column": "v", "direction": "sideways"},
            {"column": "v", "direction": "ascending"})))
    elif target == "output":
        key = draw(st.sampled_from(("width", "height", "decimal_places")))
        values = (0, 6, 7, "2") if key == "decimal_places" else NUMBERS
        config.setdefault("output", {})[key] = draw(st.sampled_from(values))
    elif target == "drop":
        columns.pop(draw(st.integers(0, len(columns) - 1)))
    elif target == "repeat":
        columns.append(draw(st.sampled_from(columns)))
    elif target != "none":
        column = draw(st.sampled_from(glyphs or columns))
        if target == "kind":
            column["kind"] = draw(st.sampled_from(
                tuple(BINDINGS) + ("map", "legend", "pie", 3)))
        elif target == "binding":
            key = draw(st.sampled_from(sorted(column.get("bindings", {}))
                                       or ["value"]))
            column.setdefault("bindings", {})[key] = draw(
                st.sampled_from(REFS))
        elif target == "bindings":
            column["bindings"] = draw(st.dictionaries(st.sampled_from(
                ("value", "start", "end", "series", "x", "extra")),
                st.sampled_from(REFS), max_size=2))
        elif target == "option":
            key = draw(st.sampled_from(sorted(OPTIONS)))
            column.setdefault("options", {})[key] = draw(
                st.sampled_from(OPTIONS[key]))
        else:
            column["header"] = draw(st.sampled_from((3, ["a", "b", "c"])))
    return config


@st.composite
def configs(draw):
    legend = {"kind": "legend"}
    if draw(st.booleans()):
        legend["options"] = {"name_style": "abbrev"}
    columns = draw(st.permutations(
        [{"kind": "map"}, legend]
        + draw(st.lists(glyph_columns(), min_size=1, max_size=3))))
    config = {
        "title": draw(st.sampled_from(("Fuzz", ""))),
        "data": DATA,
        "sort": {"column": draw(st.sampled_from(("v", "w", "ss:b")))},
        "columns": columns,
    }
    for _ in range(draw(st.integers(0, 2))):
        config = draw(mutate(config))
    return config


def _chart(glyph: dict, **top) -> dict:
    """A well-formed config with one glyph column, for pinned examples."""
    return {"title": "Fuzz",
            "data": DATA,
            "sort": {"column": "v"},
            "columns": [{"kind": "map"}, {"kind": "legend"}, glyph], **top}


def _run(workdir, command: str) -> tuple[int, str]:
    args = [command, "--config", str(workdir / "fuzz.json"), "--quiet"]
    if command == "render":
        args += ["--out", str(workdir / "fuzz.svg")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
            io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run(args)
    return code, err.getvalue()


@settings(max_examples=60, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(config=configs())
# Found by this test: a span past the largest float failed as "bad raw step
# inf" with no path, and a tick step near it raised OverflowError.
@example(config=_chart({"kind": "dot", "bindings": {"value": "big"}}))
@example(config=_chart({"kind": "arrow",
                        "bindings": {"start": "big", "end": "v"}}))
@example(config=_chart({"kind": "dot", "bindings": {"value": "v"},
                        "options": {"reference_line": 1.7e308,
                                    "target_ticks": 1}}))
@example(config=_chart({"kind": "dot", "bindings": {"value": "huge"},
                        "options": {"reference_line": -1.7e308}}))
# Data faults that validate passed, or that failed with no path.
@example(config=_chart({"kind": "bar", "bindings": {"value": "empty"}}))
@example(config=_chart({"kind": "boxplot", "bindings": {"samples": "es"}}))
@example(config=_chart({"kind": "scatter", "bindings": {"x": "v", "y": "empty"}}))
@example(config=_chart({"kind": "dot", "bindings": {"value": "v"}},
                       sort={"column": "ss"}))
def test_validate_and_render_end_the_same_way(workdir, config):
    (workdir / "fuzz.json").write_text(json.dumps(config), "utf-8")
    svg = workdir / "fuzz.svg"
    svg.unlink(missing_ok=True)
    validated, validate_err = _run(workdir, "validate")
    rendered, render_err = _run(workdir, "render")
    assert rendered in (EXIT_OK, EXIT_VALIDATION), render_err
    assert (validated, validate_err) == (rendered, render_err)
    if rendered == EXIT_OK:
        assert render_err == ""
        ET.fromstring(svg.read_text("utf-8"))
    else:
        assert PATH_LINE.fullmatch(render_err), render_err
        assert not svg.exists()
