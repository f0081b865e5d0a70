"""Start-up cost guard: `micromaps render` runs in a fresh process per chart,
and the package imports nothing outside the standard library.

The package needs none of the network or e-mail stack, and importing it
costs tens of milliseconds per run (`xml.sax.saxutils` alone pulls in
`urllib.request`, `http.client`, `ssl`, `socket` and `email`). Its value
types are NamedTuples, so `dataclasses` (which loads `inspect`) is not
needed either, no number is written through `decimal`, and the comparison
baselines in `altcharts` load on first use.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import micromaps
from micromaps import altcharts

SRC = Path(__file__).resolve().parents[1] / "src"
UNWANTED = ("xml.sax", "urllib.request", "http.client", "ssl", "email",
            "socket", "dataclasses", "inspect", "decimal",
            "micromaps.altcharts")


def test_cli_import_loads_no_network_or_email_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import sys, micromaps.cli\n"
            f"print(' '.join(m for m in {UNWANTED!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_exports_resolve_after_cli_import():
    """`compose` stays the function, and the lazily loaded names resolve."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import inspect, micromaps.cli, micromaps\n"
            "from micromaps import compose, ClassBreaks, render_choropleth\n"
            "assert inspect.isfunction(compose), compose\n"
            "assert isinstance(ClassBreaks, type), ClassBreaks\n"
            "assert inspect.isfunction(render_choropleth)\n"
            "print(' '.join(n for n in micromaps.__all__\n"
            "               if not hasattr(micromaps, n)))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_lazy_exports_resolve_in_process():
    assert micromaps.render_choropleth is altcharts.render_choropleth
    assert micromaps.ClassBreaks is altcharts.ClassBreaks
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        micromaps.nope


@pytest.mark.parametrize("path", sorted((SRC / "micromaps").glob("*.py")),
                         ids=lambda path: path.name)
def test_package_imports_only_the_standard_library(path):
    """Every import in the package is relative or names a stdlib module."""
    tree = ast.parse(path.read_text("utf-8"), str(path))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    outside = [name for name in names
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside
