"""Every name the benchmark wraps or imports must exist in the package.

``bench/tracing.py`` patches each ``(module, attribute)`` of its ``SPANS``,
``CLI_SPANS`` and ``COUNTS`` tables with a bare ``getattr``, and
``bench/worker.py`` and ``bench/tracedcli.py`` import from the package's
modules, so renaming, moving or deleting one of those names kills a
benchmark run. These tests read the tables and the import statements
(without importing ``bench`` as a package or writing into it) and fail
first.
"""

from __future__ import annotations

import ast
import importlib
import runpy
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def test_traced_names_resolve():
    tables = runpy.run_path(str(TRACING))
    entries = tables["SPANS"] + tables["CLI_SPANS"] + tables["COUNTS"]
    assert entries
    missing = [(module, name) for module, name, _ in entries
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


@pytest.mark.parametrize("script", ["worker.py", "tracedcli.py"])
def test_bench_imports_resolve(script):
    """Each ``import micromaps.<module>`` and ``from micromaps.<module>
    import <name>`` in the script, at any depth, resolves."""
    tree = ast.parse((BENCH / script).read_text("utf-8"), script)
    modules, names = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
            names += [(node.module, alias.name) for alias in node.names]
    modules = [name for name in modules if name.split(".")[0] == "micromaps"]
    names = [(module, name) for module, name in names
             if module.split(".")[0] == "micromaps"]
    assert modules or names
    for module in modules:
        importlib.import_module(module)
    missing = [(module, name) for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
