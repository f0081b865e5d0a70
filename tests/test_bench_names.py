"""Every name the traced benchmark wraps must exist in the package.

``bench/tracing.py`` patches each ``(module, attribute)`` of its ``SPANS``,
``CLI_SPANS`` and ``COUNTS`` tables with a bare ``getattr``, so renaming or
deleting one of those functions kills the traced benchmark run. This test
reads the tables (without importing ``bench`` as a package or writing into
it) and fails first.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve():
    tables = runpy.run_path(str(TRACING))
    entries = tables["SPANS"] + tables["CLI_SPANS"] + tables["COUNTS"]
    assert entries
    missing = [(module, name) for module, name, _ in entries
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
