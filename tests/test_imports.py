"""Start-up cost guard: `micromaps render` runs in a fresh process per chart.

The package needs none of the network or e-mail stack, and importing it
costs tens of milliseconds per run (`xml.sax.saxutils` alone pulls in
`urllib.request`, `http.client`, `ssl`, `socket` and `email`).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
UNWANTED = ("xml.sax", "urllib.request", "http.client", "ssl", "email",
            "socket")


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
