"""sha256 pin of the five bundled demos' SVGs.

Each demo is rendered through ``micromaps demo <name>`` (in process, same
options as the command line) and its bytes are hashed. If an intentional
rendering change breaks this, regenerate with:

    python3 tests/test_demo_hashes.py

and review the change like any other rendering change.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import warnings
from pathlib import Path

from micromaps.cli import EXIT_OK, run

HASHES = Path(__file__).parent / "golden" / "demo_sha256.json"

BUNDLED = ("acs-dot", "acs-timeseries", "qcew-arrows", "ers-snap",
           "ers-boxscatter")


def demo_hashes() -> dict[str, str]:
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in BUNDLED:
            path = Path(tmp) / f"{name}.svg"
            assert run(["demo", name, "--out", str(path), "--quiet"]) == EXIT_OK
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_demo_svgs_match_pinned_hashes():
    assert HASHES.is_file(), "hash file missing; run tests/test_demo_hashes.py"
    assert demo_hashes() == json.loads(HASHES.read_text("utf-8"))


if __name__ == "__main__":
    HASHES.parent.mkdir(parents=True, exist_ok=True)
    HASHES.write_text(json.dumps(demo_hashes(), indent=2) + "\n",
                      encoding="utf-8", newline="")
    print(f"regenerated {HASHES}")
