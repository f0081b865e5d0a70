"""``micromaps`` CLI with spans at its module boundaries.

    python3 bench/tracedcli.py SUMMARY_JSON render --config ... --out ...

Times the import of ``micromaps.cli``, wraps the names it calls (and the
layers under compose), runs the command, and writes per-span inclusive
ms, self ms and calls, call counts and the warning count to SUMMARY_JSON.
Exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

from tracing import CLI_SPANS, COUNTS, SPANS, Tracer


def main(argv: list[str]) -> int:
    summary, args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        with tracer.span("chart") as root:
            with tracer.span("cli.import"):
                import micromaps.cli
            tracer.install(SPANS + CLI_SPANS, COUNTS)
            code = micromaps.cli.run(args)
    summary.write_text(json.dumps({
        "spans": tracer.summarize(root),
        "counts": dict(tracer.counts),
        "warnings": len(log),
    }), "utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
