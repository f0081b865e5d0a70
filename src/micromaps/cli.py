"""Command-line front end.

Subcommands:
  render    render a chart from a JSON config + CSV data
  demo      regenerate one of the six bundled demo charts
  validate  run everything render runs except the write

Exit codes: 0 success, 1 validation error, 2 I/O error. Diagnostics go to
stderr; stdout carries only progress lines (suppressed by --quiet).
"""

import argparse
import sys
import warnings
from pathlib import Path

from .adapters import load_table
from .atlas import load_default_atlas
from .checks import check_chart
from .compose import ChartSpec, compose
from .config import parse_config
from .demos import DEMO_NAMES, PEW_FILE, PEW_INSTRUCTIONS, build_demo
from .errors import MicromapError, SnapshotError
from .svg import SvgOptions, emit_svg
# bind_series and parse_table are not called here: bench/tracing.py wraps
# them in this module.
from .table import RegionTable, bind_series, parse_table  # noqa: F401

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="micromaps",
        description="Render linked micromap charts of US state statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser("render", help="render a chart from a config file")
    render.add_argument("--config", required=True, help="JSON chart config")
    render.add_argument("--out", help="output SVG path (overrides the config)")
    render.add_argument("--data", help="CSV data path (overrides the config)")
    render.add_argument("--quiet", action="store_true",
                        help="suppress progress output")

    demo = sub.add_parser("demo", help="regenerate a bundled demo chart")
    demo.add_argument("name", choices=DEMO_NAMES)
    demo.add_argument("--out", help="output SVG path (default: <name>.svg)")
    demo.add_argument("--data", help="snapshot directory override")
    demo.add_argument("--quiet", action="store_true",
                      help="suppress progress output")

    validate = sub.add_parser("validate",
                              help="check a config against its data")
    validate.add_argument("--config", required=True, help="JSON chart config")
    validate.add_argument("--data", help="CSV data path (overrides the config)")
    validate.add_argument("--quiet", action="store_true",
                          help="suppress progress output")
    return parser


def _say(message: str, quiet: bool) -> None:
    if not quiet:
        print(message)


def _fail(message: str, code: int) -> int:
    print(f"micromaps: error: {message}", file=sys.stderr)
    return code


def _chart_svg(spec: ChartSpec, table: RegionTable,
               decimal_places: int = 2) -> str:
    """Compose the chart, pass it through the check gate, and emit its SVG."""
    scene = compose(spec, table, load_default_atlas())
    check_chart(scene)
    return emit_svg(scene, SvgOptions(decimal_places=decimal_places,
                                      embed_title=bool(spec.title),
                                      title=spec.title))


def _write_svg(text: str, out_path: Path, quiet: bool) -> int:
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", EXIT_IO)
    _say(f"wrote {out_path}", quiet)
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    """``render``, and ``validate``, which is render without the write."""
    what = "config"
    try:
        config = parse_config(Path(args.config).read_text("utf-8"))
        what = "data"
        data = Path(args.config).resolve().parent / config.data_path
        if args.data is not None:
            data = Path(args.data)
        table = load_table(config, data.read_text("utf-8"), data.parent)
    except SnapshotError as exc:
        return _fail(str(exc), EXIT_IO if exc.missing else EXIT_VALIDATION)
    except OSError as exc:
        return _fail(f"cannot read {what}: {exc}", EXIT_IO)
    except UnicodeDecodeError as exc:
        return _fail(f"cannot decode {what}: {exc}", EXIT_VALIDATION)
    except MicromapError as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    try:
        text = _chart_svg(config.spec, table, config.decimal_places)
    except MicromapError as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    if args.command == "validate":
        _say(f"{args.config}: config and data check out", args.quiet)
        return EXIT_OK
    out = args.out or config.output_path or (Path(args.config).stem + ".svg")
    return _write_svg(text, Path(out), args.quiet)


def _cmd_demo(args: argparse.Namespace) -> int:
    data_dir = Path(args.data) if args.data else None
    try:
        text = _chart_svg(*build_demo(args.name, data_dir))
    except SnapshotError as exc:
        if exc.missing and exc.filename == PEW_FILE:
            print(PEW_INSTRUCTIONS)
            return EXIT_OK
        return _fail(f"snapshot {exc}",
                     EXIT_IO if exc.missing else EXIT_VALIDATION)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    except MicromapError as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    return _write_svg(text, Path(args.out or f"{args.name}.svg"), args.quiet)


def run(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "demo":
        return _cmd_demo(args)
    return _cmd_render(args)


def main() -> None:
    # Set here, not in run(), so callers that record warnings still do.
    warnings.formatwarning = (
        lambda message, *_: f"micromaps: warning: {message}\n")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
