"""micromaps benchmark: per-chart latency, output size and set-up time.

Run from the root of a checkout (``src/micromaps`` must be there; the
package need not be installed):

    python3 bench/run.py --workload demos-warm --seed 1 --seconds 10 --trace 0

Workloads (closed loop, one client, one chart at a time):
  demos-warm   the five demos with bundled data, rendered in-process as
               ``micromaps demo`` does (build_demo, compose, check_chart,
               emit_svg), in a seeded order
  glyph-heavy  seeded synthetic 51-region tables parsed in set-up, each
               drawn with dot, arrow, 120-period timeseries, boxplot of
               100-400 samples per region and scatter columns
  cli-render   ``python -m micromaps.cli render`` on seeded CSVs and JSON
               configs that use ``data.series``, one child at a time

With ``--trace 0`` it prints the end-to-end metrics: chart_ms.p50 and
chart_ms.p90 (wall time per chart), charts_per_s (one client, so 1000 /
mean chart_ms), svg_kb (mean output size), setup_s (median over fresh
interpreters of imports, atlas load and input preparation) and peak_rss_mb
(of the worker; of its children on cli-render), plus fail_ratio. The three
times are reported at reference speed (speed.py), which takes out most of
the drift of a shared machine; the measured values are printed beside them
and kept in the report. With ``--trace 1`` it prints per-layer
metrics from spans around each module boundary (tracing.py): ``<layer>.ms``
is the mean inclusive time per chart, ``.calls`` the calls per chart,
``compose.self_ms`` compose minus its traced children. The set-up layers
(cli.import_ms from ``-X importtime``, atlas.load_default_atlas.ms,
config.parse_config.ms, table.parse_table.ms) are per set-up: the worker's
on demos-warm and glyph-heavy, each child's on cli-render. For demos-warm
it also prints the per-demo stage table.

Every output is checked (verify.py): failures are exceptions, nonzero
exits, ill-formed XML, element or map-polygon count mismatches, and byte
differences between renders of one input. A JSON report with the raw
samples, per-input facts (sha256, bytes, shapes) and the environment goes
to ``bench/out/``; the last stdout line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import speed
import verify

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("demos-warm", "glyph-heavy", "cli-render")
SETUP_RUNS = 5
RUN_LIMIT_S = 170.0

SHAPE_TYPES = tuple(verify.SHAPE_TAGS)
GLYPH_SPANS = tuple(f"glyphs.{k}" for k in
                    ("render_dot", "render_bar", "render_arrow",
                     "render_timeseries", "render_boxplot", "render_scatter"))
# Spans reported as mean inclusive ms per chart (and calls where listed).
TIMED = ("scene.clamp_scene", "atlas.render_minimap", "compose.compose",
         "checks.check_chart", "checks.check_color_linkage", "svg.emit_svg",
         "adapters.build_demo", "layout.build_layout",
         "compose.validate_spec") + GLYPH_SPANS
WITH_CALLS = ("atlas.render_minimap",) + GLYPH_SPANS
COUNTED = ("glyphs.compute_box_stats", "table.scalar_values",
           "table.column_extent")
# Set-up layers: ms per set-up (the worker's; each child's on cli-render).
SETUP_SPANS = ("atlas.load_default_atlas", "config.parse_config",
               "table.parse_table")


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = p * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():  # git would look in parent directories
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def write_inputs(workload: str, seed: int, work_dir: Path) -> None:
    if workload == "glyph-heavy":
        for name, text in inputs.glyph_tables(seed):
            (work_dir / f"{name}.csv").write_text(text, "utf-8")
    elif workload == "cli-render":
        for name, text, config in inputs.cli_charts(seed):
            (work_dir / f"{name}.csv").write_text(text, "utf-8")
            (work_dir / f"{name}.json").write_text(json.dumps(config, indent=1),
                                                   "utf-8")


def time_setup(args: list[str], env: dict) -> float:
    """Seconds from starting a fresh worker to its "ready" line."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"),
                           "setup"] + args, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        except BaseException:
            proc.kill()
            raise
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up worker failed with exit {code}")
    return elapsed


def run_worker(args: list[str], env: dict, timeout: float) -> dict:
    """Run the measuring worker in its own session, so that on a timeout
    its children go too; returns the JSON object it prints last."""
    with subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"),
                           "run"] + args, env=env, stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def at_reference_speed(values: list[float], jobs: list[float]) -> list[float]:
    """Scale each value by the slower of the speed jobs (speed.py) run just
    before and just after it: a burst of contention long enough to slow a
    chart shows in at least one of them, and a job that ran in a quiet gap
    would otherwise inflate a slow chart. ``jobs`` has one more entry than
    ``values``."""
    return [v * speed.REFERENCE_MS / max(before, after)
            for v, before, after in zip(values, jobs, jobs[1:])]


def end_to_end(result: dict, setup_runs: list[float],
               setup_jobs: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics with times at reference speed, and the same
    metrics as measured."""
    ms = result["chart_ms"]
    facts = result["inputs"].values()
    sizes = (statistics.fmean(f["bytes"] for f in facts) / 1000, "kB")
    rss = (result["peak_rss_mb"], "MB")

    def metrics(charts: list[float], setups: list[float]) -> dict:
        return {
            "chart_ms.p50": (statistics.median(charts), "ms"),
            "chart_ms.p90": (percentile(charts, 0.9), "ms"),
            "charts_per_s": (1000 / statistics.fmean(charts), "1/s"),
            "svg_kb": sizes,
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": rss,
        }

    scaled = metrics(at_reference_speed(ms, result["job_ms"]),
                     at_reference_speed(setup_runs, setup_jobs))
    return scaled, metrics(ms, setup_runs)


def per_layer(workload: str, result: dict, key: str = "*") -> dict:
    """Per-layer metrics per chart, over every input ("*") or one input."""
    trace = result["trace"]
    spans, counts = trace["means"][key], trace["counts"][key]
    facts = list(result["inputs"].values()) if key == "*" \
        else [result["inputs"][key]]
    out = {}
    for name in TIMED:
        out[f"{name}.ms"] = (spans.get(name, [0.0])[0], "ms")
    for name in WITH_CALLS:
        out[f"{name}.calls"] = (spans.get(name, [0, 0, 0.0])[2], "count")
    for name in COUNTED:
        out[f"{name}.calls"] = (counts.get(name, 0.0), "count")
    out["compose.self_ms"] = (spans.get("compose.compose", [0, 0.0])[1], "ms")
    out["compose.warnings"] = (counts.get("compose.warnings", 0.0), "count")
    setup = spans if workload == "cli-render" else trace["setup_spans"]
    for name in SETUP_SPANS:
        out[f"{name}.ms"] = (setup.get(name, [0.0])[0], "ms")
    out["cli.import_ms"] = (trace["importtime"]["cumulative_ms"], "ms")
    for tag in verify.SVG_TAGS:
        out[f"svg.bytes.{tag}"] = (
            statistics.fmean(f["bytes_by_element"][tag] for f in facts), "bytes")
    out["scene.shapes"] = (
        statistics.fmean(sum(f["shapes"].values()) for f in facts), "count")
    for kind in SHAPE_TYPES:
        out[f"scene.shapes.{kind}"] = (
            statistics.fmean(f["shapes"][kind] for f in facts), "count")
    out["scene.panels"] = (statistics.fmean(f["panels"] for f in facts), "count")
    out["trace.chart_ms"] = (trace["traced"][key]["mean"], "ms")
    out["trace.overhead_ms"] = (trace["overhead_ms"][key], "ms")
    return out


STAGES = (
    ("adapter", ("adapters.build_demo",)),
    ("compose", ("compose.compose",)),
    ("clamp", ("scene.clamp_scene",)),
    ("minimap", ("atlas.render_minimap",)),
    ("glyphs", GLYPH_SPANS),
    ("check", ("checks.check_chart",)),
    ("emit_svg", ("svg.emit_svg",)),
)


def stage_table(result: dict) -> list[str]:
    """One row per demo: mean traced ms per stage (clamp, minimap and glyph
    panels are parts of compose) and the SVG bytes."""
    means = result["trace"]["means"]
    lines = [f"{'demo (ms per stage)':20}"
             + "".join(f"{label:>10}" for label, _ in STAGES) + f"{'bytes':>10}"]
    for demo in inputs.DEMOS:
        if demo not in means:
            continue
        cells = [sum(means[demo].get(n, [0.0])[0] for n in names)
                 for _, names in STAGES]
        lines.append(f"{demo:20}" + "".join(f"{c:10.2f}" for c in cells)
                     + f"{result['inputs'][demo]['bytes']:10d}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "micromaps" / "__init__.py").is_file():
        print(f"bench: no micromaps package under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    out_dir = BENCH_DIR / "out"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    worker_args = [args.workload, str(work_dir), str(args.seed)]
    try:
        # The build: bytecode for src/ and bench/, as an installed package
        # has it. Children read it even where writing bytecode is disabled.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(src),
                        str(BENCH_DIR)], env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        write_inputs(args.workload, args.seed, work_dir)
        setup_runs: list[float] = []
        setup_jobs: list[float] = []
        if not args.trace:
            time_setup(worker_args, env)  # untimed: fills the file cache
            for _ in range(SETUP_RUNS):
                setup_jobs.append(speed.job_ms())
                setup_runs.append(time_setup(worker_args, env))
            setup_jobs.append(speed.job_ms())
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        result = run_worker(worker_args + [str(args.seconds), str(args.trace)],
                            env, budget)
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = result["attempted"]
    failed = min(len(result["failures"]), attempted)
    ms = result["chart_ms"]
    raw = {}
    if args.trace:
        metrics = per_layer(args.workload, result)
    else:
        metrics, raw = end_to_end(result, setup_runs, setup_jobs)
    for name, (value, unit) in metrics.items():
        measured = f"  (measured {raw[name][0]:.4f})" \
            if name in raw and raw[name] != metrics[name] else ""
        print(f"{name:34} {value:14.4f} {unit}{measured}")
    print(f"{'fail_ratio':34} {failed / attempted:14.4f} "
          f"({failed}/{attempted})")
    p90 = percentile(ms, 0.9)
    print(f"chart_ms samples: {len(ms)} ({sum(v > p90 for v in ms)} beyond p90)")
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if args.trace:
        trace = result["trace"]
        print(f"trace: mean chart {trace['traced']['*']['mean']:.3f} ms; median "
              f"time outside any layer span {trace['residual_ms']:.3f} ms "
              f"(a bare interpreter takes "
              f"{trace['importtime']['interpreter_ms']:.3f} ms)")
    for failure in result["failures"][:10]:
        print(f"FAILED {failure}")
    if args.trace and args.workload == "demos-warm":
        print("\n".join(stage_table(result)))

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version,
        "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(root),
        "src": str(src), "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "failures": result["failures"],
        "metrics": metrics_json,
        "measured": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "chart_ms": ms, "job_ms": result["job_ms"],
        "setup_s_runs": setup_runs, "setup_job_ms": setup_jobs,
        "peak_rss_mb": result["peak_rss_mb"], "warnings": result["warnings"],
        "inputs": result["inputs"], "trace_detail": result.get("trace"),
    }
    if args.trace:
        report["per_input"] = {
            name: {k: v for k, (v, _) in per_layer(args.workload, result,
                                                     name).items()}
            for name in result["inputs"]}
    if args.trace and args.workload == "demos-warm":
        report["stage_table"] = stage_table(result)
    report_path = out_dir / (f"report-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    report_path.write_text(json.dumps(report, indent=1), "utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
