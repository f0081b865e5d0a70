"""One benchmark worker: a fresh interpreter that sets a workload up and
then renders its inputs in a closed loop, one chart at a time.

    python3 bench/worker.py setup WORKLOAD WORK_DIR SEED
        set up, print "ready", exit (timed from outside as setup_s)
    python3 bench/worker.py run WORKLOAD WORK_DIR SEED SECONDS TRACE
        set up, warm up one round, measure, check, print one JSON line

micromaps must be importable (the caller puts ``src`` on PYTHONPATH). The
loop renders whole rounds (every input once, in the seeded order) until
SECONDS have passed, so per-chart means cover every input equally. With
TRACE 1 untraced and traced rounds alternate; the median difference
between adjacent rounds is the trace overhead.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

import inputs
import speed
from tracing import CLI_SPANS, COUNTS, SPANS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60
IMPORTTIME_RUNS = 3


def _nospan(name: str):
    return nullcontext()


class Workload:
    """Inputs by name, the seeded render order, and one chart operation."""

    def __init__(self, work_dir: Path, seed: int) -> None:
        self.work_dir = work_dir
        self.seed = seed
        self.tracer: Tracer | None = None

    @property
    def span(self):
        return self.tracer.span if self.tracer else _nospan

    def render(self, name: str):
        """Render one chart; returns (scene or None, svg text, child trace)."""
        raise NotImplementedError


class InProcess(Workload):
    """Charts rendered in the worker: compose, check_chart, emit_svg."""

    def _bind(self) -> None:
        import micromaps.checks  # noqa: F401
        from micromaps.atlas import load_default_atlas
        self.compose_mod = sys.modules["micromaps.compose"]
        self.checks = sys.modules["micromaps.checks"]
        self.svg = sys.modules["micromaps.svg"]
        if self.tracer:
            self.tracer.install()
        with self.span("atlas.load_default_atlas"):
            self.atlas = load_default_atlas()

    def _chart(self, spec, table):
        span = self.span
        with span("compose.compose"):
            scene = self.compose_mod.compose(spec, table, self.atlas)
        with span("checks.check_chart"):
            self.checks.check_chart(scene)
        with span("svg.emit_svg"):
            text = self.svg.emit_svg(
                scene, self.svg.SvgOptions(embed_title=True, title=spec.title))
        return scene, text, None


class DemosWarm(InProcess):
    """The bundled demos, as ``micromaps demo`` renders them."""

    def setup(self) -> None:
        import micromaps.demos  # noqa: F401  (binds the submodules)
        self.demos = sys.modules["micromaps.demos"]
        self._bind()
        self.order = inputs.demo_order(self.seed)
        for name in self.order:
            self.demos.build_demo(name)

    def render(self, name: str):
        with self.span("adapters.build_demo"):
            spec, table = self.demos.build_demo(name)
        return self._chart(spec, table)


class GlyphHeavy(InProcess):
    """Synthetic tables parsed once in set-up, every glyph kind but bar."""

    def setup(self) -> None:
        import micromaps  # noqa: F401  (binds the submodules)
        from micromaps.compose import ChartSpec, ColumnSpec
        from micromaps.layout import DESCENDING, SortSpec
        from micromaps.table import bind_series, parse_table
        self._bind()
        periods = [f"t{i:03d}" for i in range(1, inputs.GLYPH_PERIODS + 1)]
        samples = [f"s{i:03d}" for i in range(1, inputs.GLYPH_SAMPLES[1] + 1)]
        self.charts = {}
        self.order = []
        for path in sorted(self.work_dir.glob("glyph-*.csv")):
            with self.span("table.parse_table"):
                table = parse_table(path.read_text("utf-8"), "state")
            table = bind_series(table, periods, "trend")
            table = bind_series(table, samples, "samples")
            spec = ChartSpec(
                title=f"Synthetic glyph table {path.stem}",
                sort=SortSpec("value", DESCENDING),
                columns=(
                    ColumnSpec("map"),
                    ColumnSpec("legend", header=("U.S. States",)),
                    ColumnSpec("dot", header=("Value",),
                               bindings={"value": "value"}),
                    ColumnSpec("arrow", header=("Start to end",),
                               bindings={"start": "start", "end": "end"}),
                    ColumnSpec("timeseries", header=("Trend",),
                               bindings={"series": "trend"}),
                    ColumnSpec("boxplot", header=("Samples",),
                               bindings={"samples": "samples"}),
                    ColumnSpec("scatter", header=("x vs. y",),
                               bindings={"x": "x", "y": "y"}),
                ),
            )
            self.charts[path.stem] = (spec, table)
            self.order.append(path.stem)

    def render(self, name: str):
        return self._chart(*self.charts[name])


class CliRender(Workload):
    """One ``micromaps render`` child process per chart. The worker also
    composes every config in-process, untimed, to check the children's
    output against the Scene.
    """

    def setup(self) -> None:
        import micromaps.cli  # noqa: F401
        from micromaps.atlas import load_default_atlas
        from micromaps.config import parse_config
        from micromaps.table import bind_series, parse_table
        self.atlas = load_default_atlas()
        self.configs = {}
        self.order = []
        for path in sorted(self.work_dir.glob("cli-*.json")):
            config = parse_config(path.read_text("utf-8"))
            table = parse_table((self.work_dir / config.data_path)
                                .read_text("utf-8"), config.region_column)
            for binding in config.series:
                table = bind_series(table, list(binding.columns), binding.name)
            self.configs[path.stem] = (config, table)
            self.order.append(path.stem)

    def expected(self, name: str):
        from micromaps.svg import SvgOptions, emit_svg
        config, table = self.configs[name]
        scene = sys.modules["micromaps.compose"].compose(config.spec, table,
                                                         self.atlas)
        text = emit_svg(scene, SvgOptions(decimal_places=config.decimal_places,
                                          embed_title=bool(config.spec.title),
                                          title=config.spec.title))
        return scene, text

    def render(self, name: str):
        out = self.work_dir / f"{name}.svg"
        args = ["render", "--config", f"{name}.json", "--out", out.name,
                "--quiet"]
        if self.tracer:
            summary = self.work_dir / f"{name}.trace.json"
            cmd = [sys.executable, str(BENCH_DIR / "tracedcli.py"),
                   str(summary)] + args
        else:
            cmd = [sys.executable, "-m", "micromaps.cli"] + args
        proc = subprocess.run(cmd, cwd=self.work_dir,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-300:]}")
        child = None
        if self.tracer:
            child = json.loads(summary.read_text("utf-8"))
        return None, out.read_text("utf-8"), child


WORKLOADS = {"demos-warm": DemosWarm, "glyph-heavy": GlyphHeavy,
             "cli-render": CliRender}


class Loop:
    """Closed-loop measurement with byte-identity checks against the
    warm-up render of each input."""

    def __init__(self, workload: Workload) -> None:
        self.w = workload
        self.first: dict[str, str] = {}
        self.scenes: dict[str, object] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.warnings: dict[str, int] = {}

    def one(self, name: str, log: list):
        """Render one chart; returns (ms, warnings, child trace, root span,
        ms of the speed job run just before it)."""
        self.attempted += 1
        tracer = self.w.tracer
        job = speed.job_ms()
        seen = len(log)
        t0 = time.perf_counter_ns()
        try:
            if tracer:
                with tracer.span("chart") as root:
                    scene, text, child = self.w.render(name)
            else:
                root = None
                scene, text, child = self.w.render(name)
        except Exception as exc:  # a failed chart is counted, not fatal
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        ms = (time.perf_counter_ns() - t0) / 1e6
        if name not in self.first:
            self.first[name] = text
            self.scenes[name] = scene
        elif text != self.first[name]:
            self.failures.append(f"{name}: output differs between renders")
        new = log[seen:]
        for w in new:
            key = f"{w.category.__name__}: {w.message}"
            self.warnings[key] = self.warnings.get(key, 0) + 1
        warn_count = len(new) if child is None else child["warnings"]
        return ms, warn_count, child, root, job

    def round(self, log: list) -> list:
        """Every input once, in the seeded order; returns per-chart records
        (name, ms, warnings, child trace, root span, speed job ms)."""
        records = []
        for name in self.w.order:
            result = self.one(name, log)
            if result is not None:
                records.append((name,) + result)
        return records


def _median_run(cmd: list[str], env: dict, runs: int) -> list:
    """Run a fresh interpreter ``runs`` times; returns (wall ms, stderr)
    pairs sorted by wall time."""
    out = []
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        out.append(((time.perf_counter_ns() - t0) / 1e6, proc.stderr))
    return sorted(out, key=lambda r: r[0])


def _importtime(env: dict) -> dict:
    """``import micromaps.cli`` under ``-X importtime`` in fresh
    interpreters: the median cumulative ms, and the modules under it that
    take the most self time in the median run. Also the wall time of a bare
    interpreter, which no span inside a child process can cover."""
    runs = []
    for _, stderr in _median_run([sys.executable, "-X", "importtime", "-c",
                                  "import micromaps.cli"], env, IMPORTTIME_RUNS):
        subtree: list[tuple[str, float]] = []
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            module = parts[2].rstrip()
            subtree.append((module.strip(), int(parts[0].split(":")[1]) / 1000))
            if module == " micromaps.cli":  # top level: one leading space
                runs.append((int(parts[1]) / 1000, subtree))
                break
            if not module.startswith("  "):
                subtree = []
    runs.sort(key=lambda r: r[0])
    total, subtree = runs[len(runs) // 2]
    bare = _median_run([sys.executable, "-c", "pass"], env, IMPORTTIME_RUNS)
    return {"cumulative_ms": total,
            "runs_ms": [r[0] for r in runs],
            "top_self_ms": sorted(subtree, key=lambda r: -r[1])[:12],
            "interpreter_ms": bare[len(bare) // 2][0]}


def _chart_stats(records: list) -> dict:
    """Sample count, median and mean chart ms, overall ("*") and per input."""
    by: dict[str, list[float]] = {"*": []}
    for name, ms, *_ in records:
        by["*"].append(ms)
        by.setdefault(name, []).append(ms)
    return {key: {"n": len(ms), "p50": statistics.median(ms),
                  "mean": statistics.fmean(ms)} for key, ms in by.items()}


def _paired_overhead(pairs: list) -> dict[str, float]:
    """Median over adjacent (untraced, traced) rounds of the traced minus
    the untraced chart ms, overall ("*", per chart) and per input."""
    diffs: dict[str, list[float]] = {"*": []}
    for plain, traced in pairs:
        before = {r[0]: r[1] for r in plain}
        after = {r[0]: r[1] for r in traced}
        if before.keys() != after.keys():
            continue  # a chart failed in one of the two rounds
        for name in before:
            diffs.setdefault(name, []).append(after[name] - before[name])
        diffs["*"].append((sum(after.values()) - sum(before.values()))
                          / len(before))
    return {key: statistics.median(d) for key, d in diffs.items() if d}


def _layer_means(tracer: Tracer, records: list) -> tuple[dict, dict, float]:
    """Mean per-chart [inclusive ms, self ms, calls] per span name and mean
    counts per counter, overall and per input, plus the median residual
    (chart wall time not covered by any span)."""
    totals: dict[str, dict[str, list[float]]] = {}
    counts: dict[str, dict[str, float]] = {}
    n_by: dict[str, int] = {}
    residuals = []
    previous = {}
    for name, ms, warn, child, root, _ in records:
        if child is not None:
            spans, chart_counts = child["spans"], child["counts"]
            covered = sum(v[1] for v in spans.values())
            residuals.append(ms - covered)
        else:
            spans = tracer.summarize(root)
            chart_counts = {k: v - previous.get(k, 0)
                            for k, v in tracer.counts.items()}
            previous = dict(tracer.counts)
            residuals.append(spans["chart"][1])
        for key in ("*", name):
            n_by[key] = n_by.get(key, 0) + 1
            bucket = totals.setdefault(key, {})
            for span, (incl, own, calls) in spans.items():
                entry = bucket.setdefault(span, [0.0, 0.0, 0.0])
                entry[0] += incl
                entry[1] += own
                entry[2] += calls
            cbucket = counts.setdefault(key, {})
            for counter, value in chart_counts.items():
                cbucket[counter] = cbucket.get(counter, 0.0) + value
            cbucket["compose.warnings"] = cbucket.get("compose.warnings", 0.0) + warn
    means = {key: {span: [v / n_by[key] for v in entry]
                   for span, entry in bucket.items()}
             for key, bucket in totals.items()}
    count_means = {key: {c: v / n_by[key] for c, v in bucket.items()}
                   for key, bucket in counts.items()}
    return means, count_means, statistics.median(residuals)


def run(kind: str, work_dir: Path, seed: int, seconds: float,
        trace: bool) -> dict:
    workload = WORKLOADS[kind](work_dir, seed)
    setup_spans = None
    if trace:
        workload.tracer = Tracer()
        with workload.tracer.span("setup") as root:
            workload.setup()
        setup_spans = workload.tracer.summarize(root)
        workload.tracer.uninstall()
        workload.tracer = None
    else:
        workload.setup()
    loop = Loop(workload)
    result: dict = {}
    records: list = []
    traced: list = []
    tracer = Tracer()
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        loop.round(log)  # warm-up, and the reference render of each input
        started = time.perf_counter()
        deadline = started + seconds
        pairs = []
        while time.perf_counter() < deadline:
            plain = loop.round(log)
            records += plain
            if trace:  # alternate rounds, so drift hits both sides alike
                workload.tracer = tracer
                tracer.install(SPANS + CLI_SPANS, COUNTS)
                pairs.append((plain, loop.round(log)))
                traced += pairs[-1][1]
                tracer.uninstall()
                workload.tracer = None
        result["elapsed_s"] = time.perf_counter() - started
    if trace:
        means, count_means, residual = _layer_means(tracer, traced)
        result["trace"] = {
            "setup_spans": setup_spans,
            "untraced": _chart_stats(records),
            "traced": _chart_stats(traced),
            "overhead_ms": _paired_overhead(pairs),
            "means": means,
            "counts": count_means,
            "residual_ms": residual,
            "importtime": _importtime(dict(os.environ)),
        }
    usage = resource.RUSAGE_CHILDREN if kind == "cli-render" \
        else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    result["chart_ms"] = [r[1] for r in records]
    result["job_ms"] = [r[5] for r in records] + [speed.job_ms()]
    result["warnings"] = loop.warnings
    result["inputs"] = check_outputs(workload, loop)
    result["attempted"] = loop.attempted
    result["failures"] = loop.failures
    return result


def check_outputs(workload: Workload, loop: Loop) -> dict:
    """Independent checks of each input's reference render; problems are
    appended to the loop's failures. Returns per-input facts for the report."""
    import verify  # not at the top: set-up is timed and must not pay for it
    atlas_path = Path(sys.modules["micromaps"].__file__).parent / "data" / "us_atlas.json"
    rings = verify.atlas_ring_count(atlas_path)
    facts = {}
    for name in workload.order:
        text = loop.first.get(name)
        if text is None:
            loop.failures.append(f"{name}: never rendered")
            continue
        scene = loop.scenes[name]
        problems = []
        if isinstance(workload, CliRender):
            scene, in_process = workload.expected(name)
            if in_process != text:
                problems.append("CLI output differs from the in-process render")
        problems += verify.check_svg(text, scene, rings)
        if problems:
            loop.failures.append(f"{name}: {'; '.join(problems)}")
        facts[name] = {
            "sha256": verify.sha256(text),
            "bytes": len(text.encode("utf-8")),
            "bytes_by_element": verify.bytes_by_element(text),
            "shapes": verify.shape_counts(scene),
            "panels": len(scene.panels),
        }
    return facts


def main(argv: list[str]) -> int:
    mode, kind, work_dir, seed = argv[0], argv[1], Path(argv[2]), int(argv[3])
    if mode == "setup":
        WORKLOADS[kind](work_dir, seed).setup()
        print("ready", flush=True)
        return 0
    seconds, trace = float(argv[4]), argv[5] == "1"
    result = run(kind, work_dir, seed, seconds, trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
