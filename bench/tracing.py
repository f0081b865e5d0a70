"""Spans and call counts recorded around micromaps' module boundaries.

Wrappers are installed from outside the package: each public function is
replaced under the name its caller looks it up by (``from .x import f``
binds a second name, so both the definition and the call site matter).
``micromaps/__init__`` exports a function called ``compose`` that hides the
``micromaps.compose`` submodule, so modules are always taken from
``sys.modules``.

Spans are kept in memory as (name, start_ns, end_ns, parent) and reduced
to per-name inclusive time, self time (duration minus the time its child
spans cover) and call counts.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

GLYPH_RENDERERS = ("render_dot", "render_bar", "render_arrow",
                   "render_timeseries", "render_boxplot", "render_scatter")

# (module, attribute, span name): timed wherever the name is looked up.
SPANS = [
    ("micromaps.compose", "render_minimap", "atlas.render_minimap"),
    ("micromaps.compose", "clamp_scene", "scene.clamp_scene"),
    ("micromaps.compose", "validate_spec", "compose.validate_spec"),
    ("micromaps.compose", "build_layout", "layout.build_layout"),
    ("micromaps.checks", "check_color_linkage", "checks.check_color_linkage"),
    ("micromaps.adapters", "parse_table", "table.parse_table"),
] + [("micromaps.compose", name, f"glyphs.{name}") for name in GLYPH_RENDERERS]

# Names micromaps.cli imports and calls, timed at the CLI's lookups.
CLI_SPANS = [
    ("micromaps.cli", "parse_config", "config.parse_config"),
    ("micromaps.cli", "parse_table", "table.parse_table"),
    ("micromaps.cli", "bind_series", "table.bind_series"),
    ("micromaps.cli", "load_default_atlas", "atlas.load_default_atlas"),
    ("micromaps.cli", "compose", "compose.compose"),
    ("micromaps.cli", "check_chart", "checks.check_chart"),
    ("micromaps.cli", "emit_svg", "svg.emit_svg"),
]

# (module, attribute, counter name): counted only, they run per region or
# per band and a span each would cost more than the call.
COUNTS = [
    ("micromaps.compose", "scalar_values", "table.scalar_values"),
    ("micromaps.layout", "scalar_values", "table.scalar_values"),
    ("micromaps.adapters", "scalar_values", "table.scalar_values"),
    ("micromaps.compose", "column_extent", "table.column_extent"),
    ("micromaps.glyphs", "compute_box_stats", "glyphs.compute_box_stats"),
]


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> int:
        self.index = self.tracer.begin(self.name)
        return self.index

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.index)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        stack = self._stack
        self.spans.append([name, 0, 0, stack[-1] if stack else -1])
        stack.append(index)
        self.spans[index][1] = time.perf_counter_ns()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str) -> _Span:
        """Context manager recording one span; ``as`` gives its index."""
        return _Span(self, name)

    def _timed(self, name: str, fn):
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, spans=SPANS, counts=COUNTS) -> None:
        """Wrap every listed name in a module that is already imported."""
        for wrap, table in ((self._timed, spans), (self._counted, counts)):
            for module_name, attr, name in table:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summarize(self, root: int) -> dict[str, list[float]]:
        """Per span name under ``root`` (root included): [inclusive ms,
        self ms, calls]. Descendants of a span are recorded right after it.
        """
        end = root + 1
        while end < len(self.spans) and _descends(self.spans, end, root):
            end += 1
        child_ns = [0] * (end - root)
        for i in range(root + 1, end):
            name, start, stop, parent = self.spans[i]
            child_ns[parent - root] += stop - start
        out: dict[str, list[float]] = {}
        for i in range(root, end):
            name, start, stop, _ = self.spans[i]
            entry = out.setdefault(name, [0.0, 0.0, 0])
            entry[0] += (stop - start) / 1e6
            entry[1] += (stop - start - child_ns[i - root]) / 1e6
            entry[2] += 1
        return out


def _descends(spans: list[list], index: int, root: int) -> bool:
    parent = spans[index][3]
    while parent > root:
        parent = spans[parent][3]
    return parent == root
