"""Whole-page assembly: map column + legend column + glyph columns.

The page is a grid: one vertical band per perceptual group (plus a
separated trailing band when regions lack the sort value), crossed with one
horizontal band per column. Every column shares the same vertical band
math, so a region's row lines up exactly across the whole chart, and every
glyph column builds a single scale reused by all of its panels, so axes are
identical top to bottom.

A ChartSpec runs ``validate_spec`` when it is made or replaced.
``plan_chart`` runs every rule that reads the table and makes every
decision: each column's scales (one ``_KINDS`` row per column kind, read
with no branch on the kind), the ranking, the groups and the bands, each
with the regions its small map tints, so only the plan reads the map mode.
It records the findings too: ``absent`` rows, each column's ``no_value``,
and warnings. ``compose`` warns of them at its caller and draws the plan:
each panel by its kind's ``draw`` into a ``scene.Layers``; the page's
title, headers, separators and axes go into one more, and every panel is
added to it. Its slot order is the paint order, fixed for stable output:
guides, map fills, map borders, marks, axes, labels.
"""

import sys
import warnings
from collections.abc import Callable, Mapping
from functools import reduce
from operator import add
from types import MappingProxyType
from typing import Any, NamedTuple

from . import colors
from .atlas import ALL_CODES, BY_CODE, Atlas, render_minimap
from .colors import DEFAULT_PALETTE, Palette
from .errors import (
    BadExtent,
    DomainOverflow,
    EmptyColumn,
    EmptySort,
    MissingColumn,
    SpecError,
    UnknownKey,
)
from .glyphs import (
    AXIS_STYLE,
    TICK_STYLE,
    box_column,
    render_arrow,
    render_bar,
    render_boxplot,
    render_dot,
    render_scatter,
    render_timeseries,
)
from .layout import ASCENDING, DESCENDING, LinkedLayout, SortSpec, build_layout
from .scale import Scale, format_tick, linear_scale, thin_labels
from .scene import (Layers, Line, PanelFrame, PanelInfo, Rect, RowBand, Scene,
                    Style, Text, check_canvas_side, clamp_scene, shared_style)
from .table import (
    RegionTable,
    SERIES,
    column_extent,
    resolve_ref,
    scalar_values,
)
from .values import value_type

MAP = "map"
LEGEND = "legend"
DOT = "dot"
BAR = "bar"
ARROW = "arrow"
TIMESERIES = "timeseries"
BOXPLOT = "boxplot"
SCATTER = "scatter"

GROUP_ONLY = "group_only"
CUMULATIVE = "cumulative"
NO_DATA_PANEL = -1  # the group index of the trailing no-data band


class _Kind(NamedTuple):
    bindings: tuple[str, ...]
    options: tuple[str, ...]  # a known option it does not read is an error
    # (plan, frame, y scale, band, layout, atlas) -> panel
    draw: Callable[..., Layers]
    width_f: float | None = None  # of the canvas width; None: by weight
    series: bool = False  # each binding names a whole series
    y: str | None = None  # the binding that spans the unit y scale
    zero: bool = False  # the x extent reaches 0
    summary: Callable[..., tuple] | None = None  # cells -> (data, extent)


# Each column kind's bindings, the options it reads, its renderer and its
# rules. Every binding but ``y`` spans the x scale; with none, x is the
# period index. A ``summary`` reads a binding's cells once, for the renderer
# and the x extent. Each ``draw`` looks its renderer up per call, not at
# import, so bench/tracing.py can wrap the module global.
_KINDS: dict[str, _Kind] = {
    MAP: _Kind((), (), lambda p, f, y, band, layout, atlas:
               render_minimap(atlas, f, band.tinted), 0.150),
    LEGEND: _Kind((), ("name_style",), lambda p, f, *_: render_legend_column(
        p.spec.options.get("name_style", "full"), f), 0.160),
    DOT: _Kind(("value",), ("weight", "reference_line", "target_ticks"),
               lambda p, f, *_: render_dot(p.data, p.x_scale, f, p.reference)),
    BAR: _Kind(("value",), ("weight", "target_ticks"),
               lambda p, f, *_: render_bar(p.data, p.x_scale, f), zero=True),
    ARROW: _Kind(("start", "end"), ("weight", "target_ticks"),
                 lambda p, f, *_: render_arrow(p.data, p.x_scale, f)),
    TIMESERIES: _Kind(("series",), ("weight",), lambda p, f, y, *_:
                      render_timeseries(p.data, p.periods, p.x_scale, y, f),
                      series=True, y="series"),
    BOXPLOT: _Kind(("samples",), ("weight", "target_ticks"), lambda p, f, *_:
                   render_boxplot(p.data, p.x_scale, f), series=True,
                   summary=box_column),
    SCATTER: _Kind(("x", "y"), ("weight", "target_ticks"),
                   lambda p, f, y, band, layout, *_: render_scatter(
                       p.data, p.x_scale, y, f, context=layout.ranked), y="y"),
}
# A tuple, so a kind given as a list fails the membership test, not hashing.
COLUMN_KINDS = tuple(_KINDS)
_OPTION_KEYS = {key for kind in _KINDS.values() for key in kind.options}

# Layout metrics as fractions of canvas width/height; the defaults are tuned
# for a 1000x1300 canvas and scale with it.
MARGIN_X_F = 0.012
COL_GAP_F = 0.012
MARGIN_TOP_F = 0.008
MARGIN_BOT_F = 0.010
TITLE_F = 0.032
HEADER_F = 0.030
AXIS_TOP_F = 0.018
AXIS_BOT_F = 0.022
GUTTER_F = 0.006
SCALE_PAD_F = 0.07
MEDIAN_BAND_ROWS = 1.6
NO_DATA_GAP_GUTTERS = 2.5
HEADER_STYLE = Style(fill=colors.TEXT_COLOR, font_size=10.5, anchor="middle")
AXIS_LABEL_STYLE = Style(fill=colors.TEXT_COLOR, font_size=8.5, anchor="middle")
SEPARATOR_STYLE = Style(stroke=colors.SEPARATOR_COLOR, stroke_width=0.9)


_NO_ENTRIES = MappingProxyType({})  # read-only, so every column shares it


@value_type
class ColumnSpec(NamedTuple):
    kind: str
    header: tuple[str, ...] = ()
    bindings: Mapping[str, str] = _NO_ENTRIES
    options: Mapping[str, object] = _NO_ENTRIES


class _ChartFields(NamedTuple):
    title: str
    sort: SortSpec
    columns: tuple[ColumnSpec, ...]
    group_size: int = 5
    map_mode: str = GROUP_ONLY
    width: float = 1000.0
    height: float = 1300.0
    palette: Palette = DEFAULT_PALETTE


@value_type
class ChartSpec(_ChartFields):
    """A spec validate_spec accepted; columns hold read-only mappings."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "ChartSpec":
        spec = super().__new__(cls, *args, **kwargs)
        validate_spec(spec)
        columns = tuple(column._replace(
            bindings=MappingProxyType(dict(column.bindings)),
            options=MappingProxyType(dict(column.options)))
            for column in spec.columns)
        return super().__new__(cls, **{**spec._asdict(), "columns": columns})

    @classmethod
    def _make(cls, fields) -> "ChartSpec":  # _replace checks it too
        return cls(*fields)


_NOUNS = {str: "a string", int: "an integer", float: "a number",
          tuple: "a tuple", dict: "an object", Mapping: "an object",
          list: "an array", SortSpec: "a SortSpec", Palette: "a Palette",
          ColumnSpec: "a ColumnSpec"}


def expect(value: Any, kind: type, path: str) -> Any:
    """Return ``value`` if it is a ``kind``, else raise SpecError at ``path``.

    A bool is never accepted; for ``float`` an int is accepted too. A
    ``tuple`` must be a plain tuple, not a value type such as SortSpec.
    """
    types = (int, float) if kind is float else kind
    if (isinstance(value, bool) or not isinstance(value, types)
            or kind is tuple and type(value) is not tuple):
        raise SpecError(path, f"expected {_NOUNS[kind]}, "
                              f"got {type(value).__name__}")
    return value


def _one_of(value: object, choices: tuple[str, ...], path: str) -> None:
    if expect(value, str, path) not in choices:
        raise SpecError(path, f"must be one of {', '.join(choices)}; "
                              f"got {value!r}")


def _finite(value: object, path: str) -> float:
    number = expect(value, float, path)
    # Also false for NaN and for an int too large to become a float.
    if not abs(number) <= sys.float_info.max:
        raise SpecError(path, f"must be a finite number, got {value!r}")
    return number


def _validate_options(value: object, kind: str, path: str) -> None:
    options = expect(value, Mapping, path)
    for key in options:
        if key not in _OPTION_KEYS:
            raise UnknownKey(f"{path}.{key}")
        if key not in _KINDS[kind].options:
            raise SpecError(f"{path}.{key}", f"not used by a {kind} column")
    if "weight" in options:
        if _finite(options["weight"], f"{path}.weight") <= 0:
            raise SpecError(f"{path}.weight", "must be positive")
    if "reference_line" in options:
        _finite(options["reference_line"], f"{path}.reference_line")
    if "name_style" in options:
        _one_of(options["name_style"], ("full", "abbrev"), f"{path}.name_style")
    if "target_ticks" in options:
        ticks = expect(options["target_ticks"], int, f"{path}.target_ticks")
        if not 1 <= ticks <= 12:
            raise SpecError(f"{path}.target_ticks", "must be in 1..12")


def validate_spec(spec: ChartSpec) -> None:
    """Check every field of the spec that does not depend on the table.

    Every ChartSpec runs it when it is made or replaced, so a spec that
    exists has passed it; plan_chart checks each binding against the table
    where its column is planned. Raises SpecError (UnknownKey for an option
    key) with the config path of the offending value. The width rules lay
    the columns out on the canvas, as plan_chart does again.
    """
    expect(spec.title, str, "title")
    expect(spec.sort, SortSpec, "sort")
    expect(spec.sort.column, str, "sort.column")
    _one_of(spec.sort.direction, (ASCENDING, DESCENDING), "sort.direction")
    expect(spec.palette, Palette, "palette")
    slots = expect(spec.palette.slots, tuple, "palette.slots")
    if len(slots) != 5:
        raise SpecError("palette.slots", "exactly five slot colors")
    for i, color in enumerate(slots):
        expect(color, str, f"palette.slots[{i}]")
    expect(spec.palette.median, str, "palette.median")
    expect(spec.palette.no_data, str, "palette.no_data")
    if expect(spec.group_size, int, "group_size") < 1:
        raise SpecError("group_size", "must be >= 1")
    if spec.group_size > len(slots):
        raise SpecError("group_size", f"must be <= {len(slots)}, "
                                      "the number of palette slot colors")
    _one_of(spec.map_mode, (GROUP_ONLY, CUMULATIVE), "map_mode")
    for name in ("width", "height"):
        check_canvas_side(getattr(spec, name), f"output.{name}")
    if not expect(spec.columns, tuple, "columns"):
        raise SpecError("columns", "chart needs at least one column")
    for i, column in enumerate(spec.columns):
        path = f"columns[{i}]"
        if expect(column, ColumnSpec, path).kind not in COLUMN_KINDS:
            raise SpecError(path, f"unknown column kind {column.kind!r}")
        if len(expect(column.header, tuple, f"{path}.header")) > 2:
            raise SpecError(f"{path}.header", "at most two header lines")
        for j, line in enumerate(column.header):
            expect(line, str, f"{path}.header[{j}]")
        for key, ref in expect(column.bindings, Mapping, f"{path}.bindings").items():
            expect(ref, str, f"{path}.bindings.{key}")
        required = _KINDS[column.kind].bindings
        for key in required:
            if key not in column.bindings:
                raise SpecError(f"{path}.bindings", f"missing binding {key!r}")
        for key in column.bindings:
            if key not in required:
                raise SpecError(f"{path}.bindings", f"unexpected binding {key!r}")
        _validate_options(column.options, column.kind, f"{path}.options")
    kinds = [c.kind for c in spec.columns]
    if kinds.count(MAP) != 1:
        raise SpecError("columns", "chart needs exactly one map column")
    if kinds.count(LEGEND) != 1:
        raise SpecError("columns", "chart needs exactly one legend column")
    _column_x_layout(spec)


@value_type
class Band(NamedTuple):
    group_index: int  # NO_DATA_PANEL for the trailing block
    is_median: bool
    y: float
    height: float
    rows: tuple[RowBand, ...]
    tinted: tuple[str, ...]  # regions its map tints in CUMULATIVE_TINT


def _build_bands(layout: LinkedLayout, palette: Palette, mode: str,
                 top: float, bottom: float,
                 gutter: float) -> tuple[tuple[Band, ...], float]:
    plan = layout.plan
    groups = list(enumerate(layout.groups))
    # A cumulative map tints the ranked groups between its band and its
    # side's end, so shading grows toward the middle: the median group, which
    # tints nothing, or with an even count the boundary between two groups.
    mid = (len(groups) - 1) / 2.0
    if layout.unranked:
        groups.append((NO_DATA_PANEL, layout.unranked))
    # Each band's height in rows, and the gap above it: none above the first.
    heights = [MEDIAN_BAND_ROWS if gi == plan.median_group_index
               else len(members) for gi, members in groups]
    gaps = [gutter * (NO_DATA_GAP_GUTTERS if gi == NO_DATA_PANEL else 1.0)
            if position else 0.0 for position, (gi, _) in enumerate(groups)]
    # Added in order: sum() rounds differently from Python 3.12 on.
    row_h = (bottom - top - reduce(add, gaps)) / reduce(add, heights)

    bands: list[Band] = []
    y = top
    for (gi, members), in_rows, gap in zip(groups, heights, gaps):
        y += gap
        height = row_h * in_rows
        is_median = gi == plan.median_group_index
        centers = ([y + height / 2.0] if is_median else
                   [y + (i + 0.5) * row_h for i in range(len(members))])
        tinted = tuple(code for g, group in groups if mode == CUMULATIVE
                       and (0 <= g < gi < mid or mid < gi < g) for code in group)
        # The k-th region of a ranked group takes slot color k.
        bands.append(Band(gi, is_median, y, height, tuple(
            RowBand(code, cy, palette.median if is_median else palette.no_data
                    if gi == NO_DATA_PANEL else palette.slots[k])
            for k, (code, cy) in enumerate(zip(members, centers))), tinted))
        y += height
    return tuple(bands), row_h


def render_legend_column(name_style: str, frame: PanelFrame) -> Layers:
    """Color swatch plus region name, one row per row of the frame.

    name_style "full" uses the atlas's full names, "abbrev" the USPS
    codes. The median row renders in the dedicated median color.
    """
    out = Layers()
    # Inset and size are bounded by the column, so swatches stay inside it.
    inset = min(2.0, frame.width / 4.0)
    size = min(9.0, frame.row_height * 0.5, frame.width / 2.0)
    font = min(10.5, frame.row_height * 0.52)
    label_style = Style(fill=colors.TEXT_COLOR, font_size=font, anchor="start")
    for row in frame.rows:
        out.marks.append(Rect(frame.x + inset, row.y - size / 2.0, size, size,
                              shared_style(fill=row.color),
                              tag=f"region:{row.region}"))
        name = row.region if name_style == "abbrev" else BY_CODE[row.region].name
        out.labels.append(Text(frame.x + size + 7.0, row.y + font * 0.35, name,
                               label_style, tag=f"region:{row.region}"))
    return out


@value_type
class ColumnPlan(NamedTuple):
    spec: ColumnSpec
    index: int
    x: float
    width: float
    x_scale: Scale | None = None  # a time series' ticks are period indices
    y_base: Scale | None = None  # unit-range scale, re-ranged per band
    periods: tuple[str, ...] = ()
    # The renderer's input per region, read once per chart: a cell, a tuple
    # of a pair's cells, or a box column's BoxStats (None with no sample).
    data: dict[str, Any] | None = None
    labels: tuple[str, ...] = ()  # one per x tick
    reference: float | None = None  # a dot column's reference line
    no_value: tuple[str, ...] = ()  # sorted rows drawn as "n/a" or unmarked


def _column_x_layout(spec: ChartSpec) -> list[tuple[ColumnSpec, float, float]]:
    w = spec.width
    margin = w * MARGIN_X_F
    gap = w * COL_GAP_F
    fixed = {kind: w * k.width_f for kind, k in _KINDS.items()
             if k.width_f is not None}
    glyph_space = (w - 2 * margin - gap * (len(spec.columns) - 1)
                   - (fixed[MAP] + fixed[LEGEND]))
    weights = {i: float(c.options.get("weight", 1.0))
               for i, c in enumerate(spec.columns) if c.kind not in fixed}
    # Every weight is positive, so the total is 0 only with no glyph column.
    total_weight = sum(weights.values())
    if glyph_space <= 0 and total_weight:
        raise SpecError("columns", "canvas too narrow for the column count")

    out: list[tuple[ColumnSpec, float, float]] = []
    x = margin
    for i, column in enumerate(spec.columns):
        width = fixed.get(column.kind)
        if width is None:
            width = glyph_space * weights[i] / total_weight
            # False for NaN, overflow, and a width too small to add to x.
            if not x < x + width <= w:
                # A column that sets no weight is starved by the largest.
                at = (i if "weight" in column.options
                      else max(weights, key=weights.__getitem__))
                room = "the column" if at == i else f"columns[{i}]"
                raise SpecError(f"columns[{at}].options.weight",
                                f"leaves {room} no room (width {width:g})")
        out.append((column, x, width))
        x += width + gap
    return out


def _scale(extent: tuple[float, float], range_: tuple[float, float],
           ticks: int, path: str) -> Scale:
    """linear_scale, with an extent it cannot hold reported at ``path``."""
    try:
        return linear_scale(extent, range_, target_ticks=ticks)
    except BadExtent as exc:
        raise SpecError(path, str(exc)) from None


def _plan_column(column: ColumnSpec, index: int, x: float, width: float,
                 table: RegionTable) -> ColumnPlan:
    """The column's scales, and the data its renderer reads in every band.

    This is where each binding meets the table: an unknown ref, a series
    or value mismatch, no values, or a span no float holds raise SpecError
    at ``columns[i].bindings.<key>`` (or at the reference line's path).
    Each extent is column_extent's, or found by a box column's stats.
    """
    kind = _KINDS[column.kind]
    if not kind.bindings:
        return ColumnPlan(column, index, x, width)
    at = f"columns[{index}].bindings"
    extents: dict[str, tuple[float, float]] = {}
    values: list[dict[str, Any]] = []
    for key in kind.bindings:
        ref = column.bindings[key]
        try:
            resolved = resolve_ref(table, ref)
            if (resolved.column.kind == SERIES
                    and resolved.period_index is None) != kind.series:
                raise SpecError(f"{at}.{key}", (
                    f"{ref!r} must name a series column" if kind.series else
                    f"{ref!r} names a whole series; use <series>:<period>"))
            if kind.series:
                name = resolved.column.name
                cells = {code: row[name] for code, row in table.rows.items()}
            else:
                cells = scalar_values(table, ref)
            cells, extent = kind.summary(cells) if kind.summary else (cells, None)
            # Unless a summary found it, column_extent's: it raises with no value.
            extents[key] = extent or column_extent(table, ref)
        except (MissingColumn, EmptyColumn) as exc:
            raise SpecError(f"{at}.{key}", str(exc)) from None
        values.append(cells)
    pad = width * SCALE_PAD_F
    x_range = (x + pad, x + width - pad)
    ticks = column.options.get("target_ticks", 5)
    y_base = None
    if kind.y is not None:
        y_base = _scale(extents.pop(kind.y), (0.0, 1.0), 4, f"{at}.{kind.y}")
    periods: tuple[str, ...] = ()
    if extents:
        extent = (min(lo for lo, _ in extents.values()),
                  max(hi for _, hi in extents.values()))
    else:  # a time series: x is the period index
        periods = resolved.column.periods
        extent = (0.0, float(len(periods) - 1))
    if kind.zero:
        extent = (min(0.0, extent[0]), max(0.0, extent[1]))
    x_path = f"{at}.{next(iter(extents))}" if len(extents) == 1 else at
    x_scale = _scale(extent, x_range, ticks, x_path)
    line = column.options.get("reference_line")
    if line is not None:
        line = float(line)
        try:
            x_scale.check(line)
        except DomainOverflow:
            # Only a line outside the data's scale widens it, so a chart
            # whose line lies inside keeps its scale and its bytes.
            extent = (min(extent[0], line), max(extent[1], line))
            x_scale = _scale(extent, x_range, ticks,
                             f"columns[{index}].options.reference_line")
    if periods:
        shown = thin_labels(len(periods))
        x_scale = x_scale._replace(ticks=tuple(float(i) for i in shown))
        labels = tuple(periods[i] for i in shown)
    else:
        labels = tuple(format_tick(t) for t in x_scale.ticks)
    data = values[0] if len(values) == 1 else {
        code: tuple(cells[code] for cells in values) for code in table.rows}
    # None has no value, nor has a series with no value in any period.
    no_value = tuple(sorted({
        code for cells in values for code, cell in cells.items()
        if cell is None or kind.series and cell.count(None) == len(cell)}))
    return ColumnPlan(column, index, x, width, x_scale, y_base, periods, data,
                      labels, line, no_value)


def _axis_shapes(plan: ColumnPlan, top: float, bottom: float,
                 height: float) -> Layers:
    """Axis lines, tick marks and labels above the panels' ``top`` and below
    their ``bottom``; none for a map or legend column, which has no scale.
    Where a side's gap, tick and label offsets, plus half a unit, exceed its
    room to the canvas edge, all shrink by one factor to fit that room."""
    out = Layers()
    scale = plan.x_scale
    if scale is None:
        return out
    for edge, room, direction, drop in ((top, top, -1.0, 0.0),
                                        (bottom, height - bottom, 1.0, 6.5)):
        f = min(1.0, room / (4.0 + 3.5 + 3.0 + drop + 0.5))
        y = edge + direction * 4.0 * f
        tick_len = 3.5 * f
        out.axes.append(Line(scale.range[0], y, scale.range[1], y, AXIS_STYLE))
        label_y = y + direction * (tick_len + 3.0 * f) + drop * f
        for tick, label in zip(scale.ticks, plan.labels):
            x = scale.map(tick)
            out.axes.append(Line(x, y, x, y + direction * tick_len, TICK_STYLE))
            out.labels.append(Text(x, label_y, label, AXIS_LABEL_STYLE))
    return out


@value_type
class ChartPlan(NamedTuple):
    """What compose decides and finds before it draws. ``absent`` lists the
    regions with no row: no legend row, only the map's context fill."""
    spec: ChartSpec
    columns: tuple[ColumnPlan, ...]
    layout: LinkedLayout
    bands: tuple[Band, ...]
    row_height: float
    top: float  # the panels' top and bottom
    bottom: float
    absent: tuple[str, ...]
    warnings: tuple[str, ...]


def plan_chart(spec: ChartSpec, table: RegionTable) -> ChartPlan:
    """Plan the chart, running every rule that reads the table (the spec
    checked the rest when it was made): each binding where its column is
    planned, then the sort column where the regions are ranked. A sort
    column that no glyph column shows is only a warning, kept in the plan.
    """
    columns = tuple(_plan_column(column, i, x, width, table)
                    for i, (column, x, width) in enumerate(_column_x_layout(spec)))
    try:
        layout = build_layout(table, spec.sort, spec.group_size)
    except (MissingColumn, EmptySort) as exc:
        raise SpecError("sort.column", str(exc)) from None
    sort = spec.sort.column
    shown = {ref for column in spec.columns for ref in column.bindings.values()}
    # A period of a displayed series is shown by that series column.
    hidden = sort not in shown and not (":" in sort
                                        and sort.rpartition(":")[0] in shown)
    h = spec.height
    title_h = h * TITLE_F if spec.title else 0.0
    top = h * MARGIN_TOP_F + title_h + h * HEADER_F + h * AXIS_TOP_F
    bottom = h - h * MARGIN_BOT_F - h * AXIS_BOT_F
    bands, row_h = _build_bands(layout, spec.palette, spec.map_mode, top,
                                bottom, h * GUTTER_F)
    return ChartPlan(spec, columns, layout, bands, row_h, top, bottom,
                     tuple(sorted(set(ALL_CODES) - set(table.rows))),
                     (f"sort column {sort!r} is not shown by any glyph "
                      "column",) if hidden else ())


def compose(spec: ChartSpec, table: RegionTable, atlas: Atlas) -> Scene:
    """Build the complete chart scene for a spec and table: plan it, warn
    of each plan warning at the caller, and draw it."""
    plan = plan_chart(spec, table)
    for message in plan.warnings:
        warnings.warn(message, stacklevel=2)
    return _draw(plan, atlas)


def _draw(plan: ChartPlan, atlas: Atlas) -> Scene:
    """The plan's page and panels; it checks nothing, plan_chart did."""
    spec, bands, first, last = (plan.spec, plan.bands, plan.columns[0],
                                plan.columns[-1])
    w, h = spec.width, spec.height
    title_h = h * TITLE_F if spec.title else 0.0
    gutter = h * GUTTER_F

    page = Layers()
    placed: list[tuple[ColumnPlan, int, PanelFrame, bool, range]] = []
    if spec.title:
        page.labels.append(Text(w / 2.0, h * MARGIN_TOP_F + title_h * 0.62,
                                spec.title,
                                Style(fill=colors.TEXT_COLOR,
                                      font_size=title_h * 0.42,
                                      anchor="middle")))

    header_top = h * MARGIN_TOP_F + title_h
    # One header line sits where a pair's second line does.
    page.labels.extend(
        Text(col.x + col.width / 2.0, header_top + h * HEADER_F * f, line,
             HEADER_STYLE)
        for col in plan.columns
        for line, f in zip(col.spec.header,
                           (0.42, 0.80)[2 - len(col.spec.header):]))
    page.guides.extend(
        Line(first.x, y, last.x + last.width, y, SEPARATOR_STYLE)
        for band in bands
        for y in ((band.y - gutter * 0.5, band.y + band.height + gutter * 0.5)
                  if band.is_median else
                  (band.y - gutter * NO_DATA_GAP_GUTTERS * 0.5,)
                  if band.group_index == NO_DATA_PANEL else ()))

    for col in plan.columns:
        for band in bands:
            y_scale = None
            if col.y_base is not None:
                # At most half the band, so the y range cannot turn over.
                vpad = min(band.height * 0.10 + 2.0, band.height / 2.0)
                y_scale = col.y_base.with_range((band.y + band.height - vpad,
                                                 band.y + vpad))
            frame = PanelFrame(col.x, band.y, col.width, band.height,
                               band.rows, plan.row_height)
            panel = _KINDS[col.spec.kind].draw(col, frame, y_scale, band,
                                               plan.layout, atlas)
            placed.append((col, band.group_index, frame, bool(panel.fills),
                           page.add(panel)))
        page.add(_axis_shapes(col, plan.top, plan.bottom, h))

    # Shift each panel's linked marks from their slot to the flattened shapes.
    fills_at = len(page.guides)
    marks_at = fills_at + len(page.fills) + len(page.strokes)
    panels: list[PanelInfo] = []
    for col, group, frame, in_fills, marks in placed:
        at = fills_at if in_fills else marks_at
        panels.append(PanelInfo(col.index, col.spec.kind, group, frame,
                                range(marks.start + at, marks.stop + at)))
    return clamp_scene(Scene(w, h, page.flatten(), tuple(panels)))
