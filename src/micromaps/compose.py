"""Whole-page assembly: map column + legend column + glyph columns.

The page is a grid: one vertical band per perceptual group (plus a
separated trailing band when regions lack the sort value), crossed with one
horizontal band per column. Every column shares the same vertical band
math, so a region's row lines up exactly across the whole chart, and every
glyph column builds a single scale reused by all of its panels, so axes are
identical top to bottom.

Each panel is drawn by one call, ``_render_panel``, into a
``scene.Layers``; the page's title, headers, separators and axes go into
one more, and every panel is added to it. Its slot order is the paint
order, fixed for stable output: guides, map fills, map borders, marks,
axes, labels.
"""

import sys
import warnings
from functools import reduce
from operator import add
from typing import Any, NamedTuple

from . import colors
from .atlas import (
    CUMULATIVE,
    GROUP_ONLY,
    NO_DATA_PANEL,
    Atlas,
    render_minimap,
)
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
    PanelFrame,
    RowBand,
    render_arrow,
    render_bar,
    render_boxplot,
    render_dot,
    render_scatter,
    render_timeseries,
    shared_style,
)
from .layout import ASCENDING, DESCENDING, LinkedLayout, SortSpec, build_layout
from .regions import BY_CODE
from .scale import Scale, format_tick, linear_scale, thin_labels
from .scene import Layers, Line, PanelInfo, Rect, Scene, Style, Text, clamp_scene
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


class _Kind(NamedTuple):
    bindings: tuple[str, ...]
    options: tuple[str, ...]  # a known option it does not read is an error
    width_f: float | None = None  # of the canvas width; None: by weight


# Each column kind's bindings, the options it reads, and its width.
_KINDS: dict[str, _Kind] = {
    MAP: _Kind((), (), 0.150),
    LEGEND: _Kind((), ("name_style",), 0.160),
    DOT: _Kind(("value",), ("weight", "reference_line", "target_ticks")),
    BAR: _Kind(("value",), ("weight", "target_ticks")),
    ARROW: _Kind(("start", "end"), ("weight", "target_ticks")),
    TIMESERIES: _Kind(("series",), ("weight",)),
    BOXPLOT: _Kind(("samples",), ("weight", "target_ticks")),
    SCATTER: _Kind(("x", "y"), ("weight", "target_ticks")),
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
# 100 times the default canvas; coordinates keep at most six integer digits.
MAX_CANVAS = 100000.0
NO_DATA_GAP_GUTTERS = 2.5
HEADER_STYLE = Style(fill=colors.TEXT_COLOR, font_size=10.5, anchor="middle")
AXIS_LABEL_STYLE = Style(fill=colors.TEXT_COLOR, font_size=8.5, anchor="middle")
SEPARATOR_STYLE = Style(stroke=colors.SEPARATOR_COLOR, stroke_width=0.9)


class _ColumnFields(NamedTuple):
    kind: str
    header: tuple[str, ...]
    bindings: dict[str, str]
    options: dict[str, object]


_NEW_DICT: Any = object()  # default: a new dict per ColumnSpec


@value_type
class ColumnSpec(_ColumnFields):
    __slots__ = ()

    def __new__(cls, kind: str, header: tuple[str, ...] = (),
                bindings: dict[str, str] = _NEW_DICT,
                options: dict[str, object] = _NEW_DICT) -> "ColumnSpec":
        return super().__new__(cls, kind, header,
                               {} if bindings is _NEW_DICT else bindings,
                               {} if options is _NEW_DICT else options)


@value_type
class ChartSpec(NamedTuple):
    title: str
    sort: SortSpec
    columns: tuple[ColumnSpec, ...]
    group_size: int = 5
    map_mode: str = GROUP_ONLY
    width: float = 1000.0
    height: float = 1300.0
    palette: Palette = DEFAULT_PALETTE


_NOUNS = {str: "a string", int: "an integer", float: "a number",
          tuple: "a tuple", dict: "an object", list: "an array",
          SortSpec: "a SortSpec", Palette: "a Palette",
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
    options = expect(value, dict, path)
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


def validate_spec(spec: ChartSpec) -> list[tuple[ColumnSpec, float, float]]:
    """Check every field of the spec that does not depend on the table.

    parse_config maps JSON onto a ChartSpec and calls it; compose calls it
    too, then checks each binding against the table where its column is
    planned. Raises SpecError (UnknownKey for an option key) with the
    config path of the offending value. Returns each column's
    ``(column, x, width)`` on the canvas, which the width rules compute.
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
        if not 0 < _finite(getattr(spec, name), f"output.{name}") <= MAX_CANVAS:
            raise SpecError(f"output.{name}",
                            f"must be above 0 and at most {MAX_CANVAS:g}")
    if not spec.columns:
        raise SpecError("columns", "chart needs at least one column")
    for i, column in enumerate(spec.columns):
        path = f"columns[{i}]"
        if expect(column, ColumnSpec, path).kind not in COLUMN_KINDS:
            raise SpecError(path, f"unknown column kind {column.kind!r}")
        if len(expect(column.header, tuple, f"{path}.header")) > 2:
            raise SpecError(f"{path}.header", "at most two header lines")
        for j, line in enumerate(column.header):
            expect(line, str, f"{path}.header[{j}]")
        for key, ref in expect(column.bindings, dict, f"{path}.bindings").items():
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
    return _column_x_layout(spec)


class _Band(NamedTuple):
    group_index: int  # NO_DATA_PANEL for the trailing block
    is_median: bool
    y: float
    height: float
    rows: tuple[RowBand, ...]


def _build_bands(layout: LinkedLayout, palette: Palette, top: float,
                 bottom: float, gutter: float) -> tuple[list[_Band], float]:
    plan = layout.plan
    groups: list[tuple[int, tuple[str, ...]]] = [
        (gi, layout.group_members(gi)) for gi in range(len(plan.sizes))]
    if layout.unranked:
        groups.append((NO_DATA_PANEL, layout.unranked))
    # Each band's height in rows, and the gap above it: none above the first.
    heights = [MEDIAN_BAND_ROWS if gi == plan.median_group_index
               else len(members) for gi, members in groups]
    gaps = [gutter * (NO_DATA_GAP_GUTTERS if gi == NO_DATA_PANEL else 1.0)
            if position else 0.0 for position, (gi, _) in enumerate(groups)]
    # Added in order: sum() rounds differently from Python 3.12 on.
    row_h = (bottom - top - reduce(add, gaps)) / reduce(add, heights)

    color = {code: palette.for_slot(slot)
             for code, slot in layout.slot_of.items()}
    bands: list[_Band] = []
    y = top
    for (gi, members), in_rows, gap in zip(groups, heights, gaps):
        y += gap
        height = row_h * in_rows
        is_median = gi == plan.median_group_index
        centers = ([y + height / 2.0] if is_median else
                   [y + (i + 0.5) * row_h for i in range(len(members))])
        bands.append(_Band(gi, is_median, y, height, tuple(
            RowBand(code, cy, color.get(code, palette.no_data))
            for code, cy in zip(members, centers))))
        y += height
    return bands, row_h


def render_legend_column(name_style: str, frame: PanelFrame) -> Layers:
    """Color swatch plus region name, one row per row of the frame.

    name_style "full" uses the registry's full names, "abbrev" the USPS
    codes. The median row renders in the dedicated median color.
    """
    out = Layers()
    # Inset and size are bounded by the column, so swatches stay inside it.
    inset = min(2.0, frame.width / 4.0)
    size = min(9.0, frame.row_height * 0.5, frame.width / 2.0)
    font = min(10.5, frame.row_height * 0.52)
    label_style = shared_style(fill=colors.TEXT_COLOR, font_size=font,
                               anchor="start")
    for row in frame.rows:
        out.marks.append(Rect(frame.x + inset, row.y - size / 2.0, size, size,
                              shared_style(fill=row.color),
                              tag=f"region:{row.region}"))
        name = row.region if name_style == "abbrev" else BY_CODE[row.region].name
        out.labels.append(Text(frame.x + size + 7.0, row.y + font * 0.35, name,
                               label_style, tag=f"region:{row.region}"))
    return out


class _ColumnPlan(NamedTuple):
    spec: ColumnSpec
    index: int
    x: float
    width: float
    x_scale: Scale | None = None  # a time series' ticks are period indices
    y_base: Scale | None = None  # unit-range scale, re-ranged per band
    periods: tuple[str, ...] = ()
    data: dict[str, Any] | None = None  # the renderer's input, per region
    labels: tuple[str, ...] = ()  # one per x tick
    axes: tuple[Any, ...] = (None,) * 4  # PanelInfo x/y domains and ticks


def _column_x_layout(spec: ChartSpec) -> list[tuple[ColumnSpec, float, float]]:
    w = spec.width
    margin = w * MARGIN_X_F
    gap = w * COL_GAP_F
    fixed = {kind: w * k.width_f for kind, k in _KINDS.items()
             if k.width_f is not None}
    glyph_space = (w - 2 * margin - gap * (len(spec.columns) - 1)
                   - (fixed[MAP] + fixed[LEGEND]))
    # Every weight is positive, so the total is 0 only with no glyph column.
    total_weight = sum(float(c.options.get("weight", 1.0))
                       for c in spec.columns if c.kind not in fixed)
    if glyph_space <= 0 and total_weight:
        raise SpecError("columns", "canvas too narrow for the column count")

    out: list[tuple[ColumnSpec, float, float]] = []
    x = margin
    for i, column in enumerate(spec.columns):
        width = fixed.get(column.kind)
        if width is None:
            weight = float(column.options.get("weight", 1.0))
            width = glyph_space * weight / total_weight
            # False for NaN, overflow, and a width too small to add to x.
            if not x < x + width <= w:
                raise SpecError(f"columns[{i}].options.weight",
                                f"leaves the column no room (width {width:g})")
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
                 table: RegionTable) -> _ColumnPlan:
    """The column's scales, and the data its renderer reads in every band.

    This is where each binding meets the table: an unknown ref, a series
    or value mismatch, no values, or a span no float holds raise SpecError
    at ``columns[i].bindings.<key>`` (or at the reference line's path).
    A scalar's or a boxplot's extent comes from the values it reads once,
    and min and max keep the first of equal values, as column_extent does.
    """
    if column.kind in (MAP, LEGEND):
        return _ColumnPlan(column, index, x, width)
    wants_series = column.kind in (TIMESERIES, BOXPLOT)
    keys = _KINDS[column.kind].bindings
    paths = [f"columns[{index}].bindings.{key}" for key in keys]
    extents: list[tuple[float, float]] = []
    values: list[dict[str, Any]] = []
    for key, path in zip(keys, paths):
        ref = column.bindings[key]
        try:
            resolved = resolve_ref(table, ref)
            if column.kind == TIMESERIES:
                extents.append(column_extent(table, ref))
        except (MissingColumn, EmptyColumn) as exc:
            raise SpecError(path, str(exc)) from None
        whole_series = (resolved.column.kind == SERIES
                        and resolved.period_index is None)
        if wants_series and not whole_series:
            raise SpecError(path, f"{ref!r} must name a series column")
        if whole_series and not wants_series:
            raise SpecError(path, f"{ref!r} names a whole series; "
                                  "use <series>:<period>")
        name = resolved.column.name
        if column.kind == TIMESERIES:
            values.append({code: row[name] for code, row in table.rows.items()})
            continue
        if column.kind == BOXPLOT:
            cells = {code: [v for v in row[name] if v is not None]
                     for code, row in table.rows.items()}
            present = [s for s in cells.values() if s]
            lows, highs = list(map(min, present)), list(map(max, present))
        else:
            cells = scalar_values(table, ref)
            lows = highs = [v for v in cells.values() if v is not None]
        if not lows:
            raise SpecError(path, f"column {ref!r} has no values")
        extents.append((min(lows), max(highs)))
        values.append(cells)
    pad = width * SCALE_PAD_F
    x_range = (x + pad, x + width - pad)
    ticks = column.options.get("target_ticks", 5)
    y_base = None
    periods: tuple[str, ...] = ()
    extent = extents[0]
    data = values[0]
    if wants_series:  # one binding, so ``resolved`` is its series
        if column.kind == TIMESERIES:
            periods = resolved.column.periods
            y_base = _scale(extent, (0.0, 1.0), 4, paths[0])
            extent = (0.0, float(max(len(periods) - 1, 0)))
    elif column.kind in (ARROW, SCATTER):
        firsts, seconds = values
        data = {code: (firsts[code], seconds[code]) for code in table.rows}
        if column.kind == ARROW:
            extent = (min(e[0] for e in extents), max(e[1] for e in extents))
        else:
            y_base = _scale(extents[1], (0.0, 1.0), 4, paths[1])
    elif column.kind == BAR:
        extent = (min(0.0, extent[0]), max(0.0, extent[1]))
    x_path = f"columns[{index}].bindings" if column.kind == ARROW else paths[0]
    x_scale = _scale(extent, x_range, ticks, x_path)
    ref = column.options.get("reference_line")
    if column.kind == DOT and ref is not None:
        line = float(ref)
        try:
            x_scale.check(line)
        except DomainOverflow:
            # Only a line outside the data's scale widens it, so a chart
            # whose line lies inside keeps its scale and its bytes.
            extent = (min(extent[0], line), max(extent[1], line))
            x_scale = _scale(extent, x_range, ticks,
                             f"columns[{index}].options.reference_line")
    if column.kind == TIMESERIES:
        shown = thin_labels(len(periods))
        x_scale = x_scale._replace(ticks=tuple(float(i) for i in shown))
        labels = tuple(periods[i] for i in shown)
    else:
        labels = tuple(format_tick(t) for t in x_scale.ticks)
    y_axis = (None, None) if y_base is None else (y_base.domain, y_base.ticks)
    return _ColumnPlan(column, index, x, width, x_scale, y_base, periods, data,
                       labels, (x_scale.domain, x_scale.ticks, *y_axis))


def _render_panel(plan: _ColumnPlan, band: _Band, frame: PanelFrame,
                  layout: LinkedLayout, atlas: Atlas, map_mode: str) -> Layers:
    """One band's panel of a column, from its column kind's renderer."""
    # Renderers are module globals looked up per call, not a table built at
    # import, so bench/tracing.py can wrap them here.
    column = plan.spec
    if column.kind == MAP:
        return render_minimap(atlas, layout, band.group_index, map_mode, frame)
    if column.kind == LEGEND:
        return render_legend_column(column.options.get("name_style", "full"),
                                    frame)
    assert plan.x_scale is not None and plan.data is not None
    if plan.y_base is not None:  # timeseries and scatter
        # At most half the band, so the y range cannot turn over.
        vpad = min(band.height * 0.10 + 2.0, band.height / 2.0)
        y_scale = plan.y_base.with_range((band.y + band.height - vpad,
                                          band.y + vpad))

    if column.kind == DOT:
        ref = column.options.get("reference_line")
        return render_dot(plan.data, plan.x_scale, frame,
                          reference_line=None if ref is None else float(ref))
    if column.kind == BAR:
        return render_bar(plan.data, plan.x_scale, frame)
    if column.kind == ARROW:
        return render_arrow(plan.data, plan.x_scale, frame)
    if column.kind == TIMESERIES:
        return render_timeseries(plan.data, plan.periods, plan.x_scale,
                                 y_scale, frame)
    if column.kind == SCATTER:
        return render_scatter(plan.data, plan.x_scale, y_scale, frame,
                              context=layout.ranked)
    return render_boxplot(plan.data, plan.x_scale, frame)


def _axis_shapes(plan: _ColumnPlan, top: float, bottom: float) -> Layers:
    """Axis lines, tick marks and labels above and below a glyph column;
    none for a map or legend column, which has no scale."""
    out = Layers()
    scale = plan.x_scale
    if scale is None:
        return out
    tick_len = 3.5
    for y, above in ((top, True), (bottom, False)):
        direction = -1.0 if above else 1.0
        out.axes.append(Line(scale.range[0], y, scale.range[1], y, AXIS_STYLE))
        label_y = y + direction * (tick_len + 3.0) + (0.0 if above else 6.5)
        for tick, label in zip(scale.ticks, plan.labels):
            x = scale.map(tick)
            out.axes.append(Line(x, y, x, y + direction * tick_len, TICK_STYLE))
            out.labels.append(Text(x, label_y, label, AXIS_LABEL_STYLE))
    return out


def compose(spec: ChartSpec, table: RegionTable, atlas: Atlas) -> Scene:
    """Build the complete chart scene for a spec and table.

    Every rule runs before any panel is drawn: validate_spec for the spec,
    then each binding where its column is planned, then the sort column
    where the regions are ranked. A sort column that no glyph column shows
    is only a warning.
    """
    columns = validate_spec(spec)
    plans = [_plan_column(column, i, x, width, table)
             for i, (column, x, width) in enumerate(columns)]
    try:
        layout = build_layout(table, spec.sort, spec.group_size)
    except (MissingColumn, EmptySort) as exc:
        raise SpecError("sort.column", str(exc)) from None
    sort = spec.sort.column
    shown = {ref for column in spec.columns for ref in column.bindings.values()}
    # A period of a displayed series is shown by that series column.
    if sort not in shown and not (":" in sort
                                  and sort.rpartition(":")[0] in shown):
        warnings.warn(f"sort column {sort!r} is not shown by any glyph "
                      "column", stacklevel=2)
    w, h = spec.width, spec.height

    title_h = h * TITLE_F if spec.title else 0.0
    header_h = h * HEADER_F
    axis_top_h = h * AXIS_TOP_F
    axis_bot_h = h * AXIS_BOT_F
    gutter = h * GUTTER_F
    content_top = h * MARGIN_TOP_F + title_h + header_h + axis_top_h
    content_bottom = h - h * MARGIN_BOT_F - axis_bot_h

    bands, row_h = _build_bands(layout, spec.palette, content_top,
                                content_bottom, gutter)

    page = Layers()
    placed: list[tuple[_ColumnPlan, _Band, bool, range]] = []
    content_left = columns[0][1]
    content_right = columns[-1][1] + columns[-1][2]

    if spec.title:
        page.labels.append(Text(w / 2.0, h * MARGIN_TOP_F + title_h * 0.62,
                                spec.title,
                                Style(fill=colors.TEXT_COLOR,
                                      font_size=title_h * 0.42,
                                      anchor="middle")))

    header_top = h * MARGIN_TOP_F + title_h
    # One header line sits where a pair's second line does.
    page.labels.extend(
        Text(plan.x + plan.width / 2.0, header_top + header_h * f, line,
             HEADER_STYLE)
        for plan in plans
        for line, f in zip(plan.spec.header,
                           (0.42, 0.80)[2 - len(plan.spec.header):]))
    page.guides.extend(
        Line(content_left, y, content_right, y, SEPARATOR_STYLE)
        for band in bands
        for y in ((band.y - gutter * 0.5, band.y + band.height + gutter * 0.5)
                  if band.is_median else
                  (band.y - gutter * NO_DATA_GAP_GUTTERS * 0.5,)
                  if band.group_index == NO_DATA_PANEL else ()))

    for plan in plans:
        for band in bands:
            frame = PanelFrame(plan.x, band.y, plan.width, band.height,
                               band.rows, row_h)
            panel = _render_panel(plan, band, frame, layout, atlas,
                                  spec.map_mode)
            placed.append((plan, band, bool(panel.fills), page.add(panel)))
        page.add(_axis_shapes(plan, content_top - 4.0, content_bottom + 4.0))

    # Shift each panel's linked marks from their slot to the flattened shapes.
    fills_at = len(page.guides)
    marks_at = fills_at + len(page.fills) + len(page.strokes)
    rows = {band.group_index: tuple(row[:2] for row in band.rows)
            for band in bands}
    panels: list[PanelInfo] = []
    for plan, band, in_fills, marks in placed:
        at = fills_at if in_fills else marks_at
        panels.append(PanelInfo(plan.index, plan.spec.kind, band.group_index,
                                plan.x, band.y, plan.width, band.height,
                                band.is_median, rows[band.group_index],
                                *plan.axes,
                                range(marks.start + at, marks.stop + at)))
    return clamp_scene(Scene(w, h, page.flatten(), tuple(panels)))
