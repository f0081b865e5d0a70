"""Whole-page assembly: map column + legend column + glyph columns.

The page is a grid: one vertical band per perceptual group (plus a
separated trailing band when regions lack the sort value), crossed with one
horizontal band per column. Every column shares the same vertical band
math, so a region's row lines up exactly across the whole chart, and every
glyph column builds a single scale reused by all of its panels, so axes are
identical top to bottom.

Paint order is fixed for stable output: guides, minimap fills, minimap
strokes, glyph marks, axes, text.
"""

import sys
import warnings
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
    GlyphShapes,
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
from .scene import Line, PanelInfo, Rect, Scene, Shape, Style, Text, clamp_scene
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

GLYPH_KINDS = (DOT, BAR, ARROW, TIMESERIES, BOXPLOT, SCATTER)
COLUMN_KINDS = (MAP, LEGEND) + GLYPH_KINDS

REQUIRED_BINDINGS: dict[str, tuple[str, ...]] = {
    MAP: (),
    LEGEND: (),
    DOT: ("value",),
    BAR: ("value",),
    ARROW: ("start", "end"),
    TIMESERIES: ("series",),
    BOXPLOT: ("samples",),
    SCATTER: ("x", "y"),
}

# Layout metrics as fractions of canvas width/height; the defaults are tuned
# for a 1000x1300 canvas and scale with it.
MARGIN_X_F = 0.012
COL_GAP_F = 0.012
MAP_W_F = 0.150
LEGEND_W_F = 0.160
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
_OPTION_KEYS = ("weight", "reference_line", "name_style", "target_ticks")
# The options each column kind reads; a known option it ignores is an error.
_KIND_OPTIONS: dict[str, tuple[str, ...]] = {
    MAP: (), LEGEND: ("name_style",),
    DOT: ("weight", "reference_line", "target_ticks"),
    BAR: ("weight", "target_ticks"), ARROW: ("weight", "target_ticks"),
    TIMESERIES: ("weight",),
    BOXPLOT: ("weight", "target_ticks"), SCATTER: ("weight", "target_ticks"),
}


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
        if key not in _KIND_OPTIONS[kind]:
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
        required = REQUIRED_BINDINGS[column.kind]
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
    regions: tuple[tuple[str, float], ...]  # PanelInfo.rows


class _Layers:
    __slots__ = ("guides", "map_fills", "map_strokes", "marks", "axes", "text")

    def __init__(self) -> None:
        self.guides: list[Shape] = []
        self.map_fills: list[Shape] = []
        self.map_strokes: list[Shape] = []
        self.marks: list[Shape] = []
        self.axes: list[Shape] = []
        self.text: list[Shape] = []

    def flatten(self) -> tuple[Shape, ...]:
        return tuple(self.guides + self.map_fills
                     + self.map_strokes + self.marks + self.axes + self.text)

    def add_glyph(self, shapes: GlyphShapes) -> range:
        """Add one panel's shapes; returns where its marks sit in ``marks``."""
        start = len(self.marks)
        self.guides.extend(shapes.guides)
        self.marks.extend(shapes.marks)
        self.text.extend(shapes.labels)
        return range(start, len(self.marks))


def _region_color(code: str, layout: LinkedLayout, palette: Palette) -> str:
    slot = layout.slot_of.get(code)
    return palette.no_data if slot is None else palette.for_slot(slot)


def _build_bands(layout: LinkedLayout, palette: Palette, top: float,
                 bottom: float, gutter: float) -> tuple[list[_Band], float]:
    plan = layout.plan
    groups: list[tuple[int, tuple[str, ...]]] = [
        (gi, layout.group_members(gi)) for gi in range(len(plan.sizes))]
    if layout.unranked:
        groups.append((NO_DATA_PANEL, layout.unranked))

    rows_equivalent = 0.0
    gap_total = 0.0
    for position, (gi, members) in enumerate(groups):
        if gi == plan.median_group_index:
            rows_equivalent += MEDIAN_BAND_ROWS
        else:
            rows_equivalent += len(members)
        if position:
            gap_total += gutter * (NO_DATA_GAP_GUTTERS if gi == NO_DATA_PANEL
                                   else 1.0)
    row_h = (bottom - top - gap_total) / rows_equivalent

    bands: list[_Band] = []
    y = top
    for position, (gi, members) in enumerate(groups):
        if position:
            y += gutter * (NO_DATA_GAP_GUTTERS if gi == NO_DATA_PANEL else 1.0)
        is_median = gi == plan.median_group_index
        height = row_h * (MEDIAN_BAND_ROWS if is_median else len(members))
        if is_median:
            centers = [y + height / 2.0]
        else:
            centers = [y + (i + 0.5) * row_h for i in range(len(members))]
        regions = tuple(zip(members, centers))
        rows = tuple(RowBand(code, cy, _region_color(code, layout, palette))
                     for code, cy in regions)
        bands.append(_Band(gi, is_median, y, height, rows, regions))
        y += height
    return bands, row_h


def render_legend_column(name_style: str, frame: PanelFrame) -> GlyphShapes:
    """Color swatch plus region name, one row per row of the frame.

    name_style "full" uses the registry's full names, "abbrev" the USPS
    codes. The median row renders in the dedicated median color.
    """
    out = GlyphShapes()
    size = min(9.0, frame.row_height * 0.5)
    font = min(10.5, frame.row_height * 0.52)
    label_style = shared_style(fill=colors.TEXT_COLOR, font_size=font,
                               anchor="start")
    for row in frame.rows:
        out.marks.append(Rect(frame.x + 2.0, row.y - size / 2.0, size, size,
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
    map_w = w * MAP_W_F
    legend_w = w * LEGEND_W_F
    glyph_columns = [c for c in spec.columns if c.kind in GLYPH_KINDS]
    weights = [float(c.options.get("weight", 1.0)) for c in glyph_columns]
    fixed = map_w + legend_w
    glyph_space = w - 2 * margin - gap * (len(spec.columns) - 1) - fixed
    if glyph_space <= 0 and glyph_columns:
        raise SpecError("columns", "canvas too narrow for the column count")
    total_weight = sum(weights) or 1.0

    out: list[tuple[ColumnSpec, float, float]] = []
    x = margin
    wi = 0
    for i, column in enumerate(spec.columns):
        if column.kind == MAP:
            width = map_w
        elif column.kind == LEGEND:
            width = legend_w
        else:
            width = glyph_space * weights[wi] / total_weight
            wi += 1
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
    keys = REQUIRED_BINDINGS[column.kind]
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


def _render_glyph_panel(plan: _ColumnPlan, band: _Band, frame: PanelFrame,
                        layout: LinkedLayout) -> GlyphShapes:
    """The panel's shapes, from its column kind's renderer."""
    column = plan.spec
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


def _axis_shapes(plan: _ColumnPlan, y: float, above: bool,
                 ) -> tuple[list[Shape], list[Shape]]:
    """Axis line, tick marks, and labels for one glyph column."""
    assert plan.x_scale is not None
    scale = plan.x_scale
    tick_len = 3.5
    direction = -1.0 if above else 1.0
    lines: list[Shape] = [Line(scale.range[0], y, scale.range[1], y, AXIS_STYLE)]
    texts: list[Shape] = []
    label_y = y + direction * (tick_len + 3.0) + (0.0 if above else 6.5)
    for tick, label in zip(scale.ticks, plan.labels):
        x = scale.map(tick)
        lines.append(Line(x, y, x, y + direction * tick_len, TICK_STYLE))
        texts.append(Text(x, label_y, label, AXIS_LABEL_STYLE))
    return lines, texts


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
    palette = spec.palette
    w, h = spec.width, spec.height

    title_h = h * TITLE_F if spec.title else 0.0
    header_h = h * HEADER_F
    axis_top_h = h * AXIS_TOP_F
    axis_bot_h = h * AXIS_BOT_F
    gutter = h * GUTTER_F
    content_top = h * MARGIN_TOP_F + title_h + header_h + axis_top_h
    content_bottom = h - h * MARGIN_BOT_F - axis_bot_h

    bands, row_h = _build_bands(layout, palette, content_top, content_bottom,
                                gutter)

    layers = _Layers()
    placed: list[tuple[_ColumnPlan, _Band, range]] = []  # range: its marks
    content_left = columns[0][1]
    content_right = columns[-1][1] + columns[-1][2]

    if spec.title:
        layers.text.append(Text(w / 2.0, h * MARGIN_TOP_F + title_h * 0.62,
                                spec.title,
                                Style(fill=colors.TEXT_COLOR,
                                      font_size=title_h * 0.42,
                                      anchor="middle")))

    header_top = h * MARGIN_TOP_F + title_h
    for plan in plans:
        cx = plan.x + plan.width / 2.0
        lines = plan.spec.header
        for li, line in enumerate(lines[:2]):
            y = header_top + header_h * (0.42 if li == 0 else 0.80)
            if len(lines) == 1:
                y = header_top + header_h * 0.80
            layers.text.append(Text(cx, y, line, HEADER_STYLE))

    for band in bands:
        if band.is_median:
            layers.guides.append(Line(content_left, band.y - gutter * 0.5,
                                      content_right, band.y - gutter * 0.5,
                                      SEPARATOR_STYLE))
            layers.guides.append(Line(content_left,
                                      band.y + band.height + gutter * 0.5,
                                      content_right,
                                      band.y + band.height + gutter * 0.5,
                                      SEPARATOR_STYLE))
        if band.group_index == NO_DATA_PANEL:
            y = band.y - gutter * NO_DATA_GAP_GUTTERS * 0.5
            layers.guides.append(Line(content_left, y, content_right, y,
                                      SEPARATOR_STYLE))

    for plan in plans:
        for band in bands:
            frame = PanelFrame(plan.x, band.y, plan.width, band.height,
                               band.rows, row_h)
            if plan.spec.kind == MAP:
                shapes = render_minimap(atlas, layout, band.group_index,
                                        spec.map_mode, frame)
                start = len(layers.map_fills)
                layers.map_fills.extend(shapes.fills)
                layers.map_strokes.extend(shapes.strokes)
                marks = range(start, len(layers.map_fills))
            elif plan.spec.kind == LEGEND:
                name_style = plan.spec.options.get("name_style", "full")
                marks = layers.add_glyph(render_legend_column(name_style,
                                                              frame))
            else:
                marks = layers.add_glyph(_render_glyph_panel(plan, band, frame,
                                                             layout))
            placed.append((plan, band, marks))

        if plan.spec.kind in GLYPH_KINDS:
            top_y = content_top - 4.0
            bot_y = content_bottom + 4.0
            for y, above in ((top_y, True), (bot_y, False)):
                lines, texts = _axis_shapes(plan, y, above)
                layers.axes.extend(lines)
                layers.text.extend(texts)

    # Shift each panel's marks from its layer to the flattened shapes.
    fills_at = len(layers.guides)
    marks_at = fills_at + len(layers.map_fills) + len(layers.map_strokes)
    panels: list[PanelInfo] = []
    for plan, band, marks in placed:
        at = fills_at if plan.spec.kind == MAP else marks_at
        panels.append(PanelInfo(plan.index, plan.spec.kind, band.group_index,
                                plan.x, band.y, plan.width, band.height,
                                band.is_median, band.regions, *plan.axes,
                                range(marks.start + at, marks.stop + at)))
    return clamp_scene(Scene(w, h, layers.flatten(), tuple(panels)))

