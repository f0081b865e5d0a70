"""Whole-page assembly: map column + legend column + glyph columns.

The page is a grid: one vertical band per perceptual group (plus a
separated trailing band when regions lack the sort value), crossed with one
horizontal band per column. Every column shares the same vertical band
math, so a region's row lines up exactly across the whole chart, and every
glyph column builds a single scale reused by all of its panels, so axes are
identical top to bottom.

Paint order is fixed for stable output: background, guides, minimap fills,
minimap strokes, glyph marks, axes, text.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field
from typing import Any

from . import colors
from .atlas import (
    CUMULATIVE,
    GROUP_ONLY,
    NO_DATA_PANEL,
    Atlas,
    MiniMapStyle,
    render_minimap,
)
from .colors import DEFAULT_PALETTE, Palette
from .errors import DomainOverflow, SpecError, UnknownKey
from .glyphs import (
    GlyphShapes,
    PanelFrame,
    RowBand,
    render_arrow,
    render_bar,
    render_boxplot,
    render_dot,
    render_scatter,
    render_timeseries,
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
NO_DATA_GAP_GUTTERS = 2.5


@dataclass(frozen=True)
class ColumnSpec:
    kind: str
    header: tuple[str, ...] = ()
    bindings: dict[str, str] = field(default_factory=dict)
    options: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ChartSpec:
    title: str
    sort: SortSpec
    columns: tuple[ColumnSpec, ...]
    group_size: int = 5
    map_mode: str = GROUP_ONLY
    width: float = 1000.0
    height: float = 1300.0
    palette: Palette = DEFAULT_PALETTE


_NOUNS = {str: "a string", int: "an integer", float: "a number",
          tuple: "a tuple", dict: "an object", list: "an array"}
_OPTION_KEYS = ("weight", "reference_line", "name_style", "target_ticks")


def expect(value: Any, kind: type, path: str) -> Any:
    """Return ``value`` if it is a ``kind``, else raise SpecError at ``path``.

    A bool is never accepted; for ``float`` an int is accepted too.
    """
    types = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, types):
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


def _validate_options(value: object, path: str) -> None:
    options = expect(value, dict, path)
    for key in options:
        if key not in _OPTION_KEYS:
            raise UnknownKey(f"{path}.{key}")
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


def validate_spec(spec: ChartSpec, table: RegionTable | None = None) -> None:
    """Check every field of the spec, and bindings against the table when given.

    This is the one place chart specs are checked: parse_config maps JSON
    onto a ChartSpec and calls it too. Raises SpecError (UnknownKey for an
    option key) with the config path of the offending value; a sort column
    that is not displayed by any glyph is only a warning.
    """
    expect(spec.title, str, "title")
    expect(spec.sort.column, str, "sort.column")
    _one_of(spec.sort.direction, (ASCENDING, DESCENDING), "sort.direction")
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
        if _finite(getattr(spec, name), f"output.{name}") <= 0:
            raise SpecError(f"output.{name}", "must be positive")
    if not spec.columns:
        raise SpecError("columns", "chart needs at least one column")
    kinds = [c.kind for c in spec.columns]
    for i, column in enumerate(spec.columns):
        path = f"columns[{i}]"
        if column.kind not in COLUMN_KINDS:
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
        _validate_options(column.options, f"{path}.options")
    if kinds.count(MAP) != 1:
        raise SpecError("columns", "chart needs exactly one map column")
    if kinds.count(LEGEND) != 1:
        raise SpecError("columns", "chart needs exactly one legend column")

    if table is None:
        return
    bound_refs: set[str] = set()
    for i, column in enumerate(spec.columns):
        for key, ref in column.bindings.items():
            path = f"columns[{i}].bindings.{key}"
            try:
                resolved = resolve_ref(table, ref)
            except Exception as exc:
                raise SpecError(path, str(exc)) from None
            bound_refs.add(ref)
            whole_series = (resolved.column.kind == SERIES
                            and resolved.period_index is None)
            if column.kind in (TIMESERIES, BOXPLOT):
                if not whole_series:
                    raise SpecError(path, f"{ref!r} must name a series column")
            elif whole_series:
                raise SpecError(path, f"{ref!r} names a whole series; "
                                      "use <series>:<period>")
    try:
        resolve_ref(table, spec.sort.column)
    except Exception as exc:
        raise SpecError("sort.column", str(exc)) from None
    shown = spec.sort.column in bound_refs
    if not shown and ":" in spec.sort.column:
        # A period of a displayed series is shown by that series column.
        shown = spec.sort.column.rpartition(":")[0] in bound_refs
    if not shown:
        warnings.warn(f"sort column {spec.sort.column!r} is not shown by any "
                      "glyph column", stacklevel=2)


@dataclass(frozen=True)
class _Band:
    group_index: int  # NO_DATA_PANEL for the trailing block
    is_median: bool
    y: float
    height: float
    rows: tuple[RowBand, ...]


@dataclass
class _Layers:
    background: list[Shape] = field(default_factory=list)
    guides: list[Shape] = field(default_factory=list)
    map_fills: list[Shape] = field(default_factory=list)
    map_strokes: list[Shape] = field(default_factory=list)
    marks: list[Shape] = field(default_factory=list)
    axes: list[Shape] = field(default_factory=list)
    text: list[Shape] = field(default_factory=list)

    def flatten(self) -> tuple[Shape, ...]:
        return tuple(self.background + self.guides + self.map_fills
                     + self.map_strokes + self.marks + self.axes + self.text)

    def add_glyph(self, shapes: GlyphShapes) -> None:
        self.guides.extend(shapes.guides)
        self.marks.extend(shapes.marks)
        self.text.extend(shapes.labels)


def _region_color(code: str, layout: LinkedLayout, palette: Palette) -> str:
    slot = layout.slot_of.get(code)
    return palette.no_data if slot is None else palette.for_slot(slot)


def _build_bands(layout: LinkedLayout, top: float, bottom: float,
                 gutter: float) -> tuple[list[_Band], float]:
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
        rows = tuple(RowBand(code, cy, "") for code, cy in zip(members, centers))
        bands.append(_Band(gi, is_median, y, height, rows))
        y += height
    return bands, row_h


def _with_colors(band: _Band, layout: LinkedLayout, palette: Palette,
                 x: float, width: float, row_h: float) -> PanelFrame:
    rows = tuple(RowBand(r.region, r.y, _region_color(r.region, layout, palette))
                 for r in band.rows)
    return PanelFrame(x, band.y, width, band.height, rows, row_h)


def render_legend_column(name_style: str, frame: PanelFrame) -> GlyphShapes:
    """Color swatch plus region name, one row per row of the frame.

    name_style "full" uses the registry's full names, "abbrev" the USPS
    codes. The median row renders in the dedicated median color.
    """
    out = GlyphShapes()
    size = min(9.0, frame.row_height * 0.5)
    font = min(10.5, frame.row_height * 0.52)
    for row in frame.rows:
        out.marks.append(Rect(frame.x + 2.0, row.y - size / 2.0, size, size,
                              Style(fill=row.color), tag=f"region:{row.region}"))
        name = row.region if name_style == "abbrev" else BY_CODE[row.region].name
        out.labels.append(Text(frame.x + size + 7.0, row.y + font * 0.35, name,
                               Style(fill=colors.TEXT_COLOR, font_size=font,
                                     anchor="start"),
                               tag=f"region:{row.region}"))
    return out


@dataclass(frozen=True)
class _ColumnPlan:
    spec: ColumnSpec
    index: int
    x: float
    width: float
    x_scale: Scale | None = None
    y_base: Scale | None = None  # unit-range scale, re-ranged per band
    periods: tuple[str, ...] = ()


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
    for column in spec.columns:
        if column.kind == MAP:
            width = map_w
        elif column.kind == LEGEND:
            width = legend_w
        else:
            width = glyph_space * weights[wi] / total_weight
            wi += 1
        out.append((column, x, width))
        x += width + gap
    return out


def _arrow_extent(table: RegionTable, start_ref: str,
                  end_ref: str) -> tuple[float, float]:
    lo1, hi1 = column_extent(table, start_ref)
    lo2, hi2 = column_extent(table, end_ref)
    return (min(lo1, lo2), max(hi1, hi2))


def _plan_column(column: ColumnSpec, index: int, x: float, width: float,
                 table: RegionTable) -> _ColumnPlan:
    if column.kind in (MAP, LEGEND):
        return _ColumnPlan(column, index, x, width)
    pad = width * SCALE_PAD_F
    x_range = (x + pad, x + width - pad)
    ticks = column.options.get("target_ticks", 5)
    if column.kind == TIMESERIES:
        series_col = resolve_ref(table, column.bindings["series"]).column
        n = len(series_col.periods)
        x_scale = linear_scale((0.0, float(max(n - 1, 0))), x_range,
                               target_ticks=ticks)
        y_base = linear_scale(column_extent(table, series_col.name), (0.0, 1.0),
                              target_ticks=4)
        return _ColumnPlan(column, index, x, width, x_scale, y_base,
                           series_col.periods)
    if column.kind == SCATTER:
        x_scale = linear_scale(column_extent(table, column.bindings["x"]),
                               x_range, target_ticks=ticks)
        y_base = linear_scale(column_extent(table, column.bindings["y"]),
                              (0.0, 1.0), target_ticks=4)
        return _ColumnPlan(column, index, x, width, x_scale, y_base)
    if column.kind == ARROW:
        extent = _arrow_extent(table, column.bindings["start"],
                               column.bindings["end"])
    elif column.kind == BOXPLOT:
        extent = column_extent(table, column.bindings["samples"])
    else:
        extent = column_extent(table, column.bindings["value"])
        if column.kind == BAR:
            extent = (min(0.0, extent[0]), max(0.0, extent[1]))
    x_scale = linear_scale(extent, x_range, target_ticks=ticks)
    ref = column.options.get("reference_line")
    if column.kind == DOT and ref is not None:
        line = float(ref)
        try:
            x_scale.check(line)
        except DomainOverflow:
            # Only a line outside the data's scale widens it, so a chart
            # whose line lies inside keeps its scale and its bytes.
            extent = (min(extent[0], line), max(extent[1], line))
            x_scale = linear_scale(extent, x_range, target_ticks=ticks)
    return _ColumnPlan(column, index, x, width, x_scale)


def _band_y_scale(plan: _ColumnPlan, band: _Band) -> Scale:
    vpad = band.height * 0.10 + 2.0
    assert plan.y_base is not None
    return plan.y_base.with_range((band.y + band.height - vpad, band.y + vpad))


def _samples_by_region(table: RegionTable, series_name: str,
                       ) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for code in table.rows:
        cells = table.series(code, series_name)
        out[code] = [v for v in cells if v is not None]
    return out


def _render_glyph_panel(plan: _ColumnPlan, band: _Band, frame: PanelFrame,
                        table: RegionTable, layout: LinkedLayout,
                        ) -> tuple[GlyphShapes, PanelInfo]:
    column = plan.spec
    info_kwargs: dict[str, object] = {}
    assert plan.x_scale is not None
    info_kwargs["x_domain"] = plan.x_scale.domain
    info_kwargs["x_ticks"] = plan.x_scale.ticks

    if column.kind == DOT:
        ref = column.options.get("reference_line")
        shapes = render_dot(scalar_values(table, column.bindings["value"]),
                            plan.x_scale, frame,
                            reference_line=None if ref is None else float(ref))
    elif column.kind == BAR:
        shapes = render_bar(scalar_values(table, column.bindings["value"]),
                            plan.x_scale, frame)
    elif column.kind == ARROW:
        starts = scalar_values(table, column.bindings["start"])
        ends = scalar_values(table, column.bindings["end"])
        pairs = {code: (starts.get(code), ends.get(code)) for code in table.rows}
        shapes = render_arrow(pairs, plan.x_scale, frame)
    elif column.kind == TIMESERIES:
        y_scale = _band_y_scale(plan, band)
        series_name = resolve_ref(table, column.bindings["series"]).column.name
        series = {row.region: table.series(row.region, series_name)
                  for row in frame.rows}
        shapes = render_timeseries(series, plan.periods, plan.x_scale, y_scale,
                                   frame)
        info_kwargs["x_ticks"] = tuple(float(i) for i in
                                       thin_labels(len(plan.periods)))
        info_kwargs["y_domain"] = y_scale.domain
        info_kwargs["y_ticks"] = y_scale.ticks
    elif column.kind == SCATTER:
        y_scale = _band_y_scale(plan, band)
        xs = scalar_values(table, column.bindings["x"])
        ys = scalar_values(table, column.bindings["y"])
        points = {code: (xs.get(code), ys.get(code)) for code in table.rows}
        shapes = render_scatter(points, plan.x_scale, y_scale, frame,
                                context=layout.ranked)
        info_kwargs["y_domain"] = y_scale.domain
        info_kwargs["y_ticks"] = y_scale.ticks
    elif column.kind == BOXPLOT:
        series_name = resolve_ref(table, column.bindings["samples"]).column.name
        shapes = render_boxplot(_samples_by_region(table, series_name),
                                plan.x_scale, frame)
    else:  # pragma: no cover - guarded by validate_spec
        raise SpecError(f"columns[{plan.index}]", f"bad kind {column.kind!r}")

    info = PanelInfo(plan.index, column.kind, band.group_index, frame.x,
                     frame.y, frame.width, frame.height, band.is_median,
                     rows=tuple((r.region, r.y) for r in frame.rows),
                     **info_kwargs)  # type: ignore[arg-type]
    return shapes, info


def _axis_shapes(plan: _ColumnPlan, y: float, above: bool,
                 ) -> tuple[list[Shape], list[Shape]]:
    """Axis line, tick marks, and labels for one glyph column."""
    assert plan.x_scale is not None
    scale = plan.x_scale
    line_style = Style(stroke=colors.AXIS_COLOR, stroke_width=0.8)
    tick_style = Style(stroke=colors.AXIS_COLOR, stroke_width=0.6)
    label_style = Style(fill=colors.TEXT_COLOR, font_size=8.5, anchor="middle")
    tick_len = 3.5
    direction = -1.0 if above else 1.0

    if plan.spec.kind == TIMESERIES:
        positions = [float(i) for i in thin_labels(len(plan.periods))]
        labels = [plan.periods[int(i)] for i in positions]
    else:
        positions = list(scale.ticks)
        labels = [format_tick(t) for t in scale.ticks]

    lines: list[Shape] = [Line(scale.range[0], y, scale.range[1], y, line_style)]
    texts: list[Shape] = []
    label_y = y + direction * (tick_len + 3.0) + (0.0 if above else 6.5)
    for pos, label in zip(positions, labels):
        x = scale.map(pos)
        lines.append(Line(x, y, x, y + direction * tick_len, tick_style))
        texts.append(Text(x, label_y, label, label_style))
    return lines, texts


def compose(spec: ChartSpec, table: RegionTable, atlas: Atlas) -> Scene:
    """Build the complete chart scene for a validated spec and table."""
    validate_spec(spec, table)
    layout = build_layout(table, spec.sort, spec.group_size)
    palette = spec.palette
    w, h = spec.width, spec.height

    title_h = h * TITLE_F if spec.title else 0.0
    header_h = h * HEADER_F
    axis_top_h = h * AXIS_TOP_F
    axis_bot_h = h * AXIS_BOT_F
    gutter = h * GUTTER_F
    content_top = h * MARGIN_TOP_F + title_h + header_h + axis_top_h
    content_bottom = h - h * MARGIN_BOT_F - axis_bot_h

    bands, row_h = _build_bands(layout, content_top, content_bottom, gutter)
    columns = _column_x_layout(spec)
    plans = [_plan_column(column, i, x, width, table)
             for i, (column, x, width) in enumerate(columns)]

    layers = _Layers()
    panels: list[PanelInfo] = []
    map_style = MiniMapStyle(mode=spec.map_mode, palette=palette)
    content_left = columns[0][1]
    content_right = columns[-1][1] + columns[-1][2]

    if spec.title:
        layers.text.append(Text(w / 2.0, h * MARGIN_TOP_F + title_h * 0.62,
                                spec.title,
                                Style(fill=colors.TEXT_COLOR,
                                      font_size=title_h * 0.42,
                                      anchor="middle")))

    header_top = h * MARGIN_TOP_F + title_h
    header_font = 10.5
    for plan in plans:
        cx = plan.x + plan.width / 2.0
        lines = plan.spec.header
        for li, line in enumerate(lines[:2]):
            y = header_top + header_h * (0.42 if li == 0 else 0.80)
            if len(lines) == 1:
                y = header_top + header_h * 0.80
            layers.text.append(Text(cx, y, line,
                                    Style(fill=colors.TEXT_COLOR,
                                          font_size=header_font,
                                          anchor="middle")))

    separator = Style(stroke=colors.SEPARATOR_COLOR, stroke_width=0.9)
    for band in bands:
        if band.is_median:
            layers.guides.append(Line(content_left, band.y - gutter * 0.5,
                                      content_right, band.y - gutter * 0.5,
                                      separator))
            layers.guides.append(Line(content_left,
                                      band.y + band.height + gutter * 0.5,
                                      content_right,
                                      band.y + band.height + gutter * 0.5,
                                      separator))
        if band.group_index == NO_DATA_PANEL:
            y = band.y - gutter * NO_DATA_GAP_GUTTERS * 0.5
            layers.guides.append(Line(content_left, y, content_right, y,
                                      separator))

    for plan in plans:
        for band in bands:
            frame = _with_colors(band, layout, palette, plan.x, plan.width,
                                 row_h)
            if plan.spec.kind == MAP:
                shapes = render_minimap(atlas, layout, band.group_index,
                                        map_style, frame)
                layers.map_fills.extend(shapes.fills)
                layers.map_strokes.extend(shapes.strokes)
                panels.append(PanelInfo(plan.index, MAP, band.group_index,
                                        frame.x, frame.y, frame.width,
                                        frame.height, band.is_median,
                                        rows=tuple((r.region, r.y)
                                                   for r in frame.rows)))
            elif plan.spec.kind == LEGEND:
                name_style = plan.spec.options.get("name_style", "full")
                shapes = render_legend_column(name_style, frame)
                layers.add_glyph(shapes)
                panels.append(PanelInfo(plan.index, LEGEND, band.group_index,
                                        frame.x, frame.y, frame.width,
                                        frame.height, band.is_median,
                                        rows=tuple((r.region, r.y)
                                                   for r in frame.rows)))
            else:
                shapes, info = _render_glyph_panel(plan, band, frame, table,
                                                   layout)
                layers.add_glyph(shapes)
                panels.append(info)

        if plan.spec.kind in GLYPH_KINDS:
            top_y = content_top - 4.0
            bot_y = content_bottom + 4.0
            for y, above in ((top_y, True), (bot_y, False)):
                lines, texts = _axis_shapes(plan, y, above)
                layers.axes.extend(lines)
                layers.text.extend(texts)

    scene = Scene(w, h, layers.flatten(), tuple(panels))
    return clamp_scene(scene)

