"""Comparison baselines: an alphabetical bar chart and a choropleth.

These exist so documentation can set the conventional displays side by side
with a linked micromap. The bar chart deliberately labels every state (the
spreadsheet default drops half the labels); the choropleth gets an explicit
interval legend because color alone does not communicate values.
"""

from bisect import bisect_right
from typing import NamedTuple

from . import colors
from .atlas import Atlas, _draw_map, _fit_transform
from .errors import BadBreaks
from .glyphs import PanelFrame
from .scale import format_tick, linear_scale
from .scene import Line, Rect, Scene, Shape, Style, Text, clamp_scene
from .table import RegionTable, column_extent, scalar_values
from .values import value_type


class _BreaksFields(NamedTuple):
    boundaries: tuple[float, ...]
    colors: tuple[str, ...]


@value_type
class ClassBreaks(_BreaksFields):
    """K classes over the data extent: k-1 boundaries, k colors.

    Intervals are half-open [lo, hi): a value exactly on a boundary belongs
    to the upper class.
    """

    __slots__ = ()

    def __new__(cls, boundaries: tuple[float, ...],
                colors: tuple[str, ...]) -> "ClassBreaks":
        if len(colors) != len(boundaries) + 1:
            raise BadBreaks("need exactly one more color than boundaries")
        if any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
            raise BadBreaks(f"boundaries not increasing: {boundaries}")
        return super().__new__(cls, boundaries, colors)

    @classmethod
    def _make(cls, fields) -> "ClassBreaks":  # _replace checks them too
        return cls(*fields)

    def class_index(self, value: float) -> int:
        return bisect_right(self.boundaries, value)


def equal_interval_breaks(extent: tuple[float, float], k: int) -> ClassBreaks:
    lo, hi = extent
    if isinstance(k, bool) or not isinstance(k, int):
        raise BadBreaks(f"k must be an integer, got {type(k).__name__}")
    if k < 1:
        raise BadBreaks("need at least one class")
    if k > len(colors.SEQUENTIAL_RAMP):
        raise BadBreaks(f"k must be in 1..{len(colors.SEQUENTIAL_RAMP)}")
    if lo == hi:
        hi = lo + 1.0
    step = (hi - lo) / k
    boundaries = tuple(lo + i * step for i in range(1, k))
    return ClassBreaks(boundaries, colors.sequential_colors(k))


def render_barchart_alpha(table: RegionTable, column: str,
                          width: float = 1000.0, height: float = 560.0,
                          title: str = "") -> Scene:
    """Vertical bars in alphabetical USPS-code order, every state labeled."""
    values = scalar_values(table, column)
    extent = column_extent(table, column)
    extent = (min(0.0, extent[0]), max(0.0, extent[1]))

    margin_left, margin_right = 52.0, 14.0
    top = 46.0 if title else 18.0
    bottom = height - 34.0
    y_scale = linear_scale(extent, (0.0, 1.0))
    codes = table.codes()
    plot_w = width - margin_left - margin_right
    slot_w = plot_w / max(1, len(codes))
    bar_w = slot_w * 0.66

    def y_of(v: float) -> float:
        return bottom - y_scale.map(v) * (bottom - top)

    shapes: list[Shape] = []
    axis_style = Style(stroke=colors.AXIS_COLOR, stroke_width=0.8)
    label_style = Style(fill=colors.TEXT_COLOR, font_size=8.0, anchor="middle")
    for tick in y_scale.ticks:
        y = y_of(tick)
        shapes.append(Line(margin_left, y, width - margin_right, y,
                           Style(stroke=colors.GUIDE_COLOR, stroke_width=0.6)))
        shapes.append(Text(margin_left - 6.0, y + 2.8, format_tick(tick),
                           Style(fill=colors.TEXT_COLOR, font_size=8.5,
                                 anchor="end")))
    zero_y = y_of(0.0)
    shapes.append(Line(margin_left, zero_y, width - margin_right, zero_y,
                       axis_style))
    bar_style = Style(fill=colors.SLOT_COLORS[1])
    for i, code in enumerate(codes):
        cx = margin_left + (i + 0.5) * slot_w
        v = values[code]
        if v is not None:
            y = y_of(v)
            shapes.append(Rect(cx - bar_w / 2.0, min(y, zero_y), bar_w,
                               abs(zero_y - y), bar_style, tag=f"region:{code}"))
        shapes.append(Text(cx, bottom + 12.0, code, label_style,
                           tag=f"label:{code}"))
    if title:
        shapes.append(Text(width / 2.0, 24.0, title,
                           Style(fill=colors.TEXT_COLOR, font_size=14.0,
                                 anchor="middle")))
    return clamp_scene(Scene(width, height, tuple(shapes)))


def _legend_label(breaks: ClassBreaks, index: int,
                  extent: tuple[float, float]) -> str:
    lo = extent[0] if index == 0 else breaks.boundaries[index - 1]
    hi = extent[1] if index == len(breaks.boundaries) else breaks.boundaries[index]
    closer = "]" if index == len(breaks.boundaries) else ")"
    return f"[{format_tick(lo)}, {format_tick(hi)}{closer}"


def render_choropleth(atlas: Atlas, table: RegionTable, column: str,
                      breaks: ClassBreaks | None = None, k: int = 5,
                      width: float = 760.0, height: float = 560.0,
                      title: str = "") -> Scene:
    """One filled map with an explicit interval legend.

    With no explicit breaks, k equal-interval classes cover the extent.
    """
    values = scalar_values(table, column)
    extent = column_extent(table, column)
    if breaks is None:
        breaks = equal_interval_breaks(extent, k)

    top = 40.0 if title else 12.0
    legend_w = 150.0
    frame = PanelFrame(12.0, top, width - legend_w - 24.0, height - top - 12.0,
                       (), 0.0)
    missing = {code for code in atlas.regions if values.get(code) is None}
    fills = {code: colors.NO_DATA_COLOR if code in missing
             else breaks.colors[breaks.class_index(values[code])]
             for code in atlas.regions}
    stroke = Style(fill="none", stroke="#FFFFFF", stroke_width=0.5)
    regions = _draw_map(atlas, fills, stroke, _fit_transform(atlas, frame, 0.0))
    shapes: list[Shape] = regions.fills + regions.strokes

    lx = width - legend_w
    ly = top + 8.0
    swatch = 12.0
    text_style = Style(fill=colors.TEXT_COLOR, font_size=9.5, anchor="start")
    for i, color in enumerate(breaks.colors):
        y = ly + i * (swatch + 6.0)
        shapes.append(Rect(lx, y, swatch, swatch,
                           Style(fill=color, stroke="#808080", stroke_width=0.4)))
        shapes.append(Text(lx + swatch + 6.0, y + swatch - 2.5,
                           _legend_label(breaks, i, extent), text_style))
    if missing:
        y = ly + len(breaks.colors) * (swatch + 6.0)
        shapes.append(Rect(lx, y, swatch, swatch, Style(fill=colors.NO_DATA_COLOR)))
        shapes.append(Text(lx + swatch + 6.0, y + swatch - 2.5, "no data",
                           text_style))
    if title:
        shapes.append(Text(width / 2.0, 22.0, title,
                           Style(fill=colors.TEXT_COLOR, font_size=14.0,
                                 anchor="middle")))
    return clamp_scene(Scene(width, height, tuple(shapes)))
