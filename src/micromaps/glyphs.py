"""Statistical glyph renderers: dot, bar, arrow, time series, scatter, boxplot.

Each renderer draws one perceptual group's panel. The composer hands it a
PanelFrame (the panel rectangle plus one row slot per region, already
carrying the region's linked color) and the column's shared scale(s); the
renderer returns a ``scene.Layers`` with its guides, marks and labels, so
the composer can keep a fixed global paint order.

Renderers never jitter and never invent data: a missing value produces no
mark and a small "n/a" note where the row-glyph layout allows one.
"""

import math
from bisect import bisect_left, bisect_right
from typing import Mapping, NamedTuple, Sequence

from . import colors
from .errors import EmptySamples, SeriesMismatch
from .scale import Scale
from .scene import (Circle, Layers, Line, PanelFrame, Polygon, Polyline, Rect,
                    RowBand, Shape, Style, Text, shared_style)
from .values import value_type

ARROW_HEAD_LENGTH = 7.0
ARROW_HEAD_HALF_WIDTH = 2.8
DIAMOND_HALF = 3.2
OUTLIER_RADIUS = 1.5
CONTEXT_RADIUS = 2.0
HIGHLIGHT_RADIUS = 3.4
TICK_MARK = 3.0
NA_FONT = 7.5
CONTEXT_STYLE = Style(fill=colors.CONTEXT_POINT)
NA_STYLE = Style(fill=colors.NO_DATA_COLOR, font_size=NA_FONT, anchor="start")
GUIDE_STYLE = Style(stroke=colors.GUIDE_COLOR, stroke_width=0.6)
FRAME_STYLE = Style(fill="none", stroke=colors.GUIDE_COLOR, stroke_width=0.7)
ZERO_LINE_STYLE = Style(stroke=colors.AXIS_COLOR, stroke_width=0.7)
AXIS_STYLE = Style(stroke=colors.AXIS_COLOR, stroke_width=0.8)  # and whiskers
TICK_STYLE = Style(stroke=colors.AXIS_COLOR, stroke_width=0.6)
MEDIAN_STYLE = Style(stroke="#000000", stroke_width=1.0)
OUTLIER_STYLE = Style(fill=colors.AXIS_COLOR)


@value_type
class BoxStats(NamedTuple):
    q1: float
    median: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    outliers: tuple[float, ...]


def _quantile(ordered: Sequence[float], p: float) -> float:
    # Linear interpolation at position p*(n-1) over the sorted sample.
    pos = p * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    a, b = ordered[lo], ordered[hi]
    if a == b:
        return a
    # Rounding (of subnormals especially) can carry the blend outside [a, b].
    frac = pos - lo
    return min(max(a * (1.0 - frac) + b * frac, a), b)


def compute_box_stats(samples: Sequence[float | None]) -> BoxStats:
    """Quartiles, 1.5*IQR whiskers, and outliers for one sample list.

    Whiskers sit on the most extreme samples inside the fences, clamped to
    the box so whisker_lo <= q1 and q3 <= whisker_hi even for lopsided data.
    """
    data = sorted([s for s in samples if s is not None])
    if not data:
        raise EmptySamples("no samples")
    q1 = _quantile(data, 0.25)
    med = _quantile(data, 0.50)
    q3 = _quantile(data, 0.75)
    iqr = q3 - q1
    # data[lo:hi] are the samples inside the fences.
    lo = bisect_left(data, q1 - 1.5 * iqr)
    hi = bisect_right(data, q3 + 1.5 * iqr)
    whisker_lo = min(data[lo], q1)
    whisker_hi = max(data[hi - 1], q3)
    return BoxStats(q1, med, q3, whisker_lo, whisker_hi,
                    tuple(data[:lo] + data[hi:]))


def box_column(samples: Mapping[str, Sequence[float | None]],
               ) -> tuple[dict[str, BoxStats | None], tuple[float, float] | None]:
    """Each region's BoxStats, None with no sample, and column_extent's
    extent of all the samples, its first minimal and maximal cells."""
    stats = {code: compute_box_stats(cells)
             if any(cell is not None for cell in cells) else None
             for code, cells in samples.items()}
    sampled = [(samples[code], box) for code, box in stats.items() if box]
    if not sampled:
        return stats, None
    # A region's least and greatest samples: its first and last outliers
    # when they lie past the whiskers, else the whiskers.
    lows = [min((box.whisker_lo, *box.outliers[:1])) for _, box in sampled]
    highs = [max((box.whisker_hi, *box.outliers[-1:])) for _, box in sampled]
    return stats, (_first_cell(sampled, lows, min(lows)),
                   _first_cell(sampled, highs, max(highs)))


def _first_cell(sampled: list, ends: list[float], end: float) -> float:
    """The first cell equal to ``end`` in the first region whose end it is,
    as column_extent keeps it: it tells -0.0 from 0.0."""
    cells = sampled[ends.index(end)][0]
    return cells[cells.index(end)]


def _na_label(frame: PanelFrame, row: RowBand) -> Text:
    return Text(frame.x + 2.0, row.y + NA_FONT * 0.35, "n/a", NA_STYLE,
                tag=f"region:{row.region}")


def _row_guides(frame: PanelFrame) -> list[Shape]:
    return [Line(frame.x, row.y, frame.right, row.y, GUIDE_STYLE)
            for row in frame.rows]


def render_dot(values: Mapping[str, float | None], scale: Scale,
               frame: PanelFrame, reference_line: float | None = None,
               ) -> Layers:
    """One filled circle per region at the scaled value."""
    out = Layers(guides=_row_guides(frame))
    if reference_line is not None:
        x = scale.positions((reference_line,))[0]
        out.guides.append(Line(x, frame.y, x, frame.bottom, ZERO_LINE_STYLE))
    r = min(4.2, frame.row_height * 0.24)
    xs = scale.positions([values.get(row.region) for row in frame.rows])
    for row, x in zip(frame.rows, xs):
        if x is None:
            out.labels.append(_na_label(frame, row))
            continue
        out.marks.append(Circle(x, row.y, r, shared_style(fill=row.color),
                                tag=f"region:{row.region}"))
    return out


def render_bar(values: Mapping[str, float | None], scale: Scale,
               frame: PanelFrame) -> Layers:
    """Horizontal bars anchored at zero; negatives extend left."""
    x0 = scale.positions((0.0,))[0]
    out = Layers()
    out.guides.append(Line(x0, frame.y, x0, frame.bottom, ZERO_LINE_STYLE))
    h = frame.row_height * 0.55
    xs = scale.positions([values.get(row.region) for row in frame.rows])
    for row, xv in zip(frame.rows, xs):
        if xv is None:
            out.labels.append(_na_label(frame, row))
            continue
        out.marks.append(Rect(min(x0, xv), row.y - h / 2.0, abs(xv - x0), h,
                              shared_style(fill=row.color),
                              tag=f"region:{row.region}"))
    return out


def _arrow_head(x: float, y: float, direction: float, length: float,
                half: float, color: str, tag: str) -> Polygon:
    back = x - direction * length
    pts = ((x, y), (back, y - half), (back, y + half))
    return Polygon(pts, shared_style(fill=color), tag=tag)


def _diamond(x: float, y: float, d: float, color: str, tag: str) -> Polygon:
    pts = ((x, y - d), (x + d, y), (x, y + d), (x - d, y))
    return Polygon(pts, shared_style(fill=color), tag=tag)


def render_arrow(pairs: Mapping[str, tuple[float | None, float | None]],
                 scale: Scale, frame: PanelFrame) -> Layers:
    """Start-to-end arrows; a zero-length change renders as a diamond.

    Heads and diamonds are at most one row tall, a head is no longer than
    the room behind its tip, and a diamond no wider than the room around
    its center, so they stay in the panel.
    """
    out = Layers(guides=_row_guides(frame))
    half_row = frame.row_height / 2.0
    head_half = min(ARROW_HEAD_HALF_WIDTH, half_row)
    diamond_half = min(DIAMOND_HALF, half_row)
    drawn: list[tuple[RowBand, float, float]] = []
    for row in frame.rows:
        start, end = pairs.get(row.region) or (None, None)
        if start is None or end is None:
            out.labels.append(_na_label(frame, row))
        else:
            drawn.append((row, start, end))
    # Starts and ends alternate, so each row's start is checked first.
    placed = iter(scale.positions([v for _, start, end in drawn
                                   for v in (start, end)]))
    for (row, start, end), xs, xe in zip(drawn, placed, placed):
        tag = f"region:{row.region}"
        if start == end:
            half = min(diamond_half, xs - frame.x, frame.x + frame.width - xs)
            out.marks.append(_diamond(xs, row.y, half, row.color, tag))
            continue
        direction = 1.0 if xe > xs else -1.0
        room = xe - frame.x if xe > xs else frame.x + frame.width - xe
        length = min(ARROW_HEAD_LENGTH, room)
        out.marks.append(Line(xs, row.y, xe - direction * length * 0.6, row.y,
                              shared_style(stroke=row.color, stroke_width=1.6),
                              tag=tag))
        out.marks.append(_arrow_head(xe, row.y, direction, length, head_half,
                                     row.color, tag))
    return out


def _panel_frame_guides(frame: PanelFrame, x_scale: Scale,
                        y_scale: Scale) -> list[Shape]:
    """The panel's border, with a tick mark at each tick of both scales, as
    long as TICK_MARK or, in a smaller panel, as the panel is across."""
    shapes: list[Shape] = [Rect(frame.x, frame.y, frame.width, frame.height,
                                FRAME_STYLE)]
    up = max(frame.bottom - TICK_MARK, frame.y)
    for x in x_scale.positions(x_scale.ticks):
        shapes.append(Line(x, frame.bottom, x, up, TICK_STYLE))
    right = min(frame.x + TICK_MARK, frame.right)
    for y in y_scale.positions(y_scale.ticks):
        shapes.append(Line(frame.x, y, right, y, TICK_STYLE))
    return shapes


def render_timeseries(series: Mapping[str, Sequence[float | None]],
                      periods: Sequence[str], x_scale: Scale, y_scale: Scale,
                      frame: PanelFrame) -> Layers:
    """One polyline per region; missing periods break the line.

    The x scale's domain and ticks are period indices.
    """
    n = len(periods)
    out = Layers(guides=_panel_frame_guides(frame, x_scale, y_scale))
    xs = x_scale.positions(range(n))
    for row in frame.rows:
        cells = series.get(row.region)
        if cells is None:
            continue
        if len(cells) != n:
            raise SeriesMismatch(
                f"{row.region}: {len(cells)} values for {n} periods")
        tag = f"region:{row.region}"
        style = shared_style(stroke=row.color, stroke_width=1.1)
        ys = y_scale.positions(cells)
        start = 0
        for stop in [i for i, y in enumerate(ys) if y is None] + [n]:
            _flush_run(out, tuple(zip(xs[start:stop], ys[start:stop])), style,
                       row.color, tag)
            start = stop + 1
    return out


def _flush_run(out: Layers, run: tuple[tuple[float, float], ...],
               style: Style, color: str, tag: str) -> None:
    if len(run) >= 2:
        out.marks.append(Polyline(run, style, tag=tag))
    elif len(run) == 1:
        out.marks.append(Circle(run[0][0], run[0][1], 1.6,
                                shared_style(fill=color), tag=tag))


def render_scatter(points: Mapping[str, tuple[float | None, float | None]],
                   x_scale: Scale, y_scale: Scale, frame: PanelFrame,
                   context: Sequence[str]) -> Layers:
    """All ranked regions as gray context points, the group enlarged on top."""
    out = Layers(guides=_panel_frame_guides(frame, x_scale, y_scale))
    # A point missing either coordinate is not drawn, so neither is mapped.
    pairs = [points.get(code) or (None, None)
             for code in (*context, *(row.region for row in frame.rows))]
    xs = x_scale.positions([None if y is None else x for x, y in pairs])
    ys = y_scale.positions([None if x is None else y for x, y in pairs])
    for code, x, y in zip(context, xs, ys):
        if x is not None:
            out.marks.append(Circle(x, y, CONTEXT_RADIUS, CONTEXT_STYLE,
                                    tag=f"context:{code}"))
    n = len(context)
    for row, x, y in zip(frame.rows, xs[n:], ys[n:]):
        if x is None:
            out.labels.append(_na_label(frame, row))
            continue
        out.marks.append(Circle(x, y, HIGHLIGHT_RADIUS,
                                shared_style(fill=row.color),
                                tag=f"region:{row.region}"))
    return out


def render_boxplot(boxes: Mapping[str, BoxStats | None], scale: Scale,
                   frame: PanelFrame) -> Layers:
    """Whisker line, slot-colored IQR box, median tick, outlier dots."""
    out = Layers(guides=_row_guides(frame))
    h = frame.row_height * 0.6
    for row in frame.rows:
        stats = boxes.get(row.region)
        if stats is None:
            out.labels.append(_na_label(frame, row))
            continue
        # q1, median and q3 lie between the whiskers: their checks pass.
        x_lo, x_hi, x_q1, x_q3, x_med, *x_outliers = scale.positions(
            (stats.whisker_lo, stats.whisker_hi, stats.q1, stats.q3,
             stats.median, *stats.outliers))
        out.marks.append(Line(x_lo, row.y, x_hi, row.y, AXIS_STYLE))
        out.marks.append(Rect(x_q1, row.y - h / 2.0, x_q3 - x_q1, h,
                              shared_style(fill=row.color, stroke="#333333",
                                           stroke_width=0.5),
                              tag=f"region:{row.region}"))
        out.marks.append(Line(x_med, row.y - h / 2.0, x_med, row.y + h / 2.0,
                              MEDIAN_STYLE))
        for x in x_outliers:
            out.marks.append(Circle(x, row.y, OUTLIER_RADIUS, OUTLIER_STYLE))
    return out
