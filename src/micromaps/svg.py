"""Deterministic SVG serialization.

The output is built for diffing: attributes are emitted in alphabetical
order, every coordinate is printed with a fixed number of decimals
(round-half-to-even, never scientific notation), lines end with LF, and
each element sits on its own line. Styling uses presentation attributes
only and fonts are referenced by generic family, so the document is fully
self-contained. Each shape type has its own writer, which rejects
non-finite coordinates; one call formats each Style once, and a polygon's
points text is kept across calls (_RINGS). Text and attribute values are
escaped here and lose the characters XML 1.0 forbids, so any string makes a
well-formed document.
"""

import math
import re
from functools import cache, partial
from itertools import starmap
from typing import NamedTuple

from .errors import BadGeometry
from .scene import (
    Circle,
    Line,
    Path,
    Polygon,
    Polyline,
    Rect,
    Scene,
    Shape,
    Style,
    Text,
)
from .values import value_type

SVG_NS = "http://www.w3.org/2000/svg"
FONT_FAMILY = "sans-serif"
# Control characters other than tab, LF and CR, lone surrogates, U+FFFE and
# U+FFFF: XML 1.0 has no way to write them, not even as a character reference.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_NO_FILL = ' fill="none"'  # a polyline's default

# Polygon points text for every emit_svg: (id(points), dp) -> (points, text).
# A map ring placed once per process (atlas._place) is formatted once. An
# entry holds its points, so that id names no other object while it lives.
# Polylines are left out: no later chart draws a data series again.
_RINGS: dict[tuple[int, int], tuple[tuple, str]] = {}
_RINGS_CAPACITY = 4096


@value_type
class SvgOptions(NamedTuple):
    decimal_places: int = 2
    embed_title: bool = False
    background: str | None = None
    title: str = ""


def _fmt(value: float, dp: int) -> str:
    s = f"{value:.{dp}f}"
    if s.startswith("-") and float(s) == 0.0:
        s = s[1:]
    return s


def _escape(text: str) -> str:
    """Character data: drop what XML forbids, then escape &, > and <."""
    text = _NOT_XML.sub("", text)
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _escape_attr(text: str) -> str:
    """A double-quoted attribute value."""
    return _escape(text).replace('"', "&quot;")


def _style_attrs(style: Style, dp: int) -> tuple[str, str, str, str]:
    """A Style's attributes, cut where writers interleave geometry: fill,
    opacity, stroke + stroke-width, and <text>'s fill..text-anchor run."""
    fill = "" if style.fill is None else f' fill="{_escape_attr(style.fill)}"'
    opacity = ("" if style.opacity is None
               else f' opacity="{_fmt(style.opacity, dp)}"')
    stroke = ("" if style.stroke is None
              else f' stroke="{_escape_attr(style.stroke)}"')
    if style.stroke_width is not None:
        stroke += f' stroke-width="{_fmt(style.stroke_width, dp)}"'
    text = f'{fill} font-family="{FONT_FAMILY}"'
    if style.font_size is not None:
        text += f' font-size="{_fmt(style.font_size, dp)}"'
    text += opacity + stroke
    if style.anchor is not None:
        text += f' text-anchor="{_escape_attr(style.anchor)}"'
    return fill, opacity, stroke, text


class _Writer:
    """Element strings for one emit_svg call, one method per shape type."""

    def __init__(self, dp: int) -> None:
        self.dp = dp
        self.pair = f"{{:.{dp}f}},{{:.{dp}f}}".format
        self.negative_zero = "-" + _fmt(0.0, dp)
        self.style = cache(partial(_style_attrs, dp=dp))
        self.by_type = {Rect: self.rect, Circle: self.circle, Line: self.line,
                        Polyline: self.polyline, Polygon: self.polygon,
                        Path: self.path, Text: self.text}

    def num(self, value: float) -> str:
        if not math.isfinite(value):
            raise BadGeometry("non-finite coordinate")
        return _fmt(value, self.dp)

    def points(self, points: tuple[tuple[float, float], ...]) -> str:
        text = " ".join(starmap(self.pair, points))
        # With fixed decimals "-0.00" is a whole number wherever it
        # occurs, and only "nan" and "inf" contain an "n".
        if "n" in text:
            raise BadGeometry("non-finite coordinate")
        return text.replace(self.negative_zero, self.negative_zero[1:])

    def rect(self, s: Rect) -> str:
        fill, opacity, stroke, _ = self.style(s.style)
        return (f'<rect{fill} height="{self.num(s.height)}"{opacity}{stroke}'
                f' width="{self.num(s.width)}" x="{self.num(s.x)}"'
                f' y="{self.num(s.y)}"/>')

    def circle(self, s: Circle) -> str:
        fill, opacity, stroke, _ = self.style(s.style)
        return (f'<circle cx="{self.num(s.cx)}" cy="{self.num(s.cy)}"{fill}'
                f'{opacity} r="{self.num(s.r)}"{stroke}/>')

    def line(self, s: Line) -> str:
        fill, opacity, stroke, _ = self.style(s.style)
        return (f'<line{fill}{opacity}{stroke} x1="{self.num(s.x1)}"'
                f' x2="{self.num(s.x2)}" y1="{self.num(s.y1)}"'
                f' y2="{self.num(s.y2)}"/>')

    def polyline(self, s: Polyline) -> str:
        fill, opacity, stroke, _ = self.style(s.style)
        return (f'<polyline{fill or _NO_FILL}{opacity}'
                f' points="{self.points(s.points)}"{stroke}/>')

    def polygon(self, s: Polygon) -> str:
        fill, opacity, stroke, _ = self.style(s.style)
        key = (id(s.points), self.dp)
        ring = _RINGS.get(key)
        if ring is None or ring[0] is not s.points:
            ring = (s.points, self.points(s.points))  # raises, never kept
            if len(_RINGS) >= _RINGS_CAPACITY:
                _RINGS.clear()
            _RINGS[key] = ring
        return f'<polygon{fill}{opacity} points="{ring[1]}"{stroke}/>'

    def path(self, s: Path) -> str:
        fill, opacity, stroke, _ = self.style(s.style)
        d = " ".join(" ".join((cmd[0], *map(self.num, cmd[1:])))
                     for cmd in s.commands)
        return f'<path d="{d}"{fill}{opacity}{stroke}/>'

    def text(self, s: Text) -> str:
        text = self.style(s.style)[3]
        return (f'<text{text} x="{self.num(s.x)}" y="{self.num(s.y)}">'
                f'{_escape(s.content)}</text>')

    def element(self, shape: Shape) -> str:
        write = self.by_type.get(type(shape))
        if write is None:
            raise TypeError(f"not a shape: {shape!r}")
        try:
            return write(shape)
        except BadGeometry:
            raise BadGeometry("non-finite coordinate in "
                              f"{type(shape).__name__}") from None


def emit_svg(scene: Scene, options: SvgOptions = SvgOptions()) -> str:
    """Serialize a scene to a self-contained SVG document."""
    if not 0 <= options.decimal_places <= 6:
        raise ValueError("decimal_places must be in 0..6")
    writer = _Writer(options.decimal_places)
    lines = [f'<svg height="{writer.num(scene.height)}" '
             f'width="{writer.num(scene.width)}" xmlns="{SVG_NS}">']
    if options.embed_title and options.title:
        lines.append(f"<title>{_escape(options.title)}</title>")
    if options.background is not None:
        lines.append(writer.rect(Rect(0.0, 0.0, scene.width, scene.height,
                                      Style(fill=options.background))))
    lines.extend(map(writer.element, scene.shapes))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
