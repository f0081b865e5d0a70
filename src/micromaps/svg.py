"""Deterministic SVG serialization.

The output is built for diffing: attributes are emitted in alphabetical
order, every coordinate is printed with a fixed number of decimals
(round-half-to-even, never scientific notation), lines end with LF, and
each element sits on its own line. Styling uses presentation attributes
only and fonts are referenced by generic family, so the document is fully
self-contained. Each shape type has its own writer. A writer formats all
of a shape's numbers with one precompiled ``str.format`` (a polyline's or
polygon's points with one per point), then tests that text once for a
non-finite number and turns every "-0.00" in it into "0.00". One call
formats each Style once. A polygon on a map ring (scene.PlacedRing) keeps
its points text on the ring, one per number of decimals. Only text that
passed the non-finite test is kept, and other points are formatted alike,
so kept text never changes a byte. Style sizes pass the same test.
Text and attribute values are escaped here and lose the characters XML
1.0 forbids, so any string makes a well-formed document.
"""

import re
from functools import cache, partial
from itertools import starmap
from typing import NamedTuple

from .errors import BadGeometry, SpecError
from .scene import (
    Circle,
    Line,
    Path,
    PlacedRing,
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

@value_type
class SvgOptions(NamedTuple):
    decimal_places: int = 2
    embed_title: bool = False
    background: str | None = None
    title: str = ""


def _fmt(value: float, dp: int) -> str:
    s = f"{value:.{dp}f}"
    if "n" in s:
        raise BadGeometry("non-finite size")
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


def _style_attrs(style: Style, dp: int) -> tuple[str, str, str]:
    """A Style's attributes, cut where writers interleave geometry: fill,
    stroke + stroke-width, and <text>'s fill..text-anchor run."""
    fill = "" if style.fill is None else f' fill="{_escape_attr(style.fill)}"'
    stroke = ("" if style.stroke is None
              else f' stroke="{_escape_attr(style.stroke)}"')
    if style.stroke_width is not None:
        stroke += f' stroke-width="{_fmt(style.stroke_width, dp)}"'
    text = f'{fill} font-family="{FONT_FAMILY}"'
    if style.font_size is not None:
        text += f' font-size="{_fmt(style.font_size, dp)}"'
    text += stroke
    if style.anchor is not None:
        text += f' text-anchor="{_escape_attr(style.anchor)}"'
    return fill, stroke, text


class _Writer:
    """Element strings for one emit_svg call, one method per shape type."""

    def __init__(self, dp: int) -> None:
        self.dp = dp
        number = f"{{:.{dp}f}}"
        self.one = number.format
        self.pair = f"{number},{number}".format
        self.two, self.three, self.four = (" ".join([number] * n).format
                                           for n in (2, 3, 4))
        self.zero = _fmt(0.0, dp)
        self.minus_zero = "-" + self.zero
        self.style = cache(partial(_style_attrs, dp=dp))
        self.by_type = {Rect: self.rect, Circle: self.circle, Line: self.line,
                        Polyline: self.polyline, Polygon: self.polygon,
                        Path: self.path, Text: self.text}

    def numbers(self, text: str) -> str:
        """Formatted numbers, tested for a non-finite one, minus zero fixed."""
        # With fixed decimals "-0.00" is a whole number wherever it
        # occurs, and only "nan" and "inf" contain an "n".
        if "n" in text:
            raise BadGeometry("non-finite coordinate")
        return text.replace(self.minus_zero, self.zero)

    def points(self, points: tuple[tuple[float, float], ...]) -> str:
        return self.numbers(" ".join(starmap(self.pair, points)))

    def rect(self, s: Rect) -> str:
        fill, stroke, _ = self.style(s.style)
        h, w, x, y = self.numbers(self.four(s.height, s.width, s.x,
                                            s.y)).split()
        return f'<rect{fill} height="{h}"{stroke} width="{w}" x="{x}" y="{y}"/>'

    def circle(self, s: Circle) -> str:
        fill, stroke, _ = self.style(s.style)
        cx, cy, r = self.numbers(self.three(s.cx, s.cy, s.r)).split()
        return f'<circle cx="{cx}" cy="{cy}"{fill} r="{r}"{stroke}/>'

    def line(self, s: Line) -> str:
        fill, stroke, _ = self.style(s.style)
        x1, x2, y1, y2 = self.numbers(self.four(s.x1, s.x2, s.y1,
                                                s.y2)).split()
        return (f'<line{fill}{stroke} x1="{x1}" x2="{x2}" y1="{y1}"'
                f' y2="{y2}"/>')

    def polyline(self, s: Polyline) -> str:
        fill, stroke, _ = self.style(s.style)
        return (f'<polyline{fill or _NO_FILL}'
                f' points="{self.points(s.points)}"{stroke}/>')

    def polygon(self, s: Polygon) -> str:
        fill, stroke, _ = self.style(s.style)
        texts = s.points.texts if type(s.points) is PlacedRing else {}
        text = texts.get(self.dp)
        if text is None:
            text = texts[self.dp] = self.points(s.points)  # raises, never kept
        return f'<polygon{fill} points="{text}"{stroke}/>'

    def path(self, s: Path) -> str:
        fill, stroke, _ = self.style(s.style)
        # SVG's command letters hold no "n", no digit and no "-".
        d = self.numbers(" ".join(" ".join((cmd[0], *map(self.one, cmd[1:])))
                                  for cmd in s.commands))
        return f'<path d="{d}"{fill}{stroke}/>'

    def text(self, s: Text) -> str:
        x, y = self.numbers(self.two(s.x, s.y)).split()
        return (f'<text{self.style(s.style)[2]} x="{x}" y="{y}">'
                f'{_escape(s.content)}</text>')

    def element(self, shape: Shape) -> str:
        write = self.by_type.get(type(shape))
        if write is None:
            raise TypeError(f"not a shape: {shape!r}")
        try:
            return write(shape)
        except BadGeometry as exc:
            raise BadGeometry(f"{exc} in {type(shape).__name__}") from None


def emit_svg(scene: Scene, options: SvgOptions = SvgOptions()) -> str:
    """Serialize a scene to a self-contained SVG document."""
    places = options.decimal_places
    if isinstance(places, bool) or not isinstance(places, int):
        raise SpecError("output.decimal_places", "expected an integer, "
                                                 f"got {type(places).__name__}")
    if not 0 <= places <= 6:
        raise SpecError("output.decimal_places", "must be in 0..6")
    writer = _Writer(places)
    height, width = writer.numbers(writer.two(scene.height,
                                              scene.width)).split()
    lines = [f'<svg height="{height}" width="{width}" xmlns="{SVG_NS}">']
    if options.embed_title and options.title:
        lines.append(f"<title>{_escape(options.title)}</title>")
    if options.background is not None:
        lines.append(writer.rect(Rect(0.0, 0.0, scene.width, scene.height,
                                      Style(fill=options.background))))
    lines.extend(map(writer.element, scene.shapes))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
