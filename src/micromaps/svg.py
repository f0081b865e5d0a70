"""Deterministic SVG serialization.

The output is built for diffing: attributes are emitted in alphabetical
order, every coordinate is printed with a fixed number of decimals
(round-half-to-even, never scientific notation), lines end with LF, and
each element sits on its own line. Styling uses presentation attributes
only and fonts are referenced by generic family, so the document is fully
self-contained. Each shape type has its own writer. A rect, circle, line
or text is written with one %-format call, from a template made once per
emit_svg call for its shape type and Style, with the style's attributes
in it; a point list (a polyline's, a glyph polygon's, a map ring's first
points text) is its y values formatted into a template that holds its x
values' text, made once per run of x values, so lines and rings that
share their x values write that text once. The written text is then
tested once: a non-finite number ("nan", "inf") raises, and every "-0.00"
becomes "0.00". A rect, circle, line or text whose line
shows either, in a number or in its style's own text, goes through the
exact path, which formats and tests its numbers on their own and leaves
the style's text as it is; a text's content is added after the test.
The %-format converts every number to float, a Decimal too. One call
formats each Style once and keeps its templates for that call only. A
polygon on a map ring (scene.PlacedRing) keeps its points text on the
ring, one per number of decimals, and its whole ``<polygon>`` line, one
per number of decimals and Style, so a warm chart writes a kept ring's
line with one lookup. Per number of decimals, a map ring keeps no more
lines than the fill polygons the map fit record (atlas._FITS) keeps for
it, plus its border; emptying the record at its capacity drops the
rings' lines too. Only text and lines written without error are kept,
and other points are formatted alike, so kept text never changes a
byte. Style sizes pass the same non-finite test. A signaling NaN Decimal,
which neither hashes nor converts to float, raises the BadGeometry a NaN
raises in its place.
emit_svg looks each shape's writer up by its type.
Text and attribute values are escaped here and lose the characters XML
1.0 forbids, so any string makes a well-formed document.
"""

import math
import re
from functools import cache, partial
from typing import NamedTuple

from .errors import BadGeometry, SpecError
from .scene import (
    Circle,
    Line,
    PlacedRing,
    Polygon,
    Polyline,
    Rect,
    Scene,
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
    title: str = ""


def _fmt(value: float, dp: int) -> str:
    s = "%.*f" % (dp, value)
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


# The elements whose numbers a template formats: {fill}, {stroke} and
# {text} take the parts of the shape's Style (_style_attrs), and {n[i]}
# its i-th number, in the order its writer passes them.
_RECT = ('<rect{fill} height="{n[0]}"{stroke} width="{n[1]}" x="{n[2]}"'
         ' y="{n[3]}"/>')
_CIRCLE = '<circle cx="{n[0]}" cy="{n[1]}"{fill} r="{n[2]}"{stroke}/>'
_LINE = ('<line{fill}{stroke} x1="{n[0]}" x2="{n[1]}" y1="{n[2]}"'
         ' y2="{n[3]}"/>')
_TEXT = '<text{text} x="{n[0]}" y="{n[1]}">'


class _Writer:
    """Element strings for one emit_svg call, one method per shape type."""

    def __init__(self, dp: int) -> None:
        self.dp = dp
        self.number = number = f"%.{dp}f"
        self.x_pair = f"{number},%{number}"  # "%.2f,%%.2f": x, then y's slot
        self.spaced = {n: " ".join([number] * n) for n in (2, 3, 4)}
        self.zero = _fmt(0.0, dp)
        self.minus_zero = "-" + self.zero
        self.style = cache(partial(_style_attrs, dp=dp))
        self.template = cache(self._template)
        self.point_lists: dict[tuple[float, ...], str] = {}
        self.by_type = {Rect: self.rect, Circle: self.circle, Line: self.line,
                        Polyline: self.polyline, Polygon: self.polygon,
                        Text: self.text}

    def numbers(self, text: str) -> str:
        """Formatted numbers, tested for a non-finite one, minus zero fixed."""
        # With fixed decimals "-0.00" is a whole number wherever it
        # occurs, and only "nan" and "inf" contain an "n".
        if "n" in text:
            raise BadGeometry("non-finite coordinate")
        return text.replace(self.minus_zero, self.zero)

    def _template(self, element: str, style: Style) -> str:
        """``element`` in ``style``, with a %-conversion for each number."""
        fill, stroke, text = self.style(style)
        return element.format(fill=fill.replace("%", "%%"),
                              stroke=stroke.replace("%", "%%"),
                              text=text.replace("%", "%%"),
                              n=[self.number] * 4)

    def element(self, element: str, style: Style,
                numbers: tuple[float, ...]) -> str:
        """One shape's element line. The template's line is kept unless it
        shows a non-finite number or minus zero, in its numbers or its
        style's text; then the numbers are formatted, tested and fixed on
        their own, as numbers() does, and the style's text is left as it
        is."""
        line = self.template(element, style) % numbers
        if ("nan" not in line and "inf" not in line
                and self.minus_zero not in line):
            return line
        fill, stroke, text = self.style(style)
        return element.format(fill=fill, stroke=stroke, text=text, n=(
            self.numbers(self.spaced[len(numbers)] % numbers).split()))

    def points(self, points: tuple[tuple[float, float], ...]) -> str:
        """An SVG points text: its y values put in its x values' template."""
        if not set(map(len, points)) <= {2}:
            raise TypeError(f"points must be (x, y) pairs, got {points!r}")
        xs, ys = zip(*points) if points else ((), ())
        # Equal keys (0.0 and -0.0, 1 and True) write alike once numbers()
        # has fixed minus zero; a NaN raises there whichever key it is.
        template = self.point_lists.get(xs)
        if template is None:
            template = self.point_lists[xs] = " ".join(
                [self.x_pair] * len(xs)) % xs
        return self.numbers(template % ys)

    def rect(self, s: Rect) -> str:
        return self.element(_RECT, s.style, (s.height, s.width, s.x, s.y))

    def circle(self, s: Circle) -> str:
        return self.element(_CIRCLE, s.style, (s.cx, s.cy, s.r))

    def line(self, s: Line) -> str:
        return self.element(_LINE, s.style, (s.x1, s.x2, s.y1, s.y2))

    def polyline(self, s: Polyline) -> str:
        fill, stroke, _ = self.style(s.style)
        return (f'<polyline{fill or _NO_FILL}'
                f' points="{self.points(s.points)}"{stroke}/>')

    def polygon(self, s: Polygon) -> str:
        texts = s.points.texts if type(s.points) is PlacedRing else {}
        key = (self.dp, s.style)
        line = texts.get(key)
        if line is None:  # stores nothing if the style or a point raises
            fill, stroke, _ = self.style(s.style)
            text = texts.get(self.dp) or self.points(s.points)
            line = f'<polygon{fill} points="{text}"{stroke}/>'
            texts[self.dp] = text
            texts[key] = line
        return line

    def text(self, s: Text) -> str:
        try:
            line = self.element(_TEXT, s.style, (s.x, s.y))
        except BadGeometry:  # a text's coordinates are tested first
            self.numbers(self.spaced[2] % (s.x, s.y))
            raise
        return f"{line}{_escape(s.content)}</text>"


def check_decimal_places(places: object) -> int:
    """Return ``places`` if it is an integer in 0..6, else raise SpecError."""
    if isinstance(places, bool) or not isinstance(places, int):
        raise SpecError("output.decimal_places", "expected an integer, "
                                                 f"got {type(places).__name__}")
    if not 0 <= places <= 6:
        raise SpecError("output.decimal_places", "must be in 0..6")
    return places


def _quiet(value: object) -> object:
    """``value`` with each signaling NaN Decimal in it, in tuples at any
    depth, made a float NaN; ``value`` itself if it holds none. A Decimal
    is known by its ``is_snan``, so ``decimal`` is not imported."""
    if hasattr(value, "is_snan") and value.is_snan():
        return math.nan
    if isinstance(value, tuple):
        items = [_quiet(item) for item in value]
        if any(new is not old for new, old in zip(items, value)):
            return (value._make(items) if hasattr(value, "_make")
                    else tuple(items))
    return value


def emit_svg(scene: Scene, options: SvgOptions = SvgOptions()) -> str:
    """Serialize a scene to a self-contained SVG document."""
    try:
        return _document(scene, options)
    except (TypeError, ValueError) as exc:
        # A signaling NaN raises these where it is hashed or formatted; as
        # a NaN, the scene raises the BadGeometry that names its shape.
        quiet = _quiet(scene)
        if quiet is scene:
            raise
        try:
            return _document(quiet, options)
        except (TypeError, ValueError):
            raise exc from None  # a fault of its own: a point not a pair


def _document(scene: Scene, options: SvgOptions) -> str:
    writer = _Writer(check_decimal_places(options.decimal_places))
    if not isinstance(title := options.title, str):
        raise SpecError("title", f"expected a string, got {type(title).__name__}")
    height, width = writer.numbers(writer.spaced[2] % (scene.height,
                                                      scene.width)).split()
    lines = [f'<svg height="{height}" width="{width}" xmlns="{SVG_NS}">']
    if options.embed_title and options.title:
        lines.append(f"<title>{_escape(options.title)}</title>")
    by_type = writer.by_type
    try:
        for shape in scene.shapes:
            write = by_type.get(type(shape))
            if write is None:
                raise TypeError(f"not a shape: {shape!r}")
            lines.append(write(shape))
    except BadGeometry as exc:
        raise BadGeometry(f"{exc} in {type(shape).__name__}") from None
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
