from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from decimal import Decimal
from fractions import Fraction
from xml.sax.saxutils import escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from micromaps.errors import BadGeometry, SpecError
from micromaps.scene import (
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
from micromaps.svg import SvgOptions, _escape, _escape_attr, emit_svg

ATTR = re.compile(r'([a-zA-Z-]+)="')


def attr_names(line: str) -> list[str]:
    return ATTR.findall(line)


def test_empty_scene_is_minimal_valid_svg():
    text = emit_svg(Scene(100.0, 50.0, ()))
    assert text == ('<svg height="50.00" width="100.00" '
                    'xmlns="http://www.w3.org/2000/svg">\n</svg>\n')
    ET.fromstring(text)


def test_round_half_to_even_formatting():
    scene = Scene(10.0, 10.0, (Circle(1.005, 2.0, 0.125),))
    text = emit_svg(scene)
    assert 'cx="1.00"' in text
    assert 'r="0.12"' in text  # 0.125 is exactly representable; half-to-even


def test_negative_zero_is_normalized():
    scene = Scene(10.0, 10.0, (Circle(-0.0, -0.0001, 1.0),))
    text = emit_svg(scene)
    assert 'cx="0.00"' in text
    assert 'cy="0.00"' in text
    assert "-0.00" not in text


def test_negative_zero_style_sizes_are_normalized():
    style = Style(stroke="#000000", stroke_width=-0.0, font_size=-0.001)
    text = emit_svg(Scene(10.0, 10.0, (Line(0.0, 0.0, 1.0, 1.0, style),
                                       Text(1.0, 1.0, "a", style))))
    assert text.count('stroke-width="0.00"') == 2
    assert 'font-size="0.00"' in text
    assert "-0" not in text


def test_non_shape_is_type_error():
    with pytest.raises(TypeError, match="not a shape: 'x'"):
        emit_svg(Scene(10.0, 5.0, (Text(1.0, 1.0, "ok"), "x")))


def test_attributes_alphabetical_on_every_line():
    scene = Scene(20.0, 20.0, (
        Rect(1, 2, 3, 4, Style(fill="#112233", stroke="#445566", stroke_width=0.5)),
        Circle(5, 6, 7, Style(fill="#FF0000")),
        Line(0, 0, 1, 1, Style(stroke="#000000", stroke_width=2.0)),
        Text(3, 4, "hi", Style(fill="#222222", font_size=9.0, anchor="middle")),
    ))
    for line in emit_svg(scene).splitlines():
        names = attr_names(line)
        assert names == sorted(names), line


def test_one_element_per_line_lf_only():
    scene = Scene(10.0, 10.0, (Circle(1, 1, 1), Rect(0, 0, 2, 2)))
    text = emit_svg(scene)
    assert "\r" not in text
    assert text.endswith("</svg>\n")
    lines = text.split("\n")
    assert len(lines) == 5  # root, 2 shapes, closing, trailing empty
    assert sum(1 for l in lines if l.startswith("<circle")) == 1


def test_element_count_matches_shape_count():
    shapes = tuple(Circle(i, i, 1) for i in range(7))
    text = emit_svg(Scene(10.0, 10.0, shapes),
                    SvgOptions(embed_title=True, title="t"))
    root = ET.fromstring(text)
    assert len(list(root)) == 7 + 1  # title + shapes


def test_text_escaping():
    scene = Scene(10.0, 10.0, (Text(1, 1, "Leisure & <Hospitality>"),))
    text = emit_svg(scene)
    assert "Leisure &amp; &lt;Hospitality&gt;" in text
    ET.fromstring(text)


def test_title_escaping_and_presence():
    text = emit_svg(Scene(10.0, 10.0, ()), SvgOptions(embed_title=True,
                                                      title="a & b"))
    assert "<title>a &amp; b</title>" in text


@pytest.mark.parametrize("title, name", [(5, "int"), (None, "NoneType"),
                                         (b"t", "bytes")])
def test_title_that_is_not_a_string_is_a_spec_error(title, name):
    for embed in (True, False):
        with pytest.raises(SpecError) as info:
            emit_svg(Scene(10.0, 10.0, ()),
                     SvgOptions(embed_title=embed, title=title))
        assert str(info.value) == f"title: expected a string, got {name}"


def test_fonts_by_generic_family_only():
    scene = Scene(10.0, 10.0, (Text(1, 1, "x", Style(font_size=10.0)),))
    text = emit_svg(scene)
    assert 'font-family="sans-serif"' in text


def test_polyline_defaults_to_no_fill():
    scene = Scene(10.0, 10.0, (Polyline(((0, 0), (1, 1)),
                                        Style(stroke="#123456")),))
    assert 'fill="none"' in emit_svg(scene)


def test_polygon_serialization():
    scene = Scene(10.0, 10.0, (
        Polygon(((0, 0), (4, 0), (2, 3)), Style(fill="#000000")),
    ))
    text = emit_svg(scene)
    assert 'points="0.00,0.00 4.00,0.00 2.00,3.00"' in text
    ET.fromstring(text)


def test_decimal_places_bounds():
    scene = Scene(10.0, 10.0, (Circle(1.23456789, 1, 1),))
    assert 'cx="1"' in emit_svg(scene, SvgOptions(decimal_places=0))
    assert 'cx="1.234568"' in emit_svg(scene, SvgOptions(decimal_places=6))
    for bad in (-1, 7):
        with pytest.raises(SpecError) as info:
            emit_svg(scene, SvgOptions(decimal_places=bad))
        assert str(info.value) == "output.decimal_places: must be in 0..6"
    for bad, name in (("2", "str"), (None, "NoneType"), (2.5, "float"),
                      (True, "bool")):
        with pytest.raises(SpecError) as info:
            emit_svg(scene, SvgOptions(decimal_places=bad))
        assert str(info.value) == ("output.decimal_places: "
                                   f"expected an integer, got {name}")


def test_no_scientific_notation():
    scene = Scene(1e6, 1e6, (Circle(123456.78, 0.0000042, 1),))
    text = emit_svg(scene)
    assert "e-" not in text and "e+" not in text
    assert 'cy="0.00"' in text


def test_non_finite_coordinate_rejected():
    scene = Scene(10.0, 10.0, (Circle(float("nan"), 1, 1),))
    with pytest.raises(BadGeometry):
        emit_svg(scene)
    scene = Scene(10.0, 10.0, (Polyline(((0, float("inf")), (1, 1)),),))
    with pytest.raises(BadGeometry):
        emit_svg(scene)


@pytest.mark.parametrize("bad", [
    Rect(float("nan"), 0, 1, 1),
    Rect(0, 0, float("inf"), 1),
    Line(0, 0, 1, float("-inf")),
    Polygon(((0, 0), (1, float("nan")), (2, 0))),
    Text(float("nan"), 1, "x"),
    Circle(1, 1, float("nan")),
], ids=lambda shape: type(shape).__name__)
def test_non_finite_coordinate_rejected_for_every_shape_type(bad):
    good = Circle(1, 1, 1)
    with pytest.raises(BadGeometry, match=type(bad).__name__):
        emit_svg(Scene(10.0, 10.0, (good, bad, good)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["stroke_width", "font_size"])
def test_non_finite_style_size_rejected(field, bad):
    style = Style(stroke="#000000", **{field: bad})
    for shape in (Line(0, 0, 1, 1, style), Text(1, 1, "t", style)):
        for _ in range(2):  # an error is never cached
            with pytest.raises(BadGeometry, match="^non-finite size in "
                               f"{type(shape).__name__}$"):
                emit_svg(Scene(10.0, 10.0, (shape,)))


# The writers that format all of a shape's numbers in one call, each shape
# built with one coordinate set to the given value.
BATCHED = [
    lambda v: Rect(1.0, v, 2.0, 3.0),
    lambda v: Circle(v, 1.0, 2.0),
    lambda v: Line(0.0, 1.0, 2.0, v),
    lambda v: Text(v, 1.0, "t"),
]
BATCHED_IDS = [type(make(0.0)).__name__ for make in BATCHED]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("make", BATCHED, ids=BATCHED_IDS)
def test_batched_writer_rejects_non_finite(make, bad):
    shape = make(bad)
    with pytest.raises(BadGeometry, match=type(shape).__name__):
        emit_svg(Scene(10.0, 10.0, (shape,)))


@pytest.mark.parametrize("dp", [0, 2])
@pytest.mark.parametrize("make", BATCHED, ids=BATCHED_IDS)
def test_batched_writer_writes_minus_zero_as_zero(make, dp):
    options = SvgOptions(decimal_places=dp)
    zero = emit_svg(Scene(10.0, 10.0, (make(0.0),)), options)
    for value in (-0.001, -0.0):
        assert emit_svg(Scene(10.0, 10.0, (make(value),)), options) == zero


def test_decimal_and_fraction_numbers_are_written_as_floats():
    # Decimal("1.015") rounds half to even to 1.02 as a decimal, but the
    # float nearest it is a little below 1.015.
    scene = Scene(10.0, 10.0, (
        Circle(Fraction(1, 3), Decimal("1.015"), 1),
        Polyline(((Fraction(1, 8), Decimal("-0.001")),)),
        Line(0, 0, 1, 1, Style(stroke="#000000",
                               stroke_width=Decimal("0.125")))))
    assert emit_svg(scene).splitlines()[1:4] == [
        '<circle cx="0.33" cy="1.01" r="1.00"/>',
        '<polyline fill="none" points="0.12,0.00"/>',
        '<line stroke="#000000" stroke-width="0.12" x1="0.00" x2="1.00"'
        ' y1="0.00" y2="1.00"/>']


def test_non_finite_canvas_size_rejected():
    for scene in (Scene(float("nan"), 10.0, ()), Scene(10.0, float("inf"), ())):
        with pytest.raises(BadGeometry):
            emit_svg(scene)


@pytest.mark.parametrize("points", [((1.0, 2.0, 3.0),), ((1.0,),),
                                    ((1.0, 2.0), (3.0, 4.0, 5.0)),
                                    ((1.0,), (2.0, 3.0, 4.0)),
                                    ((2.0, 3.0, 4.0), (1.0,))])
def test_points_that_are_not_pairs_are_a_type_error(points):
    # Every point must be a pair, even where the list's count of numbers
    # is twice its points (one 1-number and one 3-number point).
    for shape in (Polyline(points), Polygon(points)):
        with pytest.raises(TypeError, match="points must be"):
            emit_svg(Scene(10.0, 10.0, (shape,)))


def test_shared_points_are_written_for_each_shape():
    points = ((0.0, 0.0), (4.0, 0.0), (2.0, 3.0))
    scene = Scene(10.0, 10.0, (Polygon(points, Style(fill="#000000")),
                               Polygon(points, Style(fill="none",
                                                     stroke="#808080"))))
    lines = emit_svg(scene).splitlines()
    assert lines[1] == ('<polygon fill="#000000" '
                        'points="0.00,0.00 4.00,0.00 2.00,3.00"/>')
    assert lines[2] == ('<polygon fill="none" '
                        'points="0.00,0.00 4.00,0.00 2.00,3.00" '
                        'stroke="#808080"/>')


def test_negative_zero_normalized_in_points():
    ring = ((-0.001, -10.0), (-0.0, 5.004), (-1.5, -0.4))
    scene = Scene(10.0, 10.0, (Polyline(ring),))
    assert 'points="0.00,-10.00 0.00,5.00 -1.50,-0.40"' in emit_svg(scene)
    zero_dp = emit_svg(scene, SvgOptions(decimal_places=0))
    assert 'points="0,-10 0,5 -2,0"' in zero_dp


def test_determinism_byte_for_byte():
    shapes = (Rect(0.1, 0.2, 3.3, 4.4, Style(fill="#ABCDEF")),
              Circle(5, 6, 7, Style(stroke="#000000", stroke_width=0.5)),
              Text(1, 2, "label", Style(font_size=8.0)))
    a = emit_svg(Scene(50.0, 50.0, shapes))
    b = emit_svg(Scene(50.0, 50.0, shapes))
    assert a == b
    assert a.encode() == b.encode()


# Every character XML 1.0 cannot hold, one of each kind, next to the ones it
# can hold but that need escaping or that parsers normalize.
FORBIDDEN = "\x00\x01\x08\x0b\x0c\x0e\x1f\ud800\udfff\ufffe\uffff"
TRICKY = FORBIDDEN + "&<>\"'\t\n\r]]>"
_text = st.text(st.one_of(st.characters(), st.sampled_from(TRICKY)))


def xml_chars(text: str) -> str:
    """The characters of ``text`` that the XML 1.0 Char production allows."""
    return "".join(c for c in text if ord(c) in (0x9, 0xA, 0xD)
                   or 0x20 <= ord(c) <= 0xD7FF or 0xE000 <= ord(c) <= 0xFFFD
                   or ord(c) >= 0x10000)


@settings(max_examples=200)
@given(_text)
@example("a\x01b\x0bc & <d> \"e\"")
@example("\ud83d")  # a lone high surrogate
def test_escape_matches_saxutils_on_xml_characters(text):
    kept = xml_chars(text)
    assert _escape(text) == escape(kept)
    assert _escape_attr(text) == escape(kept, {'"': "&quot;"})


@settings(max_examples=200)
@given(_text)
@example(FORBIDDEN)
def test_any_text_content_parses_back(text):
    svg = emit_svg(Scene(10.0, 10.0, (Text(1, 2, text),)),
                   SvgOptions(embed_title=True, title=text))
    root = ET.fromstring(svg)
    # A parser reads CR and CRLF as LF; nothing else may change.
    expected = xml_chars(text).replace("\r\n", "\n").replace("\r", "\n")
    for element in root:
        assert (element.text or "") == expected


def test_forbidden_characters_dropped_from_title_and_style():
    style = Style(fill="#AB\x01CDEF", stroke="\x0b#000000\udc80",
                  anchor="mid\x1fdle")
    scene = Scene(10.0, 10.0, (Rect(0, 0, 1, 1, style), Text(1, 2, "t", style)))
    svg = emit_svg(scene, SvgOptions(embed_title=True,
                                     title="Rates\x01 \x0b2022\uffff"))
    root = ET.fromstring(svg)
    title, rect, text = root
    assert title.text == "Rates 2022"
    assert rect.get("fill") == "#ABCDEF" and rect.get("stroke") == "#000000"
    assert text.get("text-anchor") == "middle"
    assert svg.encode("utf-8")  # no lone surrogate is left to encode


# The element writers as they were before templates, kept as the reference:
# each shape's numbers formatted with one str.format (a point list with one
# per point), tested once for "n", every minus zero turned into zero.

def reference_fmt(value: float, dp: int) -> str:
    s = f"{value:.{dp}f}"
    if "n" in s:
        raise BadGeometry("non-finite size")
    if s.startswith("-") and float(s) == 0.0:
        s = s[1:]
    return s


def reference_style_attrs(style: Style, dp: int) -> tuple[str, str, str]:
    fill = "" if style.fill is None else f' fill="{_escape_attr(style.fill)}"'
    stroke = ("" if style.stroke is None
              else f' stroke="{_escape_attr(style.stroke)}"')
    if style.stroke_width is not None:
        stroke += f' stroke-width="{reference_fmt(style.stroke_width, dp)}"'
    text = f'{fill} font-family="sans-serif"'
    if style.font_size is not None:
        text += f' font-size="{reference_fmt(style.font_size, dp)}"'
    text += stroke
    if style.anchor is not None:
        text += f' text-anchor="{_escape_attr(style.anchor)}"'
    return fill, stroke, text


def reference_element(s, dp: int) -> str:
    """One shape's element line, or BadGeometry("... in <Type>")."""
    number = f"{{:.{dp}f}}"
    zero = reference_fmt(0.0, dp)

    def numbers(text: str) -> str:
        if "n" in text:
            raise BadGeometry("non-finite coordinate")
        return text.replace("-" + zero, zero)

    def spaced(*values: float) -> list[str]:
        return numbers(" ".join([number] * len(values)).format(*values)).split()

    def points(pts) -> str:
        if any(len(p) != 2 for p in pts):
            raise TypeError("points must be (x, y) pairs")
        # Each number as the float nearest it, a Decimal's or Fraction's too.
        return numbers(" ".join(f"{number},{number}".format(float(x), float(y))
                                for x, y in pts))

    try:
        if type(s) is Text:
            x, y = spaced(s.x, s.y)
            return (f'<text{reference_style_attrs(s.style, dp)[2]} x="{x}"'
                    f' y="{y}">{_escape(s.content)}</text>')
        fill, stroke, _ = reference_style_attrs(s.style, dp)
        if type(s) is Rect:
            h, w, x, y = spaced(s.height, s.width, s.x, s.y)
            return (f'<rect{fill} height="{h}"{stroke} width="{w}" x="{x}"'
                    f' y="{y}"/>')
        if type(s) is Circle:
            cx, cy, r = spaced(s.cx, s.cy, s.r)
            return f'<circle cx="{cx}" cy="{cy}"{fill} r="{r}"{stroke}/>'
        if type(s) is Line:
            x1, x2, y1, y2 = spaced(s.x1, s.x2, s.y1, s.y2)
            return (f'<line{fill}{stroke} x1="{x1}" x2="{x2}" y1="{y1}"'
                    f' y2="{y2}"/>')
        if type(s) is Polyline:
            fill = fill or ' fill="none"'
            return f'<polyline{fill} points="{points(s.points)}"{stroke}/>'
        return f'<polygon{fill} points="{points(s.points)}"{stroke}/>'
    except BadGeometry as exc:
        raise BadGeometry(f"{exc} in {type(s).__name__}") from None


def element_outcome(write, shape, dp: int) -> tuple[str, str]:
    try:
        return "line", write(shape, dp)
    except BadGeometry as exc:
        return "error", str(exc)


def emitted_element(shape, dp: int) -> str:
    lines = emit_svg(Scene(10.0, 10.0, (shape,)),
                     SvgOptions(decimal_places=dp)).splitlines()
    assert len(lines) == 3
    return lines[1]


# Numbers that take the writer's fallback or test its formatting: minus
# zero and numbers that round to it at some number of decimals, a number
# of 301 digits, the smallest subnormal, and the non-finite ones.
_EDGES = [-0.0, -0.4, -0.004, -4e-7, 0.5, 2.5, -2.5, 1.005, 1e300, -1e300,
          5e-324, float("nan"), float("inf"), float("-inf")]
_NUMBERS = st.one_of(st.floats(), st.sampled_from(_EDGES), st.booleans(),
                     st.integers(-10**300, 10**300))
# Style strings that hold a "%" (a template conversion unless escaped),
# "nan", "inf" or minus zero (which the line test looks for).
_STYLE_TEXT = st.one_of(
    st.none(),
    st.sampled_from(["#112233", "none", "middle", "50%", "%s", "%(x)s", "%%",
                     "%.2f", "nan", "inf", "-0.00", "-0", "a-0.000001",
                     "banana", "infinite", "#NaN"]),
    st.text(st.sampled_from("%nafi-0.1 #\"&<"), max_size=6))
_SIZES = st.one_of(st.none(), _NUMBERS)
_STYLES = st.builds(Style, _STYLE_TEXT, _STYLE_TEXT, _SIZES, _SIZES,
                    _STYLE_TEXT)
_POINTS = st.lists(st.tuples(_NUMBERS, _NUMBERS), max_size=5).map(tuple)
_SHAPES = st.one_of(
    st.builds(Rect, _NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS, _STYLES),
    st.builds(Circle, _NUMBERS, _NUMBERS, _NUMBERS, _STYLES),
    st.builds(Line, _NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS, _STYLES),
    st.builds(Text, _NUMBERS, _NUMBERS, st.sampled_from(["", "t", "nan %s"]),
              _STYLES),
    st.builds(Polyline, _POINTS, _STYLES),
    st.builds(Polygon, st.one_of(_POINTS, _POINTS.map(PlacedRing)), _STYLES),
)
_FILL = Style(fill="#112233")
_ODD = Style(fill="50%", stroke="%s", stroke_width=0.5, font_size=-0.0,
             anchor="%(x)s")


@settings(max_examples=400)
@given(_SHAPES, st.integers(0, 6))
# Minus zero, alone and beside a non-finite number, in each writer.
@example(Rect(-0.0, 1.0, 2.0, -0.001, _FILL), 2)
@example(Circle(-0.4, 1.0, 2.0), 0)
@example(Circle(0.0, 0.0, -0.0), 0)
@example(Line(0.0, -4e-7, 1.0, 1.0, _ODD), 6)
@example(Text(-0.0, float("nan"), "t"), 2)
@example(Polyline(((-0.0, 1.0), (2.0, -0.001))), 2)
@example(Polygon(PlacedRing([(-0.0, 1.0), (2.0, 3.0)]), _FILL), 2)
# Non-finite numbers, the style's size and the coordinates' both at fault.
@example(Rect(float("nan"), 1.0, 2.0, 3.0, Style(stroke_width=float("inf"))),
         2)
@example(Text(float("nan"), 1.0, "t", Style(font_size=float("nan"))), 2)
@example(Circle(float("-inf"), 1.0, 2.0, _ODD), 3)
# Styles whose text holds "%", "nan", "inf" or minus zero.
@example(Rect(1.0, 2.0, 3.0, 4.0, _ODD), 2)
@example(Text(1.0, 2.0, "%s nan", _ODD), 2)
@example(Circle(1.0, 2.0, 3.0, Style(fill="banana")), 2)
@example(Line(1.0, 2.0, 3.0, 4.0, Style(stroke="infinite")), 2)
@example(Rect(1.0, 2.0, 3.0, 4.0, Style(fill="-0.00")), 2)
@example(Text(1.0, 2.0, "t", Style(anchor="a-0")), 0)
@example(Polyline(((1.0, 2.0),), Style(stroke="%s")), 2)
# Large and odd numbers.
@example(Circle(1e300, True, 10**300), 6)
@example(Polygon(((5e-324, -1e300), (False, 2))), 0)
@example(Polyline(()), 2)
def test_writer_matches_the_reference(shape, dp):
    """Every shape type in any style, at every number of decimals, gives
    the reference's line, or the same BadGeometry message."""
    assert (element_outcome(emitted_element, shape, dp)
            == element_outcome(reference_element, shape, dp))


def equal_twins(x) -> list:
    """``x`` and numbers of other types that compare equal to it, so a dict
    finds each under the other's key: minus zero, an int, a bool, a float,
    a Decimal and a Fraction."""
    twins = [x]
    if x == x and abs(x) != math.inf:
        twins += [Decimal(x), Fraction(x)]
        if x == int(x):
            twins.append(int(x))
        if float(x) == x:
            twins += [float(x), -float(x)] if x == 0 else [float(x)]
        if x in (0, 1):
            twins.append(bool(x))
    return twins


@st.composite
def shared_x_scenes(draw) -> tuple:
    """Polylines and polygons, on plain tuples and on placed rings, whose
    x values come from a few runs. A tuple's x is itself or an equal twin;
    a placed ring's is itself, as atlas places no Decimal."""
    runs = draw(st.lists(st.lists(_NUMBERS, max_size=5), min_size=1,
                         max_size=3))
    shapes = []
    for _ in range(draw(st.integers(1, 6))):
        make = draw(st.sampled_from([Polyline, Polygon, PlacedRing]))
        xs = draw(st.sampled_from(runs))
        if make is not PlacedRing:
            xs = [draw(st.sampled_from(equal_twins(x))) for x in xs]
        ys = draw(st.lists(_NUMBERS, min_size=len(xs), max_size=len(xs)))
        points, style = tuple(zip(xs, ys)), draw(_STYLES)
        shapes.append(Polygon(PlacedRing(points), style) if make is PlacedRing
                      else make(points, style))
    return tuple(shapes)


def scene_outcome(shapes, dp: int, write) -> tuple:
    """Each shape's line, or the first shape's BadGeometry message, or
    whether a point that is not a pair was refused."""
    try:
        return "lines", write(shapes, dp)
    except BadGeometry as exc:
        return "error", str(exc)
    except TypeError as exc:
        return "not pairs", str(exc).startswith("points must be (x, y) pairs")


def emitted_lines(shapes, dp: int) -> list[str]:
    return emit_svg(Scene(10.0, 10.0, shapes),
                    SvgOptions(decimal_places=dp)).splitlines()[1:-1]


def reference_lines(shapes, dp: int) -> list[str]:
    return [reference_element(shape, dp) for shape in shapes]


_NAN = float("nan")


@settings(max_examples=300)
@given(shared_x_scenes(), st.integers(0, 6))
# 0.0 and -0.0 are one key: each writes the other's template, in each order.
@example((Polyline(((-0.0, 1.0), (2.0, 3.0))),
          Polygon(((0.0, -0.0), (2.0, 3.0)), _FILL),
          Polyline(((-0.0, 5.0), (2.0, 3.0)))), 2)
@example((Polyline(((0.0, 1.0),)), Polyline(((-0.0, 1.0),))), 0)
# Five types of one x, each writing "1.00".
@example(tuple(Polyline(((x, 2.0), (3, y))) for x, y in (
    (1, 4), (1.0, -0.0), (True, 5), (Decimal(1), Fraction(1, 3)),
    (Fraction(1), 6))), 2)
# A NaN x reused: the one object is one key, and it raises every time.
@example((Polyline(((_NAN, 1.0),)), Polygon(PlacedRing([(_NAN, 2.0)]))), 2)
@example((Polygon(((1.0, 2.0),), Style(stroke_width=_NAN)),
          Polyline(((_NAN, 1.0),))), 2)
# An empty point list, in each form, next to a one-point list.
@example((Polyline(()), Polygon(()), Polygon(PlacedRing(())),
          Polyline(((1.0, 2.0),))), 2)
# A mixed 2- and 3-length point list, after one of pairs with its x run.
@example((Polyline(((1.0, 2.0), (3.0, 4.0))),
          Polyline(((1.0, 2.0), (3.0, 4.0, 5.0)))), 2)
def test_shapes_sharing_x_runs_match_the_reference(shapes, dp):
    """A scene's point lists that share runs of x values, written with the
    templates one emit_svg call keeps per run, give the reference's lines,
    or the same first error."""
    assert (scene_outcome(shapes, dp, emitted_lines)
            == scene_outcome(shapes, dp, reference_lines))
