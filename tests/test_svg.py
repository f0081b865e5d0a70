from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from micromaps.errors import BadGeometry, SpecError
from micromaps.scene import (
    Circle,
    Line,
    Path,
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


def test_background_rect_optional():
    text = emit_svg(Scene(10.0, 10.0, ()), SvgOptions(background="#FFFFFF"))
    assert '<rect fill="#FFFFFF" height="10.00" width="10.00" x="0.00" y="0.00"/>' in text
    assert len(text.strip().split("\n")) == 3


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
                    SvgOptions(embed_title=True, title="t", background="#FFF"))
    root = ET.fromstring(text)
    assert len(list(root)) == 7 + 2  # title + background + shapes


def test_text_escaping():
    scene = Scene(10.0, 10.0, (Text(1, 1, "Leisure & <Hospitality>"),))
    text = emit_svg(scene)
    assert "Leisure &amp; &lt;Hospitality&gt;" in text
    ET.fromstring(text)


def test_title_escaping_and_presence():
    text = emit_svg(Scene(10.0, 10.0, ()), SvgOptions(embed_title=True,
                                                      title="a & b"))
    assert "<title>a &amp; b</title>" in text


def test_fonts_by_generic_family_only():
    scene = Scene(10.0, 10.0, (Text(1, 1, "x", Style(font_size=10.0)),))
    text = emit_svg(scene)
    assert 'font-family="sans-serif"' in text


def test_polyline_defaults_to_no_fill():
    scene = Scene(10.0, 10.0, (Polyline(((0, 0), (1, 1)),
                                        Style(stroke="#123456")),))
    assert 'fill="none"' in emit_svg(scene)


def test_polygon_and_path_serialization():
    scene = Scene(10.0, 10.0, (
        Polygon(((0, 0), (4, 0), (2, 3)), Style(fill="#000000")),
        Path((("M", 1, 1), ("L", 2, 2), ("Z",)), Style(stroke="#000000")),
    ))
    text = emit_svg(scene)
    assert 'points="0.00,0.00 4.00,0.00 2.00,3.00"' in text
    assert 'd="M 1.00 1.00 L 2.00 2.00 Z"' in text
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
    Path((("M", 0, 0), ("L", float("inf"), 1), ("Z",))),
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
    lambda v: Path((("M", 1.0, v), ("L", 2.0, 2.0), ("Z",))),
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


def test_non_finite_canvas_size_rejected():
    for scene in (Scene(float("nan"), 10.0, ()), Scene(10.0, float("inf"), ())):
        with pytest.raises(BadGeometry):
            emit_svg(scene)


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


@settings(max_examples=200, deadline=None)
@given(_text)
@example("a\x01b\x0bc & <d> \"e\"")
@example("\ud83d")  # a lone high surrogate
def test_escape_matches_saxutils_on_xml_characters(text):
    kept = xml_chars(text)
    assert _escape(text) == escape(kept)
    assert _escape_attr(text) == escape(kept, {'"': "&quot;"})


@settings(max_examples=200, deadline=None)
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
