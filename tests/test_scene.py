from __future__ import annotations

import math
import warnings
from typing import get_args

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from micromaps.atlas import load_default_atlas
from micromaps.compose import compose
from micromaps.demos import build_demo
from micromaps.scene import (
    Circle,
    Line,
    PlacedRing,
    Polygon,
    Polyline,
    Rect,
    Scene,
    Shape,
    Style,
    Text,
    clamp_scene,
    clamp_shape,
)
from micromaps.svg import _Writer, emit_svg

INK = Style(fill="#000000")


def test_clamp_scene_returns_on_canvas_scene_itself():
    points = ((0.0, 0.0), (10.0, 5.0), (-0.0, 5.0))
    scene = Scene(10.0, 5.0, (
        Rect(0.0, 5.0, 30.0, 30.0, INK),  # sizes may overhang
        Circle(10.0, 0.0, 4.0),
        Line(0.0, 0.0, 10.0, 5.0),
        Polyline(points),
        Polygon(points, INK),
        Polygon(points),
        Text(5.0, 2.5, "x"),
        Polygon(()),
    ))
    assert clamp_scene(scene) is scene


def test_clamp_scene_returns_demo_scene_itself():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec, table = build_demo("acs-dot")
        scene = compose(spec, table, load_default_atlas())
    assert clamp_scene(scene) is scene


def test_off_canvas_shapes_are_clamped():
    shared = ((-1.0, 2.0), (12.0, 3.0), (4.0, 7.5))
    on_canvas = Rect(1.0, 1.0, 2.0, 2.0, INK)
    scene = Scene(10.0, 5.0, (
        Rect(-2.0, 6.0, 3.0, 3.0, INK, tag="region:UT"),
        on_canvas,
        Circle(11.0, -1.0, 2.0),
        Line(-3.0, 1.0, 13.0, 9.0),
        Polygon(shared, INK),
        Polygon(shared, Style(fill="none", stroke="#808080")),
        Polyline(((5.0, -0.5), (5.0, 2.0))),
        Text(20.0, 2.0, "label"),
    ), panels=())
    clamped = clamp_scene(scene)
    expected_points = ((0.0, 2.0), (10.0, 3.0), (4.0, 5.0))
    assert clamped.shapes == (
        Rect(0.0, 5.0, 3.0, 3.0, INK, tag="region:UT"),
        on_canvas,
        Circle(10.0, 0.0, 2.0),
        Line(0.0, 1.0, 10.0, 5.0),
        Polygon(expected_points, INK),
        Polygon(expected_points, Style(fill="none", stroke="#808080")),
        Polyline(((5.0, 0.0), (5.0, 2.0))),
        Text(10.0, 2.0, "label"),
    )
    assert clamped.shapes[1] is on_canvas
    assert (clamped.width, clamped.height, clamped.panels) == (10.0, 5.0, ())
    assert scene.shapes[4].points is shared  # the input is left alone


def test_non_finite_coordinates_pass_through_clamping():
    scene = Scene(10.0, 5.0, (Circle(math.nan, 1.0, 1.0),
                              Polygon(((1.0, math.nan), (-1.0, 2.0))),
                              Line(math.inf, 0.0, 1.0, -math.inf)))
    circle, polygon, line = clamp_scene(scene).shapes
    assert math.isnan(circle.cx) and circle.cy == 1.0
    assert math.isnan(polygon.points[0][1])
    assert polygon.points[1] == (0.0, 2.0)
    assert (line.x1, line.y2) == (10.0, 0.0)


# One instance of each shape type with every coordinate off a 10 x 5 canvas.
OFF_CANVAS = {
    Rect: Rect(-1.0, 6.0, 2.0, 2.0, INK),
    Circle: Circle(11.0, -1.0, 1.0),
    Line: Line(-1.0, 6.0, 11.0, -1.0),
    Polyline: Polyline(((-1.0, 6.0), (11.0, -1.0))),
    Polygon: Polygon(((-1.0, 6.0), (11.0, -1.0), (12.0, 7.0)), INK),
    Text: Text(11.0, -1.0, "t"),
}


def test_every_shape_type_has_one_writer_and_a_clamp_branch():
    """A shape type cannot be added halfway: each member of scene.Shape has
    its own SVG writer and is moved onto the canvas by clamp_shape."""
    types = set(get_args(Shape))
    writers = _Writer(2).by_type
    assert set(writers) == types == set(OFF_CANVAS)
    assert len({writer.__name__ for writer in writers.values()}) == len(types)
    for kind, shape in OFF_CANVAS.items():
        clamped = clamp_shape(shape, 10.0, 5.0)
        assert type(clamped) is kind and clamped != shape
        assert clamp_shape(clamped, 10.0, 5.0) == clamped
        assert emit_svg(Scene(10.0, 5.0, (shape,))).count("\n") == 3


def test_non_shape_is_type_error():
    with pytest.raises(TypeError, match="not a shape: 'x'"):
        clamp_scene(Scene(10.0, 5.0, (Text(1.0, 1.0, "ok"), "x")))


# Coordinates on, near and off a 10 x 5 canvas; exact edges come up often.
_coord = st.one_of(st.sampled_from([-0.0, 0.0, 5.0, 10.0, -1e-9]),
                   st.floats(-3.0, 13.0))
_point = st.tuples(_coord, _coord)
_shape = st.one_of(
    st.builds(Rect, _coord, _coord, _coord, _coord),
    st.builds(Circle, _coord, _coord, st.just(1.0)),
    st.builds(Line, _coord, _coord, _coord, _coord),
    st.builds(Text, _coord, _coord, st.just("t")),
    st.builds(Polyline, st.lists(_point, max_size=4).map(tuple)),
    st.builds(Polygon, st.lists(_point, max_size=4).map(tuple)),
)


@settings(max_examples=150)
@given(st.lists(_shape, max_size=8))
def test_clamp_scene_equals_clamping_every_shape(shapes):
    check_clamp_scene(shapes)


def check_clamp_scene(shapes):
    scene = Scene(10.0, 5.0, tuple(shapes))
    clamped = clamp_scene(scene).shapes
    assert clamped == tuple(clamp_shape(s, 10.0, 5.0) for s in shapes)
    for before, after in zip(shapes, clamped):
        if before == clamp_shape(before, 10.0, 5.0):
            assert after is before  # a shape on the canvas is kept as is


@settings(max_examples=150)
@given(st.lists(_shape, max_size=8))
# A ring past each edge of the canvas, and one on it.
@example([Polygon(((-0.5, 1.0), (2.0, 1.0))), Polyline(((1.0, 1.0), (10.5, 2.0))),
          Polygon(((1.0, -1e-9), (2.0, 1.0))), Polyline(((1.0, 1.0), (2.0, 5.5))),
          Polygon(((0.0, 0.0), (10.0, 5.0)))])
def test_clamp_scene_tests_placed_rings_as_clamp_shape_does(shapes):
    """The same property with every polyline and polygon on a PlacedRing,
    as atlas places map rings."""
    check_clamp_scene([
        s._replace(points=PlacedRing(s.points))
        if isinstance(s, (Polyline, Polygon)) else s for s in shapes])
