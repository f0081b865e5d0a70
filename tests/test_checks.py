"""The pre-write gate accepts correct charts and rejects recolored marks.

Each rejection case takes a correct scene, changes one region-tagged mark,
and expects ``check_chart`` to raise. Marks are found by type and tag, not
by where they sit, so the cases do not depend on how the checks find a
panel's marks.
"""

from __future__ import annotations

import pytest

from micromaps.checks import check_chart
from micromaps.colors import DEFAULT_PALETTE
from micromaps.compose import ChartSpec, ColumnSpec, compose
from micromaps.errors import MicromapError
from micromaps.layout import SortSpec, build_layout
from micromaps.scene import Circle, Line, Polygon, Scene
from micromaps.table import bind_series, parse_table

from conftest import full_table

WRONG = "#123456"


def dot_spec(**overrides) -> ChartSpec:
    return ChartSpec(title="Gate", sort=SortSpec("v"),
                     columns=(ColumnSpec("map"), ColumnSpec("legend"),
                              ColumnSpec("dot", bindings={"value": "v"})),
                     **overrides)


def replaced(scene: Scene, index: int, shape) -> Scene:
    shapes = list(scene.shapes)
    shapes[index] = shape
    return scene._replace(shapes=tuple(shapes))


def first(scene: Scene, kind: type, test=lambda shape: True) -> int:
    return next(i for i, shape in enumerate(scene.shapes)
                if isinstance(shape, kind) and shape.tag
                and shape.tag.startswith("region:") and test(shape))


@pytest.mark.parametrize("height", [20.0, 50.0, 100.0])
def test_short_canvas_passes(default_atlas, height):
    scene = compose(dot_spec(height=height), full_table(), default_atlas)
    check_chart(scene)


def test_recolored_dot_outside_its_panel_raises(default_atlas):
    scene = compose(dot_spec(), full_table(), default_atlas)
    i = first(scene, Circle)
    dot = scene.shapes[i]
    panel = next(p for p in scene.panels if p.kind == "dot"
                 and dot.tag[len("region:"):] in dict(p.rows))
    moved = dot._replace(cx=panel.x + panel.width + 5.0,
                         style=dot.style._replace(fill=WRONG))
    with pytest.raises(MicromapError, match=WRONG):
        check_chart(replaced(scene, i, moved))


def test_recolored_map_fill_of_member_raises(default_atlas):
    table = full_table()
    spec = dot_spec()
    scene = compose(spec, table, default_atlas)
    layout = build_layout(table, spec.sort, spec.group_size)

    def own_color(shape: Polygon) -> bool:
        code = shape.tag[len("region:"):]
        return shape.style.fill == DEFAULT_PALETTE.for_slot(
            layout.slot_of[code])

    i = first(scene, Polygon, own_color)
    fill = scene.shapes[i]
    with pytest.raises(MicromapError, match=WRONG):
        check_chart(replaced(scene, i, fill._replace(
            style=fill.style._replace(fill=WRONG))))


def test_recolored_one_period_timeseries_dot_raises(square_atlas):
    """A region with a gap draws a line and a dot; both carry its color."""
    codes = sorted(full_table().rows)
    table = parse_table("state,a,b,c,d\n" + "\n".join(
        f"{code},{i},{i + 1},,{i + 3}" for i, code in enumerate(codes)),
        "state")
    table = bind_series(table, ["a", "b", "c", "d"], "s")
    spec = ChartSpec(title="ts", sort=SortSpec("s:d"),
                     columns=(ColumnSpec("map"), ColumnSpec("legend"),
                              ColumnSpec("timeseries",
                                         bindings={"series": "s"})))
    scene = compose(spec, table, square_atlas)
    check_chart(scene)
    i = first(scene, Circle)
    dot = scene.shapes[i]
    with pytest.raises(MicromapError, match=WRONG):
        check_chart(replaced(scene, i, dot._replace(
            style=dot.style._replace(fill=WRONG))))


def test_recolored_arrow_shaft_raises(square_atlas):
    codes = sorted(full_table().rows)
    table = parse_table("state,a,b\n" + "\n".join(
        f"{code},{i},{i + 2}" for i, code in enumerate(codes)), "state")
    spec = ChartSpec(title="arrows", sort=SortSpec("b"),
                     columns=(ColumnSpec("map"), ColumnSpec("legend"),
                              ColumnSpec("arrow", bindings={"start": "a",
                                                            "end": "b"})))
    scene = compose(spec, table, square_atlas)
    check_chart(scene)
    i = first(scene, Line)
    shaft = scene.shapes[i]
    with pytest.raises(MicromapError, match=WRONG):
        check_chart(replaced(scene, i, shaft._replace(
            style=shaft.style._replace(stroke=WRONG))))
