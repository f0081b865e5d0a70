"""Value semantics of the package's immutable types.

They are NamedTuples, so the tests pin what a frozen class promised:
fields cannot be assigned, equality respects the type (tuple equality
alone would make ``Rect(0, 0, 1, 1) == Line(0, 0, 1, 1)``), equal values
hash equal, and the checks made at construction still run.
"""

from __future__ import annotations

import math
from collections import namedtuple

import pytest

from micromaps.altcharts import ClassBreaks
from micromaps.atlas import Atlas
from micromaps.colors import Palette
from micromaps.compose import ChartSpec, ColumnSpec
from micromaps.config import RenderConfig, SeriesBinding
from micromaps.errors import BadBreaks, CellParse
from micromaps.glyphs import BoxStats, PanelFrame, RowBand
from micromaps.layout import GroupPlan, LinkedLayout, SortSpec
from micromaps.regions import BY_CODE
from micromaps.scale import Scale
from micromaps.scene import (
    Circle,
    Line,
    PanelInfo,
    Path,
    Polygon,
    Polyline,
    Rect,
    Scene,
    Style,
    Text,
)
from micromaps.svg import SvgOptions
from micromaps.table import Column, ColumnRef, RegionTable, ValidationReport

SPEC = ChartSpec("t", SortSpec("v"),
                 (ColumnSpec("map"), ColumnSpec("legend"),
                  ColumnSpec("dot", ("V",), {"value": "v"})))
TABLE = RegionTable((Column("v"),), {"AL": {"v": 1.0}, "AK": {"v": None}})

# (instance, hashable): types holding a dict cannot be hashed, as before.
VALUES = [
    (Style(fill="#000", stroke_width=0.5), True),
    (Rect(0.0, 0.0, 1.0, 1.0, tag="region:AL"), True),
    (Circle(1.0, 2.0, 3.0), True),
    (Line(0.0, 0.0, 1.0, 1.0), True),
    (Polyline(((0.0, 0.0), (1.0, 1.0))), True),
    (Polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))), True),
    (Path((("M", 0.0, 0.0), ("L", 1.0, 1.0), ("Z",))), True),
    (Text(1.0, 2.0, "label"), True),
    (PanelInfo(0, "dot", 1, 0.0, 0.0, 10.0, 10.0, x_ticks=(0.0, 1.0)), True),
    (Scene(10.0, 10.0, (Rect(0.0, 0.0, 1.0, 1.0),)), True),
    (Scale((0.0, 1.0), (0.0, 100.0), (0.0, 0.5, 1.0)), True),
    (RowBand("AL", 5.0, "#D55E00"), True),
    (PanelFrame(0.0, 0.0, 10.0, 10.0, (RowBand("AL", 5.0, "#000"),), 10.0),
     True),
    (BoxStats(1.0, 2.0, 3.0, 0.0, 4.0, (9.0,)), True),
    (SortSpec("v"), True),
    (GroupPlan((2, 1, 2), 1), True),
    (LinkedLayout(("AL",), ("AK",), GroupPlan((1,), None), {"AL": 0},
                  {"AL": 0}), False),
    (Palette(median="#111111"), True),
    (ColumnSpec("dot", ("V",), {"value": "v"}, {"weight": 2}), False),
    (SPEC, False),
    (SvgOptions(decimal_places=1), True),
    (Atlas({"AL": (((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),)},
           (0.0, 0.0, 1.0, 1.0)), False),
    (BY_CODE["AL"], True),
    (Column("s", "series", ("a", "b")), True),
    (ColumnRef(Column("s", "series", ("a", "b")), 1), True),
    (ValidationReport(("DC",), (("AK", "v"),)), True),
    (SeriesBinding("s", ("a", "b")), True),
    (RenderConfig(SPEC, "d.csv", "state", (), None, 2), False),
    (TABLE, False),
    (ClassBreaks((1.0, 2.0), ("#1", "#2", "#3")), True),
]
IDS = [type(value).__name__ for value, _ in VALUES]


@pytest.mark.parametrize("value,hashable", VALUES, ids=IDS)
def test_fields_cannot_be_assigned(value, hashable):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value,hashable", VALUES, ids=IDS)
def test_equality_respects_the_type(value, hashable):
    twin = type(value)(*value)
    assert twin == value and not twin != value
    plain = tuple(value)
    assert value != plain and plain != value
    assert not value == plain and not plain == value
    # Another tuple subclass compares by its own rule on its side.
    impostor = namedtuple("Impostor", value._fields)(*value)
    assert value != impostor and not value == impostor
    for a, b in ((Rect(0, 0, 1, 1), Line(0, 0, 1, 1)),
                 (Polygon(((0, 0),)), Polyline(((0, 0),))),
                 (SortSpec("v", "x"), SeriesBinding("v", "x"))):
        assert a != b and b != a
        assert not a == b and not b == a


@pytest.mark.parametrize("value,hashable", VALUES, ids=IDS)
def test_equal_values_hash_equal(value, hashable):
    twin = type(value)(*value)
    if hashable:
        assert hash(twin) == hash(value)
        assert {value: 1}[twin] == 1
    else:
        with pytest.raises(TypeError):
            hash(value)


def test_column_spec_defaults_are_new_dicts():
    a, b = ColumnSpec("map"), ColumnSpec("legend")
    assert a.bindings == {} and a.options == {}
    assert a.bindings is not b.bindings and a.options is not b.options


def test_copies_are_made_with_replace():
    rect = Rect(0.0, 0.0, 1.0, 1.0, Style(fill="#000"))
    moved = rect._replace(x=2.0)
    assert moved == Rect(2.0, 0.0, 1.0, 1.0, Style(fill="#000"))
    assert rect.x == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_region_table_checks_cells_when_made(bad):
    with pytest.raises(CellParse):
        RegionTable((Column("v"),), {"AL": {"v": bad}})
    with pytest.raises(CellParse):
        RegionTable((Column("s", "series", ("a", "b")),),
                    {"AL": {"s": (1.0, bad)}})
    with pytest.raises(CellParse):
        TABLE._replace(rows={"AL": {"v": bad}})


@pytest.mark.parametrize("boundaries,colors", [
    ((1.0, 2.0), ("#1", "#2")),
    ((2.0, 1.0), ("#1", "#2", "#3")),
    ((1.0, 1.0), ("#1", "#2", "#3")),
])
def test_class_breaks_checked_when_made(boundaries, colors):
    with pytest.raises(BadBreaks):
        ClassBreaks(boundaries, colors)
    with pytest.raises(BadBreaks):
        ClassBreaks(boundaries=boundaries, colors=colors)
    with pytest.raises(BadBreaks):
        ClassBreaks((1.0, 2.0), ("#1", "#2", "#3"))._replace(
            boundaries=boundaries, colors=colors)
