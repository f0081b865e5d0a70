"""Value semantics of the package's immutable types.

They are NamedTuples, so the tests pin what a frozen class promised:
fields cannot be assigned, equality respects the type (tuple equality
alone would make ``Rect(0, 0, 1, 1) == Line(0, 0, 1, 1)``), equal values
hash equal, the checks made at construction still run, and every mapping
a value holds is read-only.
"""

from __future__ import annotations

import math
from collections import namedtuple

import pytest

from micromaps.altcharts import ClassBreaks
from micromaps.atlas import Atlas, load_default_atlas
from micromaps.colors import Palette
from micromaps.compose import Band, ChartPlan, ChartSpec, ColumnPlan, ColumnSpec
from micromaps.config import RenderConfig, SeriesBinding
from micromaps.demos import build_demo
from micromaps.errors import BadBreaks, CellParse, MissingColumn
from micromaps.glyphs import BoxStats
from micromaps.layout import GroupPlan, LinkedLayout, SortSpec
from micromaps.regions import ALL_CODES, BY_CODE
from micromaps.scale import Scale
from micromaps.scene import (
    Circle,
    Line,
    PanelFrame,
    PanelInfo,
    Polygon,
    Polyline,
    Rect,
    RowBand,
    Scene,
    Style,
    Text,
)
from micromaps.svg import SvgOptions
from micromaps.table import Column, ColumnRef, RegionTable

SPEC = ChartSpec("t", SortSpec("v"),
                 (ColumnSpec("map"), ColumnSpec("legend"),
                  ColumnSpec("dot", ("V",), {"value": "v"})))
TABLE = RegionTable((Column("v"),), {"AL": {"v": 1.0}, "AK": {"v": None}})
LAYOUT = LinkedLayout(("AL",), ("AK",), GroupPlan((1,), 0), (("AL",),))
BAND = Band(0, False, 0.0, 10.0, (RowBand("AL", 5.0, "#D55E00"),), ())
# One triangle per region, side by side.
ATLAS = Atlas({code: ([(i, 0), (i + 1, 0), (i, 1)],)
               for i, code in enumerate(ALL_CODES)})

# (instance, hashable): types holding a dict or a read-only mapping cannot
# be hashed.
VALUES = [
    (Style(fill="#000", stroke_width=0.5), True),
    (Rect(0.0, 0.0, 1.0, 1.0, tag="region:AL"), True),
    (Circle(1.0, 2.0, 3.0), True),
    (Line(0.0, 0.0, 1.0, 1.0), True),
    (Polyline(((0.0, 0.0), (1.0, 1.0))), True),
    (Polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))), True),
    (Text(1.0, 2.0, "label"), True),
    (PanelInfo(0, "dot", 1, PanelFrame(0.0, 0.0, 10.0, 10.0,
                                       (RowBand("AL", 5.0, "#000"),), 10.0),
               range(2)), True),
    (Scene(10.0, 10.0, (Rect(0.0, 0.0, 1.0, 1.0),)), True),
    (Scale((0.0, 1.0), (0.0, 100.0), (0.0, 0.5, 1.0)), True),
    (RowBand("AL", 5.0, "#D55E00"), True),
    (PanelFrame(0.0, 0.0, 10.0, 10.0, (RowBand("AL", 5.0, "#000"),), 10.0),
     True),
    (BoxStats(1.0, 2.0, 3.0, 0.0, 4.0, (9.0,)), True),
    (SortSpec("v"), True),
    (GroupPlan((2, 1, 2), 1), True),
    (LAYOUT, True),
    (Palette(median="#111111"), True),
    (ColumnSpec("dot", ("V",), {"value": "v"}, {"weight": 2}), False),
    (SPEC, False),
    (BAND, True),
    (ColumnPlan(SPEC.columns[0], 0, 0.0, 10.0), False),
    (ChartPlan(SPEC, (), LAYOUT, (BAND,), 10.0, 0.0, 10.0, ("DC",), ()),
     False),
    (SvgOptions(decimal_places=1), True),
    (ATLAS, False),
    (BY_CODE["AL"], True),
    (Column("s", "series", ("a", "b")), True),
    (ColumnRef(Column("s", "series", ("a", "b")), 1), True),
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
    twin = type(value)._make(value)
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
    twin = type(value)._make(value)
    if hashable:
        assert hash(twin) == hash(value)
        assert {value: 1}[twin] == 1
    else:
        with pytest.raises(TypeError):
            hash(value)


MAPPINGS = [
    ("ChartSpec bindings", lambda: SPEC.columns[2].bindings, "value"),
    ("ChartSpec options", lambda: SPEC.columns[2].options, "weight"),
    ("RegionTable rows", lambda: TABLE.rows, "AL"),
    ("RegionTable row", lambda: TABLE.rows["AL"], "v"),
    ("parsed RegionTable rows", lambda: build_demo("acs-dot")[1].rows, "AL"),
    ("parsed RegionTable row",
     lambda: build_demo("acs-dot")[1].rows["AL"], "response_rate"),
    ("bundled Atlas regions", lambda: load_default_atlas().regions, "AL"),
    ("hand-built Atlas regions", lambda: ATLAS.regions, "AL"),
]


@pytest.mark.parametrize("get, key", [m[1:] for m in MAPPINGS],
                         ids=[m[0] for m in MAPPINGS])
def test_held_mappings_refuse_assignment_and_deletion(get, key):
    mapping = get()
    before = dict(mapping)
    with pytest.raises(TypeError):
        mapping[key] = None
    with pytest.raises(TypeError):
        mapping["extra"] = None
    with pytest.raises(TypeError):
        del mapping[key]
    assert dict(mapping) == before


def test_region_table_copies_the_rows_it_is_given():
    rows = {"AL": {"v": 1.0}}
    table = RegionTable((Column("v"),), rows)
    rows["AL"]["v"] = math.nan
    rows["AK"] = {"v": 2.0}
    assert dict(table.rows) == {"AL": {"v": 1.0}}
    # A row that is not a mapping is checked before any copy is made.
    with pytest.raises(MissingColumn):
        RegionTable((Column("v"),), {"AL": [1.0]})


def test_column_spec_defaults_are_read_only():
    a, b = ColumnSpec("map"), ColumnSpec("legend")
    for mapping in (a.bindings, a.options):
        assert mapping == {}
        with pytest.raises(TypeError):
            mapping["weight"] = 2.0
    assert b.bindings == {} and b.options == {}


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
