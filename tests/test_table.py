from __future__ import annotations

import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micromaps.compose import ChartSpec, ColumnSpec, compose
from micromaps.errors import (
    CellParse,
    DuplicateRegion,
    EmptyBinding,
    EmptyColumn,
    MicromapError,
    MissingColumn,
    NameClash,
    SeriesMismatch,
    UnknownRegion,
)
from micromaps.layout import SortSpec
from micromaps.regions import ALL_CODES
from micromaps.table import (
    SERIES,
    Column,
    RegionTable,
    bind_series,
    column_extent,
    parse_number,
    parse_table,
    resolve_ref,
    scalar_values,
    validate_regions,
    with_scalar_column,
    with_series_column,
)

from conftest import make_table


def test_parse_two_rows_one_column():
    table = parse_table("state,rate\nUT,86.4\nID,85.1\n", "state")
    assert table.codes() == ("ID", "UT")
    assert [c.name for c in table.columns] == ["rate"]
    assert table.scalar("UT", "rate") == 86.4
    assert table.scalar("ID", "rate") == 85.1


def test_parse_full_names_and_dc_alias():
    table = parse_table("state,rate\nWashington DC,60.1\nIdaho,85.1\n", "state")
    assert table.codes() == ("DC", "ID")


def test_parse_bad_numeric_cell_is_cell_parse():
    with pytest.raises(CellParse) as err:
        parse_table("state,rate\nWashington DC,abc\n", "state")
    assert err.value.row == "Washington DC"
    assert err.value.column == "rate"


def test_parse_duplicate_region():
    with pytest.raises(DuplicateRegion):
        parse_table("state,rate\nUT,1\nutah,2\n", "state")


def test_parse_missing_region_column():
    with pytest.raises(MissingColumn):
        parse_table("name,rate\nUT,1\n", "state")


def test_parse_unknown_region_is_hard_error():
    with pytest.raises(UnknownRegion):
        parse_table("state,rate\nPuerto Rico,12\n", "state")


@pytest.mark.parametrize("text, error, message", [
    ("", MissingColumn, "empty document, no 'state' header"),
    ("state,a,a\nUT,1,2\n", NameClash, "duplicate header names"),
    ("state,a\nUT,1\nID,2,3\n", CellParse,
     "cannot parse cell (row 'ID', column ''): row wider than header"),
])
def test_parse_table_faults(text, error, message):
    with pytest.raises(error) as err:
        parse_table(text, "state")
    assert str(err.value) == message


def test_parse_skips_blank_lines():
    plain = parse_table("state,a,b\nUT,1,2\nID,3,4\n", "state")
    assert parse_table("state,a,b\n\nUT,1,2\n , \nID,3,4\n\n",
                       "state") == plain


def test_parse_number_forms():
    assert parse_number("86.4%") == 86.4
    assert parse_number("1,234.5") == 1234.5
    assert parse_number("+5") == 5.0
    assert parse_number("-0.5") == -0.5
    assert parse_number(".5") == 0.5
    assert parse_number("") is None
    assert parse_number("NA") is None
    assert parse_number(" 12 ") == 12.0
    assert parse_number("9" * 300) == float("9" * 300)
    for bad in ("abc", "1,23", "1.2.3", "12e3", "--4", "9" * 400,
                "-" + "9" * 400):
        with pytest.raises(ValueError):
            parse_number(bad)


def test_parse_table_names_overflowing_cell():
    with pytest.raises(CellParse) as info:
        parse_table("state,a,b\nUT,1,2\nID,3," + "9" * 400 + "\n", "state")
    assert (info.value.row, info.value.column) == ("ID", "b")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_table_rejects_non_finite_cells(bad):
    with pytest.raises(CellParse) as info:
        make_table({"UT": 1.0, "ID": bad})
    assert (info.value.row, info.value.column) == ("ID", "v")
    with pytest.raises(CellParse):
        with_scalar_column(make_table({"UT": 1.0}), "w", {"UT": bad})
    with pytest.raises(CellParse) as info:
        with_series_column(make_table({"UT": 1.0}), "s", ["2020", "2021"],
                           {"UT": [None, bad]})
    assert (info.value.row, info.value.column) == ("UT", "s:2021")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_new_column_cells_are_checked_and_named(bad):
    table = make_table({"UT": 1.0, "ID": 2.0})
    with pytest.raises(CellParse) as info:
        with_scalar_column(table, "w", {"UT": 3.0, "ID": bad})
    assert (info.value.row, info.value.column) == ("ID", "w")
    assert repr(bad) in str(info.value)
    with pytest.raises(CellParse) as info:
        with_series_column(table, "s", ["2020", "2021", "2022"],
                           {"UT": [1.0, None, 2.0], "ID": [None, 1.0, bad]})
    assert (info.value.row, info.value.column) == ("ID", "s:2022")
    assert repr(bad) in str(info.value)
    # A table made directly, or by _replace, still checks every cell.
    rows = {"UT": {"v": 1.0, "s": (None, bad)}}
    columns = (Column("v"), Column("s", SERIES, ("2020", "2021")))
    with pytest.raises(CellParse) as info:
        RegionTable(columns, rows)
    assert (info.value.row, info.value.column) == ("UT", "s:2021")
    with pytest.raises(CellParse) as info:
        table._replace(rows={"UT": {"v": bad}})
    assert (info.value.row, info.value.column) == ("UT", "v")


def _rows51() -> dict[str, dict[str, object]]:
    return {code: {"v": float(i), "s": (float(i), None)}
            for i, code in enumerate(ALL_CODES)}


_COLUMNS = (Column("v"), Column("s", SERIES, ("2020", "2021")))


@pytest.mark.parametrize("code, row, error, message", [
    ("UT", {"s": (1.0, 2.0)}, MissingColumn,
     "row UT has no cell for column 'v'"),
    ("UT", {"v": 1.0, "s": (1.0, 2.0), "w": 3.0}, MissingColumn,
     "row UT has a cell for 'w', not a column"),
    ("ZZ", {"v": 1.0, "s": (1.0, 2.0)}, UnknownRegion,
     "row for unknown region 'ZZ'"),
    ("UT", {"v": "1.5", "s": (1.0, 2.0)}, CellParse,
     "cannot parse cell (row 'UT', column 'v'): not a finite number: '1.5'"),
    ("UT", {"v": 10**400, "s": (1.0, 2.0)}, CellParse,
     "cannot parse cell (row 'UT', column 'v'): not a finite number: 1" +
     "0" * 400),
    ("UT", {"v": 1.0, "s": (None, "2")}, CellParse,
     "cannot parse cell (row 'UT', column 's:2021'): "
     "not a finite number: '2'"),
    ("UT", {"v": 1.0, "s": [1.0, 2.0]}, SeriesMismatch,
     "'s' for UT: list, not a tuple"),
    ("UT", {"v": 1.0, "s": (1.0,)}, SeriesMismatch,
     "'s' for UT: 1 values, 2 periods"),
], ids=["no-cell", "cell-for-no-column", "unknown-key", "string",
        "int-too-large", "string-in-series", "list-series", "short-series"])
def test_direct_table_checks_keys_rows_and_cells(code, row, error, message):
    rows = _rows51()
    rows[code] = row
    with pytest.raises(error) as info:
        RegionTable(_COLUMNS, rows)
    assert str(info.value) == message
    with pytest.raises(error) as info:
        RegionTable(_COLUMNS, _rows51())._replace(rows=rows)
    assert str(info.value) == message


@pytest.mark.parametrize("columns, error, message", [
    ((Column("v"), Column("v")), NameClash, "duplicate column names"),
    ((Column("v", "vector"),), MissingColumn,
     "column 'v' has kind 'vector', not scalar or series"),
], ids=["duplicate-name", "unknown-kind"])
def test_direct_table_checks_columns(columns, error, message):
    rows = {code: {"v": 1.0} for code in ALL_CODES}
    with pytest.raises(error) as info:
        RegionTable(columns, rows)
    assert str(info.value) == message
    with pytest.raises(error) as info:
        RegionTable((Column("v"),), rows)._replace(columns=columns)
    assert str(info.value) == message


def test_row_without_a_cell_fails_before_compose(square_atlas):
    rows = _rows51()
    del rows["UT"]["v"]
    spec = ChartSpec("Rates", SortSpec("v"), (
        ColumnSpec("map"), ColumnSpec("legend"),
        ColumnSpec("dot", ("Rate",), {"value": "v"})))
    with pytest.raises(MicromapError, match="^row UT has no cell for "):
        compose(spec, RegionTable(_COLUMNS, rows), square_atlas)
    assert compose(spec, RegionTable(_COLUMNS, _rows51()), square_atlas).panels


def test_bound_and_parsed_tables_equal_checked_tables():
    table = parse_table("state,a,b,c\nUT,1,,3\nID,4,5,NA\n", "state")
    assert table == RegionTable(*table)
    bound = bind_series(table, ["c", "a"], "s")
    assert bound == RegionTable(*bound)
    assert bound.rows["UT"] == {"b": None, "s": (3.0, 1.0)}
    with pytest.raises(MissingColumn, match="no column named 'd'"):
        bind_series(table, ["a", "d"], "s")


def test_parse_quoted_fields_and_crlf():
    table = parse_table('state,"the rate"\r\nUT,"86.4"\r\n', "state")
    assert table.scalar("UT", "the rate") == 86.4


def test_bind_series_two_periods():
    table = parse_table("state,2010,2011\nUT,97,96\nID,95,94\n", "state")
    bound = bind_series(table, ["2010", "2011"], "rr")
    col = bound.column("rr")
    assert col.kind == "series"
    assert col.periods == ("2010", "2011")
    assert bound.series("UT", "rr") == (97.0, 96.0)
    assert bound.series("ID", "rr") == (95.0, 94.0)


def test_bind_series_value_preservation_is_exact():
    table = parse_table("state,a,b\nUT,0.1,0.30000000000000004\n", "state")
    bound = bind_series(table, ["a", "b"], "s")
    assert bound.series("UT", "s") == (0.1, 0.30000000000000004)


def test_bind_series_empty_binding():
    table = parse_table("state,a\nUT,1\n", "state")
    with pytest.raises(EmptyBinding):
        bind_series(table, [], "s")


def test_bind_series_unknown_column():
    table = parse_table("state,a\nUT,1\n", "state")
    with pytest.raises(MissingColumn):
        bind_series(table, ["nope"], "s")


def test_bind_series_name_clash():
    table = parse_table("state,a,b\nUT,1,2\n", "state")
    with pytest.raises(NameClash):
        bind_series(table, ["a"], "b")


@pytest.mark.parametrize("names, error, message", [
    (["a", "a"], NameClash, "repeated column in series binding"),
    (["s"], MissingColumn, "column 's' is not scalar"),
])
def test_bind_series_faults(names, error, message):
    table = bind_series(parse_table("state,a,b,c\nUT,1,2,3\n", "state"),
                        ["b", "c"], "s")
    with pytest.raises(error) as err:
        bind_series(table, names, "t")
    assert str(err.value) == message


def test_column_kind_faults():
    table = bind_series(parse_table("state,a,b,c\nUT,1,2,3\n", "state"),
                        ["b", "c"], "s")
    with pytest.raises(MissingColumn, match="^column 's' is not scalar$"):
        table.scalar("UT", "s")
    with pytest.raises(MissingColumn, match="^column 'a' is not a series$"):
        table.series("UT", "a")


def test_validate_regions_complete_table_is_clean(table51):
    report = validate_regions(table51)
    assert report.clean()
    assert report.missing_regions == ()
    assert report.missing_cells == ()


def test_validate_regions_missing_dc(table51):
    rows = {c: r for c, r in table51.rows.items() if c != "DC"}
    table = RegionTable(table51.columns, rows)
    assert validate_regions(table).missing_regions == ("DC",)


def test_validate_regions_missing_cells():
    table = make_table({"UT": 1.0, "ID": None})
    report = validate_regions(table)
    assert ("ID", "v") in report.missing_cells
    assert ("UT", "v") not in report.missing_cells


def test_validate_regions_series_cell_missing_only_when_every_period_is():
    table = bind_series(parse_table("state,a,b\nUT,1,\nID,,\n", "state"),
                        ["a", "b"], "s")
    assert validate_regions(table).missing_cells == (("ID", "s"),)


def test_column_extent_basic():
    table = make_table({"UT": 3.0, "ID": -1.0, "WY": 7.0})
    assert column_extent(table, "v") == (-1.0, 7.0)


def test_column_extent_single_value():
    assert column_extent(make_table({"UT": 5.0}), "v") == (5.0, 5.0)


def test_column_extent_all_missing():
    with pytest.raises(EmptyColumn):
        column_extent(make_table({"UT": None}), "v")


def test_column_extent_missing_column():
    with pytest.raises(MissingColumn):
        column_extent(make_table({"UT": 1.0}), "nope")


def test_column_extent_series_spans_periods_and_regions():
    table = parse_table("state,a,b\nUT,1,9\nID,-2,4\n", "state")
    bound = bind_series(table, ["a", "b"], "s")
    assert column_extent(bound, "s") == (-2.0, 9.0)
    assert column_extent(bound, "s:a") == (-2.0, 1.0)


def test_series_period_reference():
    table = bind_series(parse_table("state,a,b\nUT,1,2\n", "state"),
                        ["a", "b"], "s")
    ref = resolve_ref(table, "s:b")
    assert ref.period_index == 1
    assert scalar_values(table, "s:b") == {"UT": 2.0}
    with pytest.raises(MissingColumn):
        resolve_ref(table, "s:nope")


def test_with_scalar_column_and_clash(table51):
    extended = with_scalar_column(table51, "w", {"UT": 1.0})
    assert extended.scalar("UT", "w") == 1.0
    assert extended.scalar("ID", "w") is None
    with pytest.raises(NameClash):
        with_scalar_column(extended, "w", {})


def test_with_series_column_faults():
    table = parse_table("state,a\nUT,1\nID,2\n", "state")
    with pytest.raises(NameClash, match="^column 'a' already exists$"):
        with_series_column(table, "a", ("p",), {})
    with pytest.raises(SeriesMismatch,
                       match="^'s' for UT: 1 values, 2 periods$"):
        with_series_column(table, "s", ("p", "q"), {"UT": [1.0]})


def plain_csv(table: RegionTable) -> str:
    """A scalar table as CSV keyed by ``region``, every number in plain
    decimal (no exponent) and a missing cell empty."""
    lines = [",".join(["region", *(c.name for c in table.columns)])]
    for code in table.codes():
        cells = [table.rows[code][c.name] for c in table.columns]
        lines.append(",".join([code, *("" if v is None
                                       else format(Decimal(repr(v)), "f")
                                       for v in cells)]))
    return "\n".join(lines) + "\n"


def test_roundtrip_of_parsed_csv():
    original = parse_table(
        'state,rate,x\nUT,86.4%,"1,234"\nID,NA,-0.5\nWyoming,+3,\n', "state")
    again = parse_table(plain_csv(original), "region")
    assert again == original


_values = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(
    codes=st.lists(st.sampled_from(ALL_CODES), min_size=1, max_size=8,
                   unique=True),
    names=st.lists(st.text(alphabet="abcxyz_", min_size=1, max_size=6),
                   min_size=1, max_size=4, unique=True),
    data=st.data(),
)
def test_roundtrip_property(codes, names, data):
    rows = {
        code: {name: data.draw(_values) for name in names} for code in codes
    }
    table = RegionTable(tuple(Column(n) for n in names), rows)
    assert parse_table(plain_csv(table), "region") == table
