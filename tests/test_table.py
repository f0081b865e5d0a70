from __future__ import annotations

import csv
import io
import math
import re
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from micromaps.atlas import ALL_CODES
from micromaps.compose import ChartSpec, ColumnSpec, compose, plan_chart
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
from micromaps.table import (
    SERIES,
    Column,
    RegionTable,
    bind_series,
    column_extent,
    parse_number,
    parse_table,
    plain_numbers,
    resolve_ref,
    scalar_values,
    with_column,
)

from conftest import make_table


def test_parse_two_rows_one_column():
    table = parse_table("state,rate\nUT,86.4\nID,85.1\n", "state")
    assert table.codes() == ("ID", "UT")
    assert [c.name for c in table.columns] == ["rate"]
    assert table.rows["UT"]["rate"] == 86.4
    assert table.rows["ID"]["rate"] == 85.1


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
    ("state,state,x\nUT,UT,1\n", NameClash, "duplicate header names"),
    ("state,x,state\nUT,1,UT\n", NameClash, "duplicate header names"),
    ("state,a\nUT,1\nID,2,3\n", MissingColumn,
     "row wider than header at line 3"),
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


_REF_THOUSANDS = re.compile(r"^[+-]?\d{1,3}(,\d{3})+(\.\d*)?$")
_REF_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)$")
# The plain form: ASCII digits, one optional sign and at most one dot.
_PLAIN = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)")


def reference_parse_number(text: str) -> float | None:
    """parse_number as it was before it tried the plain form first."""
    t = text.strip()
    if t == "" or t == "NA":
        return None
    if t.endswith("%"):
        t = t[:-1].strip()
    if "," in t:
        if not _REF_THOUSANDS.match(t):
            raise ValueError(f"bad thousands grouping: {text!r}")
        t = t.replace(",", "")
    if not _REF_NUMBER.match(t):
        raise ValueError(f"not a number: {text!r}")
    value = float(t)
    if math.isinf(value):
        raise ValueError(f"number out of range: {text!r}")
    return value


def parse_outcome(parse, text: str) -> tuple[str, str]:
    """The value's repr (which tells -0.0 from 0.0) or the error text."""
    try:
        return "value", repr(parse(text))
    except ValueError as exc:
        return "error", str(exc)


# ASCII and Unicode decimal digits (Arabic-Indic, Devanagari, fullwidth,
# mathematical bold), signs, dots, "%", commas, spaces (no-break and tab
# among them), and the letters of NA, inf, nan, 1e5 and 1_0.
_CELL_CHARS = "0123456789\u0663\u096b\uff17\U0001d7d7+-.%, \t\u00a0\nNAinfaeE_"
_SPACES = st.text(" \t\u00a0\n", max_size=2)
_DIGITS = st.text("0123456789\u0663", min_size=1, max_size=6)
_CELLS = st.one_of(
    st.text(_CELL_CHARS, max_size=12),
    st.sampled_from(["NA", " NA ", "na", "inf", "-inf", "nan", "1e5", "1_0",
                     "Infinity", "%", ",", "."]),
    # Numbers as they are written: grouped or not, with a fraction and a
    # percent sign, padded with spaces.
    st.builds(lambda pre, sign, whole, frac, pct, post:
              f"{pre}{sign}{whole}{frac}{pct}{post}",
              _SPACES, st.sampled_from(["", "+", "-"]),
              st.one_of(_DIGITS, st.builds(
                  lambda head, groups: head + "".join("," + g for g in groups),
                  st.text("0123456789", min_size=1, max_size=3),
                  st.lists(st.text("0123456789", min_size=2, max_size=4),
                           min_size=1, max_size=3))),
              st.one_of(st.just(""), st.just("."), _DIGITS.map(".".__add__)),
              st.sampled_from(["", "%", " %"]), _SPACES),
    # 300 to 400 digits: a float holds 10**308 but not 10**309.
    st.builds(lambda sign, n, pct: sign + "9" * n + pct,
              st.sampled_from(["", "-", " +"]), st.integers(300, 400),
              st.sampled_from(["", "%"])),
)


@settings(max_examples=600)
@given(_CELLS)
@example("5\n")
@example("\u0663.5")
@example("1,234%")
@example("9" * 309)
@example("-0")
def test_parse_number_matches_the_reference(text):
    assert (parse_outcome(parse_number, text)
            == parse_outcome(reference_parse_number, text))


@settings(max_examples=300)
@given(st.lists(_CELLS, max_size=5))
@example(["1", "2.5", "-0", ".5", "+2."])
@example(["1", "9" * 309])
@example(["1\n2"])
@example(["1", ""])
@example(["", ""])
@example(["9" * 308, "9" * 308])
def test_plain_numbers_declines_or_matches_parse_number(cells):
    """plain_numbers, the one-step read of a row's cells, gives
    parse_number's values (repr tells -0.0 apart) or declines with None.
    It declines no row whose cells are each empty or a plain number, unless
    a value or their sum overflows."""
    numbers = plain_numbers(cells)
    if numbers is not None:
        assert repr(numbers) == repr([parse_number(cell) for cell in cells])
    elif all(cell == "" or _PLAIN.fullmatch(cell) for cell in cells):
        assert math.isinf(sum(float(cell) for cell in cells if cell))


def test_plain_numbers_reads_a_plain_column():
    assert repr(plain_numbers(["1", "-0", ".5", "+2.", "-3.25"])) == \
        "[1.0, -0.0, 0.5, 2.0, -3.25]"
    assert plain_numbers([]) == []
    # An empty cell is missing, as parse_number reads it.
    assert plain_numbers(["", "1", ""]) == [None, 1.0, None]
    # Each finite alone, but their sum is not: declined, and parse_number
    # then reads both.
    assert plain_numbers(["9" * 308, "9" * 308]) is None
    for cells in (["1", "NA"], ["1", " 2"], ["1e5"], ["1_0"], ["1.2.3"],
                  ["9" * 309], ["-"], ["."]):
        assert plain_numbers(cells) is None


def test_parse_table_names_the_first_bad_cell_in_header_order():
    for csv_text in ("state,a,b,c\nUT,1,x,y\n", "a,b,state,c\n1,x,UT,y\n"):
        with pytest.raises(CellParse) as info:
            parse_table(csv_text, "state")
        assert (info.value.row, info.value.column) == ("UT", "b")
        assert "not a number: 'x'" in str(info.value)


def test_parse_table_names_overflowing_cell():
    with pytest.raises(CellParse) as info:
        parse_table("state,a,b\nUT,1,2\nID,3," + "9" * 400 + "\n", "state")
    assert (info.value.row, info.value.column) == ("ID", "b")


_ROW_CELLS = st.sampled_from(["1", "-2.5", "", "NA", " 5 ", "1,234", "12%", "-",
                             ".", "1e5", "nan", "9" * 309, "-0", "\u0663.5"])


def reference_rows(rows: list[list[str]], names: list[str]):
    """Each row read cell by cell with parse_number, a short row padded
    with empty cells; or the CellParse of the first bad cell."""
    out = {}
    for code, cells in zip(ALL_CODES, rows):
        out[code] = row = {}
        for name, cell in zip(names, cells + [""] * len(names)):
            try:
                row[name] = parse_number(cell)
            except ValueError as exc:
                return CellParse(code, name, str(exc))
    return out


@settings(max_examples=300)
@given(st.lists(st.lists(_ROW_CELLS, max_size=4), min_size=1, max_size=4))
@example([["1", "9" * 309, "2"]])  # read cell by cell: out of range
@example([["9" * 308, "9" * 308]])  # each finite, their sum is not
@example([["1", "2", "3", "4"], ["-0"], []])  # padded with empty cells
@example([["1", "", "NA", "x"]])
def test_parse_table_reads_each_cell_as_parse_number(rows):
    """Whichever way a row is read, in one step or cell by cell, the table
    holds parse_number's values (repr tells -0.0 apart), or the first bad
    cell is told as a cell-by-cell read tells it."""
    names = ["a", "b", "c", "d"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["state", *names])
    writer.writerows([code, *cells] for code, cells in zip(ALL_CODES, rows))
    expected = reference_rows(rows, names)
    try:
        table = parse_table(out.getvalue(), "state")
    except CellParse as exc:
        assert isinstance(expected, CellParse)
        assert (exc.row, exc.column, str(exc)) == (
            expected.row, expected.column, str(expected))
        return
    assert repr({code: dict(row) for code, row in table.rows.items()}) == \
        repr(expected)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_table_rejects_non_finite_cells(bad):
    with pytest.raises(CellParse) as info:
        make_table({"UT": 1.0, "ID": bad})
    assert (info.value.row, info.value.column) == ("ID", "v")
    with pytest.raises(CellParse):
        with_column(make_table({"UT": 1.0}), (Column("w"), {"UT": bad}))
    with pytest.raises(CellParse) as info:
        with_column(make_table({"UT": 1.0}),
                    (Column("s", SERIES, ("2020", "2021")), {"UT": (None, bad)}))
    assert (info.value.row, info.value.column) == ("UT", "s:2021")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_new_column_cells_are_checked_and_named(bad):
    table = make_table({"UT": 1.0, "ID": 2.0})
    with pytest.raises(CellParse) as info:
        with_column(table, (Column("w"), {"UT": 3.0, "ID": bad}))
    assert (info.value.row, info.value.column) == ("ID", "w")
    assert repr(bad) in str(info.value)
    with pytest.raises(CellParse) as info:
        with_column(table, (Column("s", SERIES, ("2020", "2021", "2022")),
                            {"UT": (1.0, None, 2.0), "ID": (None, 1.0, bad)}))
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
    ("UT", None, MissingColumn,
     "row UT is a NoneType, not a mapping of column names to cells"),
    ("UT", ["v", "s"], MissingColumn,
     "row UT is a list, not a mapping of column names to cells"),
], ids=["no-cell", "cell-for-no-column", "unknown-key", "string",
        "int-too-large", "string-in-series", "list-series", "short-series",
        "none-row", "list-row"])
def test_direct_table_checks_keys_rows_and_cells(code, row, error, message):
    rows = _rows51()
    rows[code] = row
    with pytest.raises(error) as info:
        RegionTable(_COLUMNS, rows)
    assert str(info.value) == message
    with pytest.raises(error) as info:
        RegionTable(_COLUMNS, _rows51())._replace(rows=rows)
    assert str(info.value) == message


def test_direct_table_rows_must_be_a_mapping():
    rows = list(_rows51().items())
    message = "rows must map region codes to rows, got a list"
    with pytest.raises(UnknownRegion) as info:
        RegionTable(_COLUMNS, rows)
    assert str(info.value) == message
    with pytest.raises(UnknownRegion) as info:
        RegionTable(_COLUMNS, _rows51())._replace(rows=rows)
    assert str(info.value) == message


@pytest.mark.parametrize("columns, error, message", [
    ((Column("v"), Column("v")), NameClash, "column 'v' already exists"),
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


def reference_bind_series(table: RegionTable, column_names: list[str],
                          series_name: str) -> dict[str, dict[str, object]]:
    """bind_series's rows as it once built them, key by key."""
    bound = set(column_names)
    rows = {}
    for code, row in table.rows.items():
        new_row = {k: v for k, v in row.items() if k not in bound}
        new_row[series_name] = tuple(row[name] for name in column_names)
        rows[code] = new_row
    return rows


@settings(max_examples=100)
@given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6,
                unique=True), st.data())
def test_bind_series_matches_the_key_by_key_reference(names, data):
    """Rows whose keys come in any order; a binding of one column, of some
    or of all. Only the rows' key order may differ from the reference:
    a row is read by column name, and tables compare rows as mappings."""
    codes = data.draw(st.lists(st.sampled_from(ALL_CODES), min_size=1,
                               max_size=5, unique=True))
    cell = st.one_of(st.none(), st.sampled_from([0.0, -0.0]), st.floats(
        allow_nan=False, allow_infinity=False))
    rows = {code: {name: data.draw(cell)
                   for name in data.draw(st.permutations(names))}
            for code in codes}
    table = RegionTable(tuple(map(Column, names)), rows)
    binding = data.draw(st.permutations(names))
    binding = binding[:data.draw(st.integers(1, len(binding)))]
    bound = bind_series(table, binding, "s")
    assert bound == RegionTable(bound.columns, bound.rows)
    expected = reference_bind_series(table, binding, "s")
    assert {code: repr(sorted(row.items()))
            for code, row in bound.rows.items()} == \
        {code: repr(sorted(row.items())) for code, row in expected.items()}


def test_parse_quoted_fields_and_crlf():
    table = parse_table('state,"the rate"\r\nUT,"86.4"\r\n', "state")
    assert table.rows["UT"]["the rate"] == 86.4


def test_bind_series_two_periods():
    table = parse_table("state,2010,2011\nUT,97,96\nID,95,94\n", "state")
    bound = bind_series(table, ["2010", "2011"], "rr")
    col = bound.column("rr")
    assert col.kind == "series"
    assert col.periods == ("2010", "2011")
    assert bound.rows["UT"]["rr"] == (97.0, 96.0)
    assert bound.rows["ID"]["rr"] == (95.0, 94.0)


def test_bind_series_value_preservation_is_exact():
    table = parse_table("state,a,b\nUT,0.1,0.30000000000000004\n", "state")
    bound = bind_series(table, ["a", "b"], "s")
    assert bound.rows["UT"]["s"] == (0.1, 0.30000000000000004)


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


def _dot_plan(table, column="v", sort="v"):
    return plan_chart(ChartSpec("t", SortSpec(sort), (
        ColumnSpec("map"), ColumnSpec("legend"),
        ColumnSpec("dot", bindings={"value": column}))), table)


def test_plan_of_complete_table_has_no_findings(table51):
    plan = _dot_plan(table51)
    assert plan.absent == ()
    assert plan.warnings == ()
    assert [column.no_value for column in plan.columns] == [()] * 3


def test_plan_lists_a_region_with_no_row_as_absent(table51):
    rows = {c: r for c, r in table51.rows.items() if c != "DC"}
    plan = _dot_plan(RegionTable(table51.columns, rows))
    assert plan.absent == ("DC",)
    assert "DC" not in {row.region for band in plan.bands for row in band.rows}


def test_plan_lists_a_missing_cell_of_a_shown_column():
    plan = _dot_plan(make_table({"UT": 1.0, "ID": None}))
    assert plan.columns[2].no_value == ("ID",)
    assert plan.columns[0].no_value == plan.columns[1].no_value == ()


def test_plan_lists_a_series_only_when_every_period_is_missing():
    table = bind_series(parse_table("state,a,b\nUT,1,\nID,,\nWY,,3\n",
                                    "state"), ["a", "b"], "s")
    plan = plan_chart(ChartSpec("t", SortSpec("s:a"), (
        ColumnSpec("map"), ColumnSpec("legend"),
        ColumnSpec("timeseries", bindings={"series": "s"}))), table)
    assert plan.columns[2].no_value == ("ID",)


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
    extended = with_column(table51, (Column("w"), {"UT": 1.0}))
    assert extended.rows["UT"]["w"] == 1.0
    assert extended.rows["ID"]["w"] is None
    with pytest.raises(NameClash, match="^column 'w' already exists$"):
        with_column(extended, (Column("w"), {}))


def test_with_series_column_faults():
    table = parse_table("state,a\nUT,1\nID,2\n", "state")
    with pytest.raises(NameClash, match="^column 'a' already exists$"):
        with_column(table, (Column("a", SERIES, ("p",)), {}))
    with pytest.raises(SeriesMismatch,
                       match="^'s' for UT: 1 values, 2 periods$"):
        with_column(table, (Column("s", SERIES, ("p", "q")), {"UT": (1.0,)}))


def test_with_series_column_fills_a_missing_region():
    table = parse_table("state,a\nUT,1\nID,2\n", "state")
    extended = with_column(table, (Column("s", SERIES, ("p", "q")),
                                   {"UT": (1.0, None)}))
    assert extended.column("s") == Column("s", SERIES, ("p", "q"))
    assert extended.rows["UT"] == {"a": 1.0, "s": (1.0, None)}
    assert extended.rows["ID"] == {"a": 2.0, "s": (None, None)}


@pytest.mark.parametrize("column, values, error, message", [
    (Column("b", "bogus"), {"UT": 1.0}, MissingColumn,
     "column 'b' has kind 'bogus', not scalar or series"),
    (Column("s", SERIES, ("p", "q")), {"UT": [1.0, 2.0]}, SeriesMismatch,
     "'s' for UT: list, not a tuple"),
], ids=["unknown-kind", "list-series-cell"])
def test_with_column_checks_what_the_table_checks(column, values, error,
                                                  message):
    table = parse_table("state,a\nUT,1\nID,2\n", "state")
    with pytest.raises(error) as err:
        with_column(table, (column, values))
    assert str(err.value) == message


def test_with_column_checks_each_added_cell_once(monkeypatch):
    """The table's own cells were checked when it was made; only the
    added ones are checked again, each once."""
    table = bind_series(parse_table("state,a,b\nUT,1,2\nID,3,4\nWY,5,\n",
                                    "state"), ["b", "a"], "t")
    checked = []
    check_cell = RegionTable._check_cell

    def counting(code, column, value):
        checked.append((code, column.name))
        check_cell(code, column, value)

    monkeypatch.setattr(RegionTable, "_check_cell", staticmethod(counting))
    extended = with_column(table, (Column("w"), {"UT": 1.0}),
                           (Column("s", SERIES, ("p", "q")), {"ID": (2.0, None)}))
    assert sorted(checked) == sorted((code, name) for code in ("UT", "ID", "WY")
                                     for name in ("w", "s"))
    assert extended.rows["WY"] == {"t": (None, 5.0), "w": None, "s": (None, None)}


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


@settings(max_examples=60)
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
