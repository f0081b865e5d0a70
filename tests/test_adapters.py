from __future__ import annotations

import csv
import io
import json

import pytest

from micromaps import adapters
from micromaps.adapters import load_table, snapshot_text
from micromaps.atlas import ALL_CODES
from micromaps.cli import run
from micromaps.compose import plan_chart
from micromaps.config import RenderConfig, parse_config
from micromaps.demos import build_demo
from micromaps.errors import SnapshotError, SpecError
from micromaps.glyphs import compute_box_stats
from micromaps.layout import DESCENDING, SortSpec, order_regions
from micromaps.table import (
    SERIES,
    Column,
    parse_number,
    parse_table,
    scalar_values,
    with_column,
)

ERS_STATE_FILE = "ers_state_indicators.csv"
ERS_COUNTY_FILE = "ers_county_low_access_change.csv"


def test_acs_shape(acs_table):
    assert len(acs_table.rows) == 51
    series = acs_table.column("response_rate")
    assert series.kind == "series"
    assert len(series.periods) == 13
    assert series.periods[0] == "2010"
    assert series.periods[-1] == "2022"
    for code in acs_table.rows:
        assert len(acs_table.rows[code]["response_rate"]) == 13
    plan = plan_chart(build_demo("acs-dot")[0], acs_table)
    assert plan.absent == () and plan.warnings == ()
    assert all(column.no_value == () for column in plan.columns)


def test_acs_orderings_match_published_pattern(acs_table):
    ranked, unranked = order_regions(acs_table,
                                     SortSpec("response_rate:2022", DESCENDING))
    assert unranked == []
    assert ranked[:2] == ["UT", "ID"]
    assert ranked[-1] == "DC"


def test_qcew_shape(qcew_table):
    series = qcew_table.column("over_year_change")
    assert series.periods == ("2019Q4", "2020Q1", "2020Q2", "2020Q3",
                              "2020Q4", "2021Q1", "2021Q2", "2021Q3",
                              "2021Q4", "2022Q1")
    assert len(qcew_table.rows) == 51


def test_qcew_top_three_2020q1(qcew_table):
    ranked, _ = order_regions(qcew_table, SortSpec("over_year_change:2020Q1",
                                                  DESCENDING))
    assert set(ranked[:3]) == {"ID", "WY", "MT"}


def test_qcew_dc_has_largest_arrow(qcew_table):
    starts = scalar_values(qcew_table, "over_year_change:2020Q1")
    ends = scalar_values(qcew_table, "over_year_change:2022Q1")
    magnitudes = {code: abs(ends[code] - starts[code])
                  for code in qcew_table.rows}
    assert max(magnitudes, key=magnitudes.get) == "DC"


def test_ers_insecurity_change_positive_set(ers_table):
    changes = scalar_values(ers_table, "insecurity_change")
    positive = {code for code, v in changes.items() if v > 0}
    assert positive == {"NY", "NV", "PA", "ME"}
    assert max(changes, key=changes.get) == "NY"


def test_ers_store_access_extremes(ers_table):
    access = scalar_values(ers_table, "low_access_2015")
    assert max(access, key=access.get) == "AK"
    assert min(access, key=access.get) == "DC"


def test_ers_county_samples(ers_table):
    col = ers_table.column("county_access_change")
    assert col.kind == "series"
    dc = [v for v in ers_table.rows["DC"]["county_access_change"]
          if v is not None]
    assert len(dc) == 1
    tx = [v for v in ers_table.rows["TX"]["county_access_change"]
          if v is not None]
    assert len(tx) == 254


def test_ers_alaska_boxplot_is_right_skewed(ers_table):
    samples = [v for v in ers_table.rows["AK"]["county_access_change"]
               if v is not None]
    stats = compute_box_stats(samples)
    # Median hugs the bottom of the box: the long tail points up.
    assert stats.q3 - stats.median > 3.0 * (stats.median - stats.q1)
    assert stats.whisker_hi - stats.median > stats.median - stats.whisker_lo


def test_samples_block_matches_a_dict_reader_reference():
    samples: dict[str, list[float]] = {}
    for record in csv.DictReader(io.StringIO(snapshot_text(ERS_COUNTY_FILE))):
        samples.setdefault(record["state"], []).append(
            float(record["access_change_2010_2015"]))
    width = max(map(len, samples.values()))
    expected = with_column(
        parse_table(snapshot_text(ERS_STATE_FILE), "state"),
        (Column("county_access_change", SERIES,
                tuple(f"c{i:03d}" for i in range(1, width + 1))),
         {code: tuple(values) + (None,) * (width - len(values))
          for code, values in samples.items()}))
    # repr also pins the row order and the sign of every zero.
    assert repr(build_demo("ers-boxscatter")[1]) == repr(expected)


def _cell_by_cell(text: str, value: int) -> dict[str, tuple]:
    """A samples file's samples by region key, each cell read with
    parse_number: the reference the one-pass read is held to."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    samples: dict[str, list[float]] = {}
    for record in filter(None, reader):
        number = parse_number(record[value])
        found = samples.setdefault(record[0].strip(), [])
        if number is not None:
            found.append(number)
    return {key: tuple(values) for key, values in samples.items()}


def _loaded(table, name: str, keys) -> dict[str, tuple]:
    """A loaded series column's samples for each region key, in the order
    of ``keys``, without the missing cells that pad them."""
    return {key: tuple(v for v in table.rows[key][name] if v is not None)
            for key in keys}


def test_county_file_reads_alike_in_one_pass_and_cell_by_cell():
    """The bundled county file's loaded column is its cells read one by
    one with parse_number (repr also pins the region order and every
    zero's sign)."""
    text = snapshot_text(ERS_COUNTY_FILE)
    assert text.startswith("state,county,access_change_2010_2015\n")
    expected = _cell_by_cell(text, 2)
    assert len(expected) == 51
    loaded = _loaded(build_demo("ers-boxscatter")[1], "county_access_change",
                     expected)
    assert repr(loaded) == repr(expected)


def test_build_demo_reads_the_county_file_on_every_call(tmp_path):
    for name in (ERS_STATE_FILE, ERS_COUNTY_FILE):
        (tmp_path / name).write_text(snapshot_text(name))
    county = tmp_path / ERS_COUNTY_FILE
    _, before = build_demo("ers-boxscatter", tmp_path)
    county.write_text(county.read_text().replace("\nAK,AK-001,-1.2\n",
                                                 "\nAK,AK-001,-99.5\n"))
    _, after = build_demo("ers-boxscatter", tmp_path)
    assert before.rows["AK"]["county_access_change"][0] == -1.2
    assert after.rows["AK"]["county_access_change"][0] == -99.5


def test_missing_snapshot_dir(tmp_path):
    with pytest.raises(SnapshotError) as err:
        build_demo("acs-dot", tmp_path)
    assert err.value.missing
    assert "acs_response_rates.csv" in str(err.value)


def test_ill_formed_snapshot(tmp_path):
    (tmp_path / "acs_response_rates.csv").write_text("state,2010\nUT,abc\n")
    with pytest.raises(SnapshotError) as err:
        build_demo("acs-dot", tmp_path)
    assert not err.value.missing


def _config_text(**data) -> str:
    """A chart config over ``main.csv``, with the given data blocks."""
    return json.dumps({
        "title": "t", "sort": {"column": "v"},
        "data": {"path": "main.csv", "region_column": "state", **data},
        "columns": [{"kind": "map"}, {"kind": "legend"}]})


def _config(**data) -> RenderConfig:
    return parse_config(_config_text(**data))


def test_join_block_attaches_every_value_column(tmp_path):
    (tmp_path / "pew.csv").write_text("state,pro,con\nUtah,55,40\n")
    table = load_table(_config(join=[{"path": "pew.csv"}]),
                       "state,v\nUT,1\nDC,2\n", tmp_path)
    assert [column.name for column in table.columns] == ["v", "pro", "con"]
    assert table.rows["UT"]["pro"] == 55.0
    assert table.rows["UT"]["con"] == 40.0
    assert table.rows["DC"]["pro"] is None


@pytest.mark.parametrize("command", ["render", "validate"])
def test_join_rows_for_regions_not_in_the_data_file_are_refused(
        tmp_path, monkeypatch, capsys, command):
    """A join file's row for a region the data file lacks stops the load,
    named by its code, as a samples file's row does; a join file that
    covers only some of the data file's regions still loads."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "main.csv").write_text("state,v\nUT,1\nID,2\n")
    (tmp_path / "extra.csv").write_text("state,w\nUT,3\nWyoming,4\n")
    detail = "extra.csv: rows for regions not in the data file: WY"
    with pytest.raises(SnapshotError) as err:
        load_table(_config(join=[{"path": "extra.csv"}]),
                   "state,v\nUT,1\nID,2\n", tmp_path)
    assert str(err.value) == detail and not err.value.missing
    (tmp_path / "chart.json").write_text(
        _config_text(join=[{"path": "extra.csv"}]))
    assert run([command, "--config", "chart.json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"micromaps: error: {detail}\n"
    assert captured.out == ""
    assert not (tmp_path / "chart.svg").exists()
    (tmp_path / "extra.csv").write_text("state,w\nUT,3\n")
    with pytest.warns(UserWarning, match="sort column 'v' is not shown"):
        assert run([command, "--config", "chart.json", "--quiet"]) == 0
    table = load_table(_config(join=[{"path": "extra.csv"}]),
                       "state,v\nUT,1\nID,2\n", tmp_path)
    assert (table.rows["UT"]["w"], table.rows["ID"]["w"]) == (3.0, None)


def test_join_appends_each_file_in_one_call(tmp_path, monkeypatch):
    """One with_column call per join file, however wide, and the table it
    makes is the one that appending the columns one at a time makes."""
    names = [f"w{i:02d}" for i in range(80)]
    # Every region but the first, with a gap in every seventh cell.
    wide_text = "state," + ",".join(names) + "\n" + "".join(
        code + "," + ",".join("" if (i + j) % 7 == 0 else str(i * 0.5 - j)
                              for j in range(80)) + "\n"
        for i, code in enumerate(ALL_CODES[1:]))
    (tmp_path / "wide.csv").write_text(wide_text)
    (tmp_path / "narrow.csv").write_text("state,x\nUT,1\n")
    main = "state,v\n" + "".join(f"{code},{i}\n"
                                  for i, code in enumerate(ALL_CODES))
    calls = []

    def counted(table, *added):
        calls.append([column.name for column, _ in added])
        return with_column(table, *added)

    monkeypatch.setattr(adapters, "with_column", counted)
    table = load_table(_config(join=[{"path": "wide.csv"},
                                     {"path": "narrow.csv"}]), main, tmp_path)
    assert calls == [names, ["x"]]
    expected = parse_table(main, "state")
    wide = parse_table(wide_text, "state")
    for column in wide.columns:
        expected = with_column(expected,
                               (column, scalar_values(wide, column.name)))
    expected = with_column(expected, (Column("x"), {"UT": 1.0}))
    # repr also pins the column order, the row order and each key order.
    assert repr(table) == repr(expected)
    assert table.rows[ALL_CODES[0]]["w05"] is None


def test_samples_block_resolves_region_names(tmp_path):
    (tmp_path / "long.csv").write_text("region,x\nUtah,3\nDC,1\nUT,2\n")
    config = _config(region_column="region", samples=[
        {"name": "s", "path": "long.csv", "column": "x"}])
    table = load_table(config, "region,v\nUT,1\nDC,2\nAK,3\n", tmp_path)
    assert table.column("s").periods == ("c001", "c002")
    assert table.rows["UT"]["s"] == (3.0, 2.0)
    assert table.rows["DC"]["s"] == (1.0, None)
    assert table.rows["AK"]["s"] == (None, None)


SAMPLES = [{"name": "s", "path": "long.csv", "column": "x"}]


@pytest.mark.filterwarnings("ignore:sort column")
def test_samples_cells_are_read_as_data_cells(tmp_path, capsys):
    """A samples cell follows the data CSV's rule (table.parse_number):
    an empty or NA cell is a skipped sample, "%" and thousands separators
    are stripped, and the plain and stripped forms give the same floats."""
    (tmp_path / "long.csv").write_text(
        "state,x\nUT,1.5\nUT,NA\nUT,\nDC, 7 \nDC,-0\nUT,\"1,200\"\nAK,NA\n"
        "DC,3%\n")
    table = load_table(_config(samples=SAMPLES), "state,v\nUT,1\nDC,2\nAK,3\n",
                       tmp_path)
    assert table.column("s").periods == ("c001", "c002", "c003")
    assert table.rows["UT"]["s"] == (1.5, 1200.0, None)
    assert repr(table.rows["DC"]["s"]) == "(7.0, -0.0, 3.0)"
    assert table.rows["AK"]["s"] == (None, None, None)
    (tmp_path / "main.csv").write_text("state,v\nUT,1\nDC,2\nAK,3\n")
    (tmp_path / "chart.json").write_text(_config_text(samples=SAMPLES))
    assert run(["validate", "--config", str(tmp_path / "chart.json")]) == 0
    assert capsys.readouterr().err == ""


def test_samples_of_plain_and_empty_cells_skip_the_empty_ones(tmp_path):
    """A file of plain and empty cells is read in one step
    (table.plain_numbers); an NA cell sends it cell by cell. Either way an
    empty cell is a skipped sample."""
    for last in ("", "AK,NA\n"):
        (tmp_path / "long.csv").write_text(
            "state,x\nUT,\nUT,1.5\nDC,-0\nUT,\nDC,\nAK,\n" + last)
        table = load_table(_config(samples=SAMPLES),
                           "state,v\nUT,1\nDC,2\nAK,3\n", tmp_path)
        assert repr({code: row["s"] for code, row in table.rows.items()}) \
            == "{'UT': (1.5,), 'DC': (-0.0,), 'AK': (None,)}"


def test_samples_of_plain_and_other_cells_read_as_cell_by_cell(
        tmp_path, monkeypatch):
    """UT's cells are plain and ID's are not; the file is read once, to
    the values of the cell-by-cell reference."""
    text = ('state,x\nUT,1\nID,NA\nUT,-0\nID, 7 \nID,"1,234"\nUT,2.5\n'
            "ID,12%\n")
    (tmp_path / "long.csv").write_text(text)
    read, reader = [], csv.reader
    monkeypatch.setattr(csv, "reader",
                        lambda lines, **kw: read.append(lines.getvalue())
                        or reader(lines, **kw))
    table = load_table(_config(samples=SAMPLES), "state,v\nUT,1\nID,2\n",
                       tmp_path)
    assert read.count(text) == 1
    expected = _cell_by_cell(text, 1)
    assert repr(expected) == \
        "{'UT': (1.0, -0.0, 2.5), 'ID': (7.0, 1234.0, 12.0)}"
    assert repr(_loaded(table, "s", expected)) == repr(expected)


@pytest.mark.parametrize("cell, detail", [
    ("1_0", "not a number: '1_0' at line 4"),
    ("1e5", "not a number: '1e5' at line 4"),
    ("nan", "not a number: 'nan' at line 4"),
    ("-inf", "not a number: '-inf' at line 4"),
    ("9" * 400, f"number out of range: '{'9' * 400}' at line 4"),
    ('"1,2"', "bad thousands grouping: '1,2' at line 4"),
    # A quoted cell that spans lines is told at the line where it ends.
    ('"1\n2"', "not a number: '1\\n2' at line 5"),
])
def test_samples_cell_fault_names_the_file_and_line(tmp_path, capsys, cell,
                                                    detail):
    """A cell that parse_number refuses is its error at the cell's line."""
    (tmp_path / "long.csv").write_text(f"state,x\nUT,1\n\nUT,{cell}\nUT,2\n")
    with pytest.raises(SnapshotError) as err:
        load_table(_config(samples=SAMPLES), "state,v\nUT,1\n", tmp_path)
    assert str(err.value) == f"long.csv: {detail}"
    (tmp_path / "main.csv").write_text("state,v\nUT,1\n")
    (tmp_path / "chart.json").write_text(_config_text(samples=SAMPLES))
    assert run(["validate", "--config", str(tmp_path / "chart.json")]) == 1
    assert capsys.readouterr().err == f"micromaps: error: long.csv: {detail}\n"


@pytest.mark.parametrize("text, detail", [
    ("state,x\nUT,abc\nUT,1,2\n", "not a number: 'abc' at line 2"),
    ("state,x\nUT,1\nUT,1,2\nUT,abc\n", "row wider than header at line 3"),
    # The first bad cell in the file is not in the first region read.
    ("state,x\nUT,1\nID,abc\nUT,xyz\n", "not a number: 'abc' at line 3"),
    ("state,x\nUT,1\nID,abc\nUT,1,2\n", "not a number: 'abc' at line 3"),
    ("state,x\nUT,NA\nUT,\n", "no sample rows"),
    ("state,x\nUT,\nUT,\n", "no sample rows"),
])
def test_samples_file_tells_its_first_fault(tmp_path, text, detail):
    (tmp_path / "long.csv").write_text(text)
    with pytest.raises(SnapshotError) as err:
        load_table(_config(samples=SAMPLES), "state,v\nUT,1\n", tmp_path)
    assert str(err.value) == f"long.csv: {detail}"


@pytest.mark.parametrize("keys, detail", [
    ("AL WY ZZ", "rows for regions not in the data file: WY; "
                 "rows for unknown regions: 'ZZ'"),
    ("AL Wyoming AK", "rows for regions not in the data file: Wyoming"),
    ("ZZ AL QQ", "rows for unknown regions: 'QQ', 'ZZ'"),
])
def test_samples_rows_for_absent_and_unknown_regions_are_told_apart(
        tmp_path, capsys, keys, detail):
    (tmp_path / "long.csv").write_text(
        "state,x\n" + "".join(f"{key},1\n" for key in keys.split()))
    (tmp_path / "main.csv").write_text("state,v\nAL,1\nAK,2\n")
    samples = [{"name": "s", "path": "long.csv", "column": "x"}]
    with pytest.raises(SnapshotError) as err:
        load_table(_config(samples=samples), "state,v\nAL,1\nAK,2\n",
                   tmp_path)
    assert str(err.value) == f"long.csv: {detail}"
    (tmp_path / "chart.json").write_text(_config_text(samples=samples))
    assert run(["validate", "--config", str(tmp_path / "chart.json")]) == 1
    assert capsys.readouterr().err == f"micromaps: error: long.csv: {detail}\n"


@pytest.mark.parametrize("data, path", [
    ({"join": [{"path": "a.csv"}, {"path": "b.csv"}]}, "data.join[1]"),
    ({"join": [{"path": "b.csv"}]}, "data.join[0]"),
    ({"samples": [{"name": "v", "path": "long.csv", "column": "x"}]},
     "data.samples[0].name"),
])
def test_column_clash_is_an_error_at_its_block(tmp_path, data, path):
    (tmp_path / "a.csv").write_text("state,w\nUT,1\n")
    (tmp_path / "b.csv").write_text("state,v,w\nUT,2,3\n")
    (tmp_path / "long.csv").write_text("state,x\nUT,1\n")
    with pytest.raises(SpecError) as err:
        load_table(_config(**data), "state,v\nUT,1\n", tmp_path)
    assert err.value.path == path
    assert str(err.value).endswith("already exists")
