from __future__ import annotations

import csv
import io
import json

import pytest

from micromaps.adapters import load_table, snapshot_text
from micromaps.config import RenderConfig, parse_config
from micromaps.demos import build_demo
from micromaps.errors import SnapshotError, SpecError
from micromaps.glyphs import compute_box_stats
from micromaps.layout import DESCENDING, SortSpec, order_regions
from micromaps.table import (
    parse_table,
    scalar_values,
    validate_regions,
    with_series_column,
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
        assert len(acs_table.series(code, "response_rate")) == 13
    assert validate_regions(acs_table).clean()


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
    dc = [v for v in ers_table.series("DC", "county_access_change")
          if v is not None]
    assert len(dc) == 1
    tx = [v for v in ers_table.series("TX", "county_access_change")
          if v is not None]
    assert len(tx) == 254


def test_ers_alaska_boxplot_is_right_skewed(ers_table):
    samples = [v for v in ers_table.series("AK", "county_access_change")
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
    expected = with_series_column(
        parse_table(snapshot_text(ERS_STATE_FILE), "state"),
        "county_access_change",
        tuple(f"c{i:03d}" for i in range(1, width + 1)),
        {code: values + [None] * (width - len(values))
         for code, values in samples.items()})
    # repr also pins the row order and the sign of every zero.
    assert repr(build_demo("ers-boxscatter")[1]) == repr(expected)


def test_build_demo_reads_the_county_file_on_every_call(tmp_path):
    for name in (ERS_STATE_FILE, ERS_COUNTY_FILE):
        (tmp_path / name).write_text(snapshot_text(name))
    county = tmp_path / ERS_COUNTY_FILE
    _, before = build_demo("ers-boxscatter", tmp_path)
    county.write_text(county.read_text().replace("\nAK,AK-001,-1.2\n",
                                                 "\nAK,AK-001,-99.5\n"))
    _, after = build_demo("ers-boxscatter", tmp_path)
    assert before.series("AK", "county_access_change")[0] == -1.2
    assert after.series("AK", "county_access_change")[0] == -99.5


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


def test_snapshot_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MICROMAP_DATA_DIR", str(tmp_path))
    with pytest.raises(SnapshotError):
        snapshot_text("acs_response_rates.csv")


def _config(**data) -> RenderConfig:
    """A chart config over ``main.csv``, with the given data blocks."""
    return parse_config(json.dumps({
        "title": "t", "sort": {"column": "v"},
        "data": {"path": "main.csv", "region_column": "state", **data},
        "columns": [{"kind": "map"}, {"kind": "legend"}]}))


def test_join_block_attaches_every_value_column(tmp_path):
    (tmp_path / "pew.csv").write_text("state,pro,con\nUtah,55,40\n")
    table = load_table(_config(join=[{"path": "pew.csv"}]),
                       "state,v\nUT,1\nDC,2\n", tmp_path)
    assert [column.name for column in table.columns] == ["v", "pro", "con"]
    assert table.scalar("UT", "pro") == 55.0
    assert table.scalar("UT", "con") == 40.0
    assert table.scalar("DC", "pro") is None


def test_samples_block_resolves_region_names(tmp_path):
    (tmp_path / "long.csv").write_text("region,x\nUtah,3\nDC,1\nUT,2\n")
    config = _config(region_column="region", samples=[
        {"name": "s", "path": "long.csv", "column": "x"}])
    table = load_table(config, "region,v\nUT,1\nDC,2\nAK,3\n", tmp_path)
    assert table.column("s").periods == ("c001", "c002")
    assert table.series("UT", "s") == (3.0, 2.0)
    assert table.series("DC", "s") == (1.0, None)
    assert table.series("AK", "s") == (None, None)


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
