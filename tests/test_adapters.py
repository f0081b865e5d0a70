from __future__ import annotations

import pytest

from micromaps.adapters import acs_adapter, join_scalar_csv, snapshot_text
from micromaps.errors import SnapshotError
from micromaps.glyphs import compute_box_stats
from micromaps.layout import DESCENDING, SortSpec, order_regions
from micromaps.table import scalar_values, validate_regions


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


def test_acs_decline_definition(acs_table):
    first = scalar_values(acs_table, "response_rate:2010")
    last = scalar_values(acs_table, "response_rate:2022")
    decline = scalar_values(acs_table, "decline_2010_2022")
    for code in acs_table.rows:
        assert decline[code] == first[code] - last[code]


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


def test_missing_snapshot_dir(tmp_path):
    with pytest.raises(SnapshotError) as err:
        acs_adapter(tmp_path)
    assert err.value.missing
    assert "acs_response_rates.csv" in str(err.value)


def test_ill_formed_snapshot(tmp_path):
    (tmp_path / "acs_response_rates.csv").write_text("state,2010\nUT,abc\n")
    with pytest.raises(SnapshotError) as err:
        acs_adapter(tmp_path)
    assert not err.value.missing


def test_snapshot_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MICROMAP_DATA_DIR", str(tmp_path))
    with pytest.raises(SnapshotError):
        snapshot_text("acs_response_rates.csv")


def test_join_scalar_csv(acs_table):
    joined = join_scalar_csv(acs_table, "state,pro_small_government\nUT,55\n",
                             "state", "pro_small_government")
    assert joined.scalar("UT", "pro_small_government") == 55.0
    assert joined.scalar("DC", "pro_small_government") is None
