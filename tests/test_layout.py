from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micromaps.atlas import ALL_CODES
from micromaps.colors import DEFAULT_PALETTE
from micromaps.compose import NO_DATA_PANEL, ChartSpec, ColumnSpec, plan_chart
from micromaps.errors import EmptySort, MissingColumn, SpecError
from micromaps.layout import (
    ASCENDING,
    DESCENDING,
    LinkedLayout,
    SortSpec,
    build_layout,
    order_regions,
    partition_groups,
)

from conftest import make_table


def serialize(layout: LinkedLayout) -> str:
    """Canonical text form: one "rank,code,group,slot" line per region,
    unranked regions last with group -1 and slot "-". A group's k-th region
    has slot k; the median group's one region has slot "M".
    """
    lines = []
    ranked = [(gi, k, code) for gi, group in enumerate(layout.groups)
              for k, code in enumerate(group)]
    for rank, (gi, k, code) in enumerate(ranked):
        slot_text = "M" if gi == layout.plan.median_group_index else str(k)
        lines.append(f"{rank},{code},{gi},{slot_text}")
    for code in layout.unranked:
        lines.append(f"-1,{code},{NO_DATA_PANEL},-")
    return "\n".join(lines) + "\n"


def rank_walk_oracle(sizes: tuple[int, ...], median_index: int | None,
                     rank: int) -> tuple[int, str]:
    """Independent group/color recomputation straight from the rank: walk
    the cumulative sizes until the rank falls inside a group.
    """
    start = 0
    for gi, size in enumerate(sizes):
        if rank < start + size:
            return gi, (DEFAULT_PALETTE.median if gi == median_index
                        else DEFAULT_PALETTE.slots[rank - start])
        start += size
    raise AssertionError("rank beyond plan")


def test_order_descending():
    table = make_table({"UT": 86.0, "ID": 85.0, "DC": 60.0})
    ranked, unranked = order_regions(table, SortSpec("v", DESCENDING))
    assert ranked == ["UT", "ID", "DC"]
    assert unranked == []


def test_order_tie_breaks_by_code():
    table = make_table({"AL": 5.0, "AK": 5.0})
    ranked, _ = order_regions(table, SortSpec("v", DESCENDING))
    assert ranked == ["AK", "AL"]
    ranked, _ = order_regions(table, SortSpec("v", ASCENDING))
    assert ranked == ["AK", "AL"]


def test_order_missing_values_go_unranked_in_code_order():
    table = make_table({"UT": 1.0, "WY": None, "AK": None})
    ranked, unranked = order_regions(table, SortSpec("v"))
    assert ranked == ["UT"]
    assert unranked == ["AK", "WY"]


def test_order_all_missing():
    with pytest.raises(EmptySort):
        order_regions(make_table({"UT": None}), SortSpec("v"))


def test_order_missing_column():
    with pytest.raises(MissingColumn):
        order_regions(make_table({"UT": 1.0}), SortSpec("nope"))


def test_bad_direction_is_spec_error(table51):
    for direction in ("sideways", 7):
        with pytest.raises(SpecError) as err:
            build_layout(table51, SortSpec("v", direction))
        assert err.value.path == "sort.direction"


def test_group_size_below_one_is_spec_error(table51):
    for size in (0, -3):
        with pytest.raises(SpecError) as err:
            build_layout(table51, SortSpec("v"), size)
        assert err.value.path == "group_size"


def test_partition_51_regions():
    plan = partition_groups(51, 5)
    assert plan.sizes == (5, 5, 5, 5, 5, 1, 5, 5, 5, 5, 5)
    assert plan.median_group_index == 5


def test_partition_single_region():
    plan = partition_groups(1, 5)
    assert plan.sizes == (1,)
    assert plan.median_group_index == 0


def test_partition_13_regions():
    plan = partition_groups(13, 5)
    assert plan.sizes == (3, 3, 1, 3, 3)
    assert plan.median_group_index == 2


def test_partition_rejects_zero():
    with pytest.raises(EmptySort):
        partition_groups(0, 5)


@settings(max_examples=300)
@given(n=st.integers(1, 200), group_size=st.integers(1, 8))
def test_partition_properties(n, group_size):
    plan = partition_groups(n, group_size)
    assert sum(plan.sizes) == n
    assert max(plan.sizes) <= group_size or plan.sizes == (1,)
    assert plan.sizes == tuple(reversed(plan.sizes))
    if n % 2 == 1:
        mi = plan.median_group_index
        assert mi is not None and plan.sizes[mi] == 1
        assert mi == len(plan.sizes) // 2
    else:
        assert plan.median_group_index is None
    # Larger groups sit toward the extremes of each half.
    half = plan.sizes[:len(plan.sizes) // 2]
    assert list(half) == sorted(half, reverse=True)


@pytest.mark.parametrize("unranked", [0, 3])
@pytest.mark.parametrize("group_size", [1, 2, 3, 4, 5])
def test_band_rows_match_rank_walk_oracle(group_size, unranked):
    """Every band row's color, walked from its rank: slot k for the k-th
    region of a ranked group, the median color for the median region and
    the no-data color below; the bands' regions, in order, are the ranking
    and then the unranked regions. 51 ranked regions at most, 48 beside 3
    unranked."""
    spec = ChartSpec("t", SortSpec("v"),
                     (ColumnSpec("map"), ColumnSpec("legend")),
                     group_size=group_size)
    for n in range(1, len(ALL_CODES) - unranked + 1):
        codes = ALL_CODES[:n + unranked]
        values = {code: (float(n - i) if i < n else None)
                  for i, code in enumerate(codes)}
        chart_plan = plan_chart(spec, make_table(values))
        layout = chart_plan.layout
        assert layout.ranked == codes[:n]
        rows = [(band.group_index, row) for band in chart_plan.bands
                for row in band.rows]
        assert [row.region for _, row in rows] == [
            *layout.ranked, *sorted(codes[n:])]
        for rank, (group, row) in enumerate(rows):
            expected = ((NO_DATA_PANEL, DEFAULT_PALETTE.no_data)
                        if rank >= n else rank_walk_oracle(
                            layout.plan.sizes,
                            layout.plan.median_group_index, rank))
            assert (group, row.color) == expected, (n, rank)


def test_groups_cut_the_ranking_in_rank_order(table51):
    layout = build_layout(table51, SortSpec("v", DESCENDING))
    assert tuple(map(len, layout.groups)) == layout.plan.sizes
    assert tuple(code for group in layout.groups
                 for code in group) == layout.ranked
    # Frozen from the walk: the 7th-ranked region (index 6) is group 1, slot 1.
    assert rank_walk_oracle(layout.plan.sizes, 5, 6) == (
        1, DEFAULT_PALETTE.slots[1])
    assert layout.groups[1][1] == layout.ranked[6]


def test_build_layout_51_complete(table51):
    layout = build_layout(table51, SortSpec("v", DESCENDING))
    assert layout.plan.sizes == (5, 5, 5, 5, 5, 1, 5, 5, 5, 5, 5)
    assert len(layout.ranked) == 51
    assert layout.unranked == ()
    assert set(layout.ranked) == set(ALL_CODES)
    assert layout.groups[layout.plan.median_group_index] == (
        layout.ranked[25],)


def test_build_layout_even_after_dropping_dc(table51):
    values = {code: (None if code == "DC" else float(i))
              for i, code in enumerate(sorted(table51.rows))}
    layout = build_layout(make_table(values), SortSpec("v"))
    assert layout.plan.sizes == (5,) * 10
    assert layout.plan.median_group_index is None
    assert layout.unranked == ("DC",)


def test_reversal_symmetry(table51):
    descending = build_layout(table51, SortSpec("v", DESCENDING))
    ascending = build_layout(table51, SortSpec("v", ASCENDING))
    assert ascending.ranked == tuple(reversed(descending.ranked))


def test_monotone_linkage(table51):
    layout = build_layout(table51, SortSpec("v", DESCENDING))
    values = [table51.rows[code]["v"] for code in layout.ranked]
    assert values == sorted(values, reverse=True)


def test_layout_serialization_is_deterministic(table51):
    a = build_layout(table51, SortSpec("v"))
    b = build_layout(table51, SortSpec("v"))
    assert serialize(a) == serialize(b)
    assert a == b


def test_serialization_format():
    table = make_table({"UT": 2.0, "ID": 1.0, "AK": 3.0, "WY": None})
    layout = build_layout(table, SortSpec("v", DESCENDING))
    # Three ranked regions split as [1, 1, 1] with the middle one median.
    assert serialize(layout) == ("0,AK,0,0\n"
                                 "1,UT,1,M\n"
                                 "2,ID,2,0\n"
                                 "-1,WY,-1,-\n")


def test_slot_bijection_within_groups(table51):
    """Each ranked band's rows take distinct slot colors, from slot 0 on."""
    spec = ChartSpec("t", SortSpec("v"),
                     (ColumnSpec("map"), ColumnSpec("legend")))
    chart_plan = plan_chart(spec, table51)
    for band, group in zip(chart_plan.bands, chart_plan.layout.groups,
                           strict=True):
        assert tuple(row.region for row in band.rows) == group
        colors = [row.color for row in band.rows]
        if band.is_median:
            assert colors == [DEFAULT_PALETTE.median]
        else:
            assert colors == list(DEFAULT_PALETTE.slots[:len(group)])
