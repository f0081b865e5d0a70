from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micromaps.errors import EmptySort, MissingColumn, SpecError
from micromaps.layout import (
    ASCENDING,
    DESCENDING,
    MEDIAN_SLOT,
    SortSpec,
    assign_colors,
    build_layout,
    order_regions,
    partition_groups,
)
from micromaps.regions import ALL_CODES

from conftest import full_table, make_table


def rank_walk_oracle(sizes: tuple[int, ...], median_index: int | None,
                     rank: int) -> tuple[int, int]:
    """Independent group/slot recomputation straight from the rank: walk the
    cumulative sizes until the rank falls inside a group.
    """
    start = 0
    for gi, size in enumerate(sizes):
        if rank < start + size:
            slot = MEDIAN_SLOT if gi == median_index else rank - start
            return gi, slot
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


@settings(max_examples=300, deadline=None)
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


def test_assign_colors_slots_in_rank_order():
    plan = partition_groups(5, 5)
    # Odd count of 5 means a singleton median in the middle: [2,1,2].
    assert plan.sizes == (2, 1, 2)
    group_of, slot_of = assign_colors(plan, ["A", "B", "C", "D", "E"])
    assert slot_of == {"A": 0, "B": 1, "C": MEDIAN_SLOT, "D": 0, "E": 1}
    assert group_of == {"A": 0, "B": 0, "C": 1, "D": 2, "E": 2}


def test_assign_colors_matches_rank_walk_oracle():
    table = full_table()
    layout = build_layout(table, SortSpec("v", DESCENDING))
    for rank, code in enumerate(layout.ranked):
        group, slot = rank_walk_oracle(layout.plan.sizes,
                                       layout.plan.median_group_index, rank)
        assert layout.group_of[code] == group, code
        assert layout.slot_of[code] == slot, code
    # Frozen from the walk: the 7th-ranked region (index 6) is group 1, slot 1.
    assert rank_walk_oracle(layout.plan.sizes, 5, 6) == (1, 1)
    assert layout.group_of[layout.ranked[6]] == 1
    assert layout.slot_of[layout.ranked[6]] == 1


def test_build_layout_51_complete(table51):
    layout = build_layout(table51, SortSpec("v", DESCENDING))
    assert layout.plan.sizes == (5, 5, 5, 5, 5, 1, 5, 5, 5, 5, 5)
    assert len(layout.ranked) == 51
    assert layout.unranked == ()
    assert set(layout.ranked) == set(ALL_CODES)
    median_code = layout.ranked[25]
    assert layout.slot_of[median_code] == MEDIAN_SLOT


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
    values = [table51.scalar(code, "v") for code in layout.ranked]
    assert values == sorted(values, reverse=True)


def test_layout_serialization_is_deterministic(table51):
    a = build_layout(table51, SortSpec("v"))
    b = build_layout(table51, SortSpec("v"))
    assert a.serialize() == b.serialize()
    assert a == b


def test_serialization_format():
    table = make_table({"UT": 2.0, "ID": 1.0, "AK": 3.0, "WY": None})
    layout = build_layout(table, SortSpec("v", DESCENDING))
    # Three ranked regions split as [1, 1, 1] with the middle one median.
    assert layout.serialize() == ("0,AK,0,0\n"
                                  "1,UT,1,M\n"
                                  "2,ID,2,0\n"
                                  "-1,WY,-1,-\n")


def test_slot_bijection_within_groups(table51):
    layout = build_layout(table51, SortSpec("v"))
    for gi, size in enumerate(layout.plan.sizes):
        members = layout.group_members(gi)
        slots = [layout.slot_of[c] for c in members]
        if gi == layout.plan.median_group_index:
            assert slots == [MEDIAN_SLOT]
        else:
            assert sorted(slots) == list(range(size))
