"""Row ordering, perceptual grouping, and linked color slots.

Regions are ranked by one statistic, split at the median into two halves
(the median region, when the count is odd, stands alone in its own group),
and each half is divided into contiguous groups of at most ``group_size``
regions. Within a group every region gets a distinct color slot; the same
slot colors repeat in every group, which is what links a region's map
shape, legend swatch, and glyph marks across the chart.
"""

from typing import NamedTuple

from .errors import EmptySort, MicromapError, SpecError
from .table import RegionTable, scalar_values
from .values import value_type

ASCENDING = "ascending"
DESCENDING = "descending"

# Slot index reserved for the median region; plain slots are 0..4.
MEDIAN_SLOT = -1


@value_type
class SortSpec(NamedTuple):
    column: str
    direction: str = DESCENDING


@value_type
class GroupPlan(NamedTuple):
    sizes: tuple[int, ...]
    median_group_index: int | None


@value_type
class LinkedLayout(NamedTuple):
    ranked: tuple[str, ...]
    unranked: tuple[str, ...]
    plan: GroupPlan
    group_of: dict[str, int]
    slot_of: dict[str, int]

    def group_members(self, group_index: int) -> tuple[str, ...]:
        start = sum(self.plan.sizes[:group_index])
        return self.ranked[start:start + self.plan.sizes[group_index]]


def order_regions(table: RegionTable, spec: SortSpec) -> tuple[list[str], list[str]]:
    """Rank regions by the sort column; ties break by USPS code ascending.

    Regions whose sort value is missing are excluded from the ranking and
    returned separately in code order.
    """
    if spec.direction not in (ASCENDING, DESCENDING):
        raise SpecError("sort.direction", f"must be one of {ASCENDING}, "
                                          f"{DESCENDING}; got {spec.direction!r}")
    values = scalar_values(table, spec.column)
    ranked_codes = [c for c in sorted(values) if values[c] is not None]
    unranked = [c for c in sorted(values) if values[c] is None]
    if not ranked_codes:
        raise EmptySort(f"no region has a value in {spec.column!r}")
    reverse = spec.direction == DESCENDING
    if reverse:
        ranked_codes.sort(key=lambda c: (-values[c], c))  # type: ignore[operator]
    else:
        ranked_codes.sort(key=lambda c: (values[c], c))
    return ranked_codes, unranked


def _split_half(h: int, group_size: int) -> list[int]:
    # Contiguous groups whose sizes differ by at most one, larger first.
    if h == 0:
        return []
    m = -(-h // group_size)
    base, extra = divmod(h, m)
    return [base + 1] * extra + [base] * (m - extra)


def partition_groups(n: int, group_size: int = 5) -> GroupPlan:
    """Plan the perceptual groups for ``n`` ranked regions.

    Odd ``n``: the middle region forms a singleton median group and each
    half of (n-1)/2 splits into near-equal groups, larger groups toward the
    chart's extremes, the lower half mirroring the upper. Even ``n``: no
    median group, same mirrored split of the two halves.
    """
    if n <= 0:
        raise EmptySort("cannot partition zero regions")
    if group_size < 1:
        raise SpecError("group_size", "must be >= 1")
    if n % 2 == 1:
        upper = _split_half((n - 1) // 2, group_size)
        sizes = upper + [1] + list(reversed(upper))
        return GroupPlan(tuple(sizes), len(upper))
    upper = _split_half(n // 2, group_size)
    return GroupPlan(tuple(upper + list(reversed(upper))), None)


def assign_colors(plan: GroupPlan, ranked: list[str] | tuple[str, ...],
                  ) -> tuple[dict[str, int], dict[str, int]]:
    """Map each ranked region to its group index and color slot.

    Within a non-median group the k-th region in rank order takes slot k;
    the median region takes the dedicated median slot.
    """
    if sum(plan.sizes) != len(ranked):
        raise MicromapError("plan does not cover the ranked regions")
    group_of: dict[str, int] = {}
    slot_of: dict[str, int] = {}
    pos = 0
    for gi, size in enumerate(plan.sizes):
        for k in range(size):
            code = ranked[pos]
            group_of[code] = gi
            slot_of[code] = MEDIAN_SLOT if gi == plan.median_group_index else k
            pos += 1
    return group_of, slot_of


def build_layout(table: RegionTable, spec: SortSpec,
                 group_size: int = 5) -> LinkedLayout:
    """Order, partition, and color-link the table's regions."""
    ranked, unranked = order_regions(table, spec)
    plan = partition_groups(len(ranked), group_size)
    group_of, slot_of = assign_colors(plan, ranked)
    return LinkedLayout(tuple(ranked), tuple(unranked), plan, group_of, slot_of)
