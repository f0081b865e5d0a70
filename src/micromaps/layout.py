"""Row ordering and perceptual grouping.

Regions are ranked by one statistic, split at the median into two halves
(the median region, when the count is odd, stands alone in its own group),
and each half is divided into contiguous groups of at most ``group_size``
regions. ``LinkedLayout.groups`` holds each group's regions in rank order.
The k-th region of a group takes color k of the palette (the median region
the median color), the same in every group, which is what links a region's
map shape, legend swatch, and glyph marks across the chart; compose gives
each band row its color.
"""

from itertools import accumulate
from typing import NamedTuple

from .errors import EmptySort, SpecError
from .table import RegionTable, scalar_values
from .values import value_type

ASCENDING = "ascending"
DESCENDING = "descending"


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
    groups: tuple[tuple[str, ...], ...]  # one per plan size, in rank order


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


def build_layout(table: RegionTable, spec: SortSpec,
                 group_size: int = 5) -> LinkedLayout:
    """Order the table's regions and cut the ranking into groups."""
    ranked, unranked = order_regions(table, spec)
    plan = partition_groups(len(ranked), group_size)
    groups = tuple(tuple(ranked[end - size:end]) for size, end
                   in zip(plan.sizes, accumulate(plan.sizes)))
    return LinkedLayout(tuple(ranked), tuple(unranked), plan, groups)
