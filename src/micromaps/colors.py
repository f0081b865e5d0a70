"""Color constants and palettes.

Slot colors follow the Okabe-Ito colorblind-safe set; the median region is
always drawn in black so it reads as the pivot of the sort.
"""

from typing import NamedTuple

from .values import value_type

SLOT_COLORS = ("#D55E00", "#0072B2", "#009E73", "#CC79A7", "#E69F00")
MEDIAN_COLOR = "#000000"
NO_DATA_COLOR = "#999999"
CONTEXT_FILL = "#D9D9D9"
CUMULATIVE_TINT = "#FFE9B3"
CONTEXT_POINT = "#B3B3B3"
GUIDE_COLOR = "#DDDDDD"
AXIS_COLOR = "#444444"
TEXT_COLOR = "#222222"
SEPARATOR_COLOR = "#555555"

# Sequential ramp for choropleth class colors (light to dark).
SEQUENTIAL_RAMP = (
    "#FFFFD9", "#EDF8B1", "#C7E9B4", "#7FCDBB", "#41B6C4",
    "#1D91C0", "#225EA8", "#253494", "#081D58",
)


@value_type
class Palette(NamedTuple):
    """The five linked slot colors plus the median and no-data colors."""

    slots: tuple[str, str, str, str, str] = SLOT_COLORS
    median: str = MEDIAN_COLOR
    no_data: str = NO_DATA_COLOR


DEFAULT_PALETTE = Palette()


def sequential_colors(k: int) -> tuple[str, ...]:
    """Pick ``k`` evenly spaced colors from the sequential ramp (k <= 9)."""
    if k == 1:
        return (SEQUENTIAL_RAMP[4],)
    step = (len(SEQUENTIAL_RAMP) - 1) / (k - 1)
    return tuple(SEQUENTIAL_RAMP[round(i * step)] for i in range(k))
