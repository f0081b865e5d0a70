"""Linked micromap charts for US state statistics.

The pipeline: CSV -> RegionTable -> LinkedLayout -> Scene -> SVG. See the
README for the chart anatomy and the CLI entry points.
"""

from .atlas import Atlas, load_atlas, load_default_atlas, render_minimap
from .colors import DEFAULT_PALETTE, Palette
from .compose import (ChartPlan, ChartSpec, ColumnSpec, compose, plan_chart,
                      render_legend_column)
from .errors import MicromapError
from .glyphs import BoxStats, compute_box_stats
from .layout import (
    GroupPlan,
    LinkedLayout,
    SortSpec,
    build_layout,
    order_regions,
    partition_groups,
)
from .scale import Scale, linear_scale
from .scene import Scene
from .svg import SvgOptions, emit_svg
from .table import (
    RegionTable,
    bind_series,
    column_extent,
    parse_table,
)

__all__ = [
    "Atlas",
    "BoxStats",
    "ChartPlan",
    "ChartSpec",
    "ClassBreaks",
    "ColumnSpec",
    "DEFAULT_PALETTE",
    "GroupPlan",
    "LinkedLayout",
    "MicromapError",
    "Palette",
    "RegionTable",
    "Scale",
    "Scene",
    "SortSpec",
    "SvgOptions",
    "bind_series",
    "build_layout",
    "column_extent",
    "compose",
    "compute_box_stats",
    "emit_svg",
    "linear_scale",
    "load_atlas",
    "load_default_atlas",
    "order_regions",
    "parse_table",
    "partition_groups",
    "plan_chart",
    "render_barchart_alpha",
    "render_choropleth",
    "render_legend_column",
    "render_minimap",
]

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    # The comparison baselines load on first use; a chart render needs none.
    if name in ("ClassBreaks", "render_barchart_alpha", "render_choropleth"):
        from . import altcharts
        return getattr(altcharts, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
