"""Linked micromap charts for US state statistics.

The pipeline: CSV -> RegionTable -> LinkedLayout -> Scene -> check gate ->
SVG. ``__all__`` is exactly what README's Python API section imports from
the package; every other helper is imported from its own module. See the
README for the chart anatomy and the CLI entry points.
"""

from .atlas import Atlas, load_atlas, load_default_atlas, render_minimap
from .checks import check_chart
from .colors import Palette
from .compose import (ChartPlan, ChartSpec, ColumnSpec, compose, plan_chart,
                      render_legend_column)
from .errors import MicromapError
from .glyphs import BoxStats, compute_box_stats
from .layout import LinkedLayout, SortSpec
from .scale import Scale
from .scene import Scene
from .svg import SvgOptions, emit_svg
from .table import RegionTable, bind_series, parse_table

__all__ = [
    "Atlas",
    "BoxStats",
    "ChartPlan",
    "ChartSpec",
    "ClassBreaks",
    "ColumnSpec",
    "LinkedLayout",
    "MicromapError",
    "Palette",
    "RegionTable",
    "Scale",
    "Scene",
    "SortSpec",
    "SvgOptions",
    "bind_series",
    "check_chart",
    "compose",
    "compute_box_stats",
    "emit_svg",
    "load_atlas",
    "load_default_atlas",
    "parse_table",
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
