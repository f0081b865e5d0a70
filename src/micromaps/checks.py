"""Structural invariant checks over composed scenes.

These run as a gate before any chart is written and back the acceptance
suite: panel grids must be complete, every panel of a glyph column must
share one tick list, and each region must use one and only one color
across the legend, its own map panel, and every glyph mark. The checks
work on the emitted shapes, not on the inputs that produced them: the
color check reads each panel's marks through the indices the composer
recorded in ``PanelInfo.marks``.
"""

from collections import defaultdict

from .errors import MicromapError
from .scene import Circle, Line, PanelInfo, Polygon, Polyline, Rect, Scene

# Which shape types and color attributes carry a region's linked color, per
# column kind. Secondary marks (whiskers, median ticks, outliers) share the
# region tag but encode no identity color, so they are excluded by type.
_COLOR_RULES: dict[str, dict[type, str]] = {
    "legend": {Rect: "fill"},
    "map": {Polygon: "fill"},
    "dot": {Circle: "fill"},
    "bar": {Rect: "fill"},
    "arrow": {Polygon: "fill", Line: "stroke"},
    "boxplot": {Rect: "fill"},
    "scatter": {Circle: "fill"},
    # A one-period run of a series is drawn as a dot.
    "timeseries": {Polyline: "stroke", Circle: "fill"},
}


def panels_by_column(scene: Scene) -> dict[int, list[PanelInfo]]:
    grid: dict[int, list[PanelInfo]] = defaultdict(list)
    for panel in scene.panels:
        grid[panel.column_index].append(panel)
    return dict(grid)


def check_panel_grid(scene: Scene) -> int:
    """Every column must have the same number of panels; returns it."""
    grid = panels_by_column(scene)
    if not grid:
        raise MicromapError("scene has no panel metadata")
    counts = {ci: len(panels) for ci, panels in grid.items()}
    if len(set(counts.values())) != 1:
        raise MicromapError(f"uneven panel grid: {counts}")
    return next(iter(counts.values()))


def check_shared_scales(scene: Scene) -> None:
    """All panels of a column must report identical domains and ticks."""
    for ci, panels in panels_by_column(scene).items():
        for attr in ("x_domain", "x_ticks", "y_domain", "y_ticks"):
            values = {getattr(p, attr) for p in panels}
            if len(values) != 1:
                raise MicromapError(
                    f"column {ci}: panels disagree on {attr}: {values}")


def region_colors_in_panel(scene: Scene, panel: PanelInfo) -> dict[str, str]:
    """The linked color each member region shows in the panel's marks.

    Reads only the shapes the composer recorded as the panel's marks;
    raises MicromapError when a region's marks there disagree.
    """
    rule = _COLOR_RULES[panel.kind]
    members = {code for code, _ in panel.rows}
    colors: dict[str, str] = {}
    for i in panel.marks:
        shape = scene.shapes[i]
        attr = rule.get(type(shape))
        tag = shape.tag
        if attr is None or not tag or not tag.startswith("region:"):
            continue
        code = tag[len("region:"):]
        if code not in members:
            continue
        color = getattr(shape.style, attr)
        previous = colors.setdefault(code, color)
        if previous != color:
            raise MicromapError(
                f"panel ({panel.kind}, group {panel.group_index}): "
                f"{code} drawn in both {previous} and {color}")
    return colors


def check_color_linkage(scene: Scene) -> dict[str, str]:
    """Each region must use exactly one color across all columns.

    Returns the region -> color mapping. Regions that never produced a
    colored mark (all values missing) are simply absent.
    """
    linked: dict[str, str] = {}
    for panel in scene.panels:
        for code, color in region_colors_in_panel(scene, panel).items():
            previous = linked.get(code)
            if previous is not None and previous != color:
                raise MicromapError(
                    f"{code}: color {color} in ({panel.kind}, group "
                    f"{panel.group_index}) but {previous} elsewhere")
            linked[code] = color
    return linked


def check_chart(scene: Scene) -> None:
    """The full pre-write gate for rendered charts."""
    check_panel_grid(scene)
    check_shared_scales(scene)
    check_color_linkage(scene)
