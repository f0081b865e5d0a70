"""Structural invariant checks over composed scenes.

These run as a gate before any demo chart is written and back the
acceptance suite: panel grids must be complete, every panel of a glyph
column must share one tick list, and each region must use one and only one
color across the legend, its own map panel, and every glyph mark. The
checks work on the emitted shapes, not on the inputs that produced them:
the color check indexes shapes by their region tags once, then finds each
panel's marks among its member regions' shapes by position.
"""

from collections import defaultdict

from .errors import MicromapError
from .scene import Circle, PanelInfo, Polygon, Polyline, Rect, Scene, Shape

# Which shape type and color attribute carry a region's linked color, per
# column kind. Secondary marks (whiskers, median ticks, outliers) share the
# region tag but encode no identity color, so they are excluded by type.
_COLOR_RULES: dict[str, tuple[type, str]] = {
    "legend": (Rect, "fill"),
    "map": (Polygon, "fill"),
    "dot": (Circle, "fill"),
    "bar": (Rect, "fill"),
    "arrow": (Polygon, "fill"),
    "boxplot": (Rect, "fill"),
    "scatter": (Circle, "fill"),
    "timeseries": (Polyline, "stroke"),
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


def _in_panel(shape: Shape, panel: PanelInfo, slack: float = 1.5) -> bool:
    if isinstance(shape, Rect):
        xs = (shape.x, shape.x + shape.width)
        ys = (shape.y, shape.y + shape.height)
    elif isinstance(shape, Circle):
        xs, ys = (shape.cx,), (shape.cy,)
    elif isinstance(shape, (Polygon, Polyline)):
        xs, ys = zip(*shape.points)
    else:
        return False
    return (min(xs) >= panel.x - slack and max(xs) <= panel.x + panel.width + slack
            and min(ys) >= panel.y - slack
            and max(ys) <= panel.y + panel.height + slack)


def _shapes_by_region(scene: Scene) -> dict[str, list[Shape]]:
    """Region-tagged shapes by region code, in paint order."""
    index: dict[str, list[Shape]] = defaultdict(list)
    for shape in scene.shapes:
        if shape.tag and shape.tag.startswith("region:"):
            index[shape.tag[len("region:"):]].append(shape)
    return index


def _panel_colors(index: dict[str, list[Shape]],
                  panel: PanelInfo) -> dict[str, str]:
    rule = _COLOR_RULES.get(panel.kind)
    if rule is None:
        return {}
    shape_type, attr = rule
    colors: dict[str, str] = {}
    for code, _ in panel.rows:
        shapes = index.get(code, ())
        for shape in shapes:
            if not isinstance(shape, shape_type) or not _in_panel(shape, panel):
                continue
            color = getattr(shape.style, attr)
            if color is None:
                continue
            previous = colors.get(code)
            if previous is not None and previous != color:
                raise MicromapError(
                    f"panel ({panel.kind}, group {panel.group_index}): "
                    f"{code} drawn in both {previous} and {color}")
            colors[code] = color
        # Time-series singleton runs fall back to dots; accept circles too.
        if panel.kind == "timeseries" and code not in colors:
            for shape in shapes:
                if (isinstance(shape, Circle) and shape.style.fill is not None
                        and _in_panel(shape, panel)):
                    colors[code] = shape.style.fill
                    break
    return colors


def region_colors_in_panel(scene: Scene, panel: PanelInfo) -> dict[str, str]:
    """The linked color each region shows inside one panel's marks."""
    return _panel_colors(_shapes_by_region(scene), panel)


def check_color_linkage(scene: Scene) -> dict[str, str]:
    """Each region must use exactly one color across all columns.

    Returns the region -> color mapping. Regions that never produced a
    colored mark (all values missing) are simply absent.
    """
    index = _shapes_by_region(scene)
    linked: dict[str, str] = {}
    for panel in scene.panels:
        for code, color in _panel_colors(index, panel).items():
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
