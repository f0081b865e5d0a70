"""The pre-write gate: each region shows one color across the chart.

A linked micromap ties a region's map shape, legend swatch and glyph marks
together by one color, so that link is what the gate checks. It reads the
emitted shapes, not the inputs that produced them, through the indices the
composer recorded in each panel's ``PanelInfo.marks``. Among them, a shape
whose full tag is ``region:XX`` for a member region XX of the panel shows
XX's linked color: its fill, or its stroke when it has no fill. Each mark
is matched to its region by one lookup of that whole tag. A scene without
panels (a comparison baseline) has no link to check and passes.
"""

from .errors import MicromapError
from .scene import PanelInfo, Scene


def region_colors_in_panel(scene: Scene, panel: PanelInfo) -> dict[str, str]:
    """The linked color each member region shows in the panel's marks.

    Raises MicromapError when a region's marks there disagree.
    """
    members = {"region:" + code: code for code, _ in panel.rows}
    colors: dict[str, str] = {}
    for shape in scene.shapes[panel.marks.start:panel.marks.stop]:
        code = members.get(shape.tag)
        if code is None:
            continue
        fill = shape.style.fill
        color = shape.style.stroke if fill is None or fill == "none" else fill
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
    """The pre-write gate for rendered charts: the color link."""
    check_color_linkage(scene)
