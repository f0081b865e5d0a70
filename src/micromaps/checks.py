"""The pre-write gate: each linked mark shows its row's color.

A linked micromap ties a region's map shape, legend swatch and glyph marks
together by one color, so that link is what the gate checks. It reads the
emitted shapes, not the inputs that produced them, through the indices the
composer recorded in each panel's ``PanelInfo.marks``. Among them, a shape
whose full tag is ``region:XX`` for a row XX of the panel's frame shows the
row's color: its fill, or its stroke when it has no fill. A region's row
has one color in every frame, so a region that passes shows one color
across the chart. A scene without panels (a comparison baseline) has no
link to check and passes.
"""

from .errors import MicromapError
from .scene import PanelInfo, RowBand, Scene


def _name(panel: PanelInfo) -> str:
    return f"panel ({panel.kind}, group {panel.group_index})"


def check_color_linkage(scene: Scene) -> dict[str, str]:
    """Each region's rows must have one color, and each region-tagged mark
    must show its row's color.

    Returns the region -> color mapping. Regions that never produced a
    colored mark (all values missing) are simply absent.
    """
    linked: dict[str, str] = {}
    first: dict[str, tuple[str, PanelInfo]] = {}  # a region's first row color
    tagged: dict[int, dict[str, RowBand]] = {}  # by the id of a rows tuple
    for panel in scene.panels:
        rows = tagged.get(id(panel.frame.rows))
        if rows is None:  # a band's panels share one rows tuple: check it once
            rows = tagged[id(panel.frame.rows)] = {
                "region:" + row.region: row for row in panel.frame.rows}
            for row in panel.frame.rows:
                color, there = first.setdefault(row.region, (row.color, panel))
                if color != row.color:
                    raise MicromapError(f"{row.region}: row color {row.color} "
                                        f"in {_name(panel)}, {color} in "
                                        f"{_name(there)}")
        for shape in scene.shapes[panel.marks.start:panel.marks.stop]:
            row = rows.get(shape.tag)
            if row is None:
                continue
            fill = shape.style.fill
            color = shape.style.stroke if fill is None or fill == "none" else fill
            if color != row.color:
                raise MicromapError(f"{_name(panel)}: {row.region} drawn in "
                                    f"{color}, not its row's {row.color}")
            linked[row.region] = color
    return linked


def check_chart(scene: Scene) -> None:
    """The pre-write gate for rendered charts: the color link."""
    check_color_linkage(scene)
