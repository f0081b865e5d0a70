"""Resolution-independent scene: a flat, ordered list of styled shapes.

Shape order is paint order. Coordinates are in abstract canvas units with
the origin at the top-left; serialization to SVG happens elsewhere, with
one writer per shape type, and clamp_shape has one branch per type. The
optional ``tag`` on a shape records which region (or chart part) produced
it and never reaches the output document. Among a panel's marks,
``region:XX`` means the shape shows XX's linked color, in its fill or, when
it has no fill, its stroke; marks drawn in a fixed style carry no such tag.
"""

from math import inf
from typing import Iterable, NamedTuple, Union

from .errors import SpecError
from .values import value_type

# 100 times the default canvas; coordinates keep at most six integer digits.
MAX_CANVAS = 100000.0


def check_canvas_side(value: object, path: str, above: float = 0.0) -> None:
    """Raise SpecError at ``path`` unless ``value`` is a number above ``above``
    and at most MAX_CANVAS (so finite); a bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(path, f"expected a number, got {type(value).__name__}")
    if not above < value <= MAX_CANVAS:
        raise SpecError(path, f"must be above {above:g} and at most {MAX_CANVAS:g}")


@value_type
class Style(NamedTuple):
    fill: str | None = None
    stroke: str | None = None
    stroke_width: float | None = None
    font_size: float | None = None
    anchor: str | None = None


@value_type
class Rect(NamedTuple):
    x: float
    y: float
    width: float
    height: float
    style: Style = Style()
    tag: str | None = None


@value_type
class Circle(NamedTuple):
    cx: float
    cy: float
    r: float
    style: Style = Style()
    tag: str | None = None


@value_type
class Line(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float
    style: Style = Style()
    tag: str | None = None


@value_type
class Polyline(NamedTuple):
    points: tuple[tuple[float, float], ...]
    style: Style = Style()
    tag: str | None = None


@value_type
class Polygon(NamedTuple):
    points: tuple[tuple[float, float], ...]
    style: Style = Style()
    tag: str | None = None


@value_type
class Text(NamedTuple):
    x: float
    y: float
    content: str
    style: Style = Style()
    tag: str | None = None


Shape = Union[Rect, Circle, Line, Polyline, Polygon, Text]


@value_type
class RowBand(NamedTuple):
    region: str
    y: float
    color: str


@value_type
class PanelFrame(NamedTuple):
    """A panel's box and one row per region, with the region's color."""

    x: float
    y: float
    width: float
    height: float
    rows: tuple[RowBand, ...]
    row_height: float

    @property
    def right(self) -> float:
        return self.x + self.width

    @property
    def bottom(self) -> float:
        return self.y + self.height


@value_type
class PanelInfo(NamedTuple):
    """One group's panel of one column: the ``frame`` it was drawn in and
    its ``marks``, the ``Scene.shapes`` indexes of a map panel's fills or
    another panel's marks, which the gate checks against the frame's rows.
    Scales and the median band live in the ChartPlan that was drawn."""

    column_index: int
    kind: str
    group_index: int
    frame: PanelFrame
    marks: range


class Layers:
    """Shapes kept apart by layer; the slot order is the paint order.

    Every panel renderer returns one, and ``compose`` adds each panel to
    one page ``Layers`` that it flattens into ``Scene.shapes``.
    """

    __slots__ = ("guides", "fills", "strokes", "marks", "axes", "labels")

    def __init__(self, guides: list[Shape] | None = None) -> None:
        self.guides: list[Shape] = [] if guides is None else guides
        self.fills: list[Shape] = []
        self.strokes: list[Shape] = []
        self.marks: list[Shape] = []
        self.axes: list[Shape] = []
        self.labels: list[Shape] = []

    def flatten(self) -> tuple[Shape, ...]:
        return tuple(self.guides + self.fills + self.strokes + self.marks
                     + self.axes + self.labels)

    def add(self, panel: "Layers") -> range:
        """Append a panel's shapes, slot by slot. Returns where its linked
        marks sit in their slot: its fills if it has any (a map), else its
        marks.
        """
        linked = self.fills if panel.fills else self.marks
        start = len(linked)
        for name in self.__slots__:
            getattr(self, name).extend(getattr(panel, name))
        return range(start, len(linked))


@value_type
class Scene(NamedTuple):
    width: float
    height: float
    shapes: tuple[Shape, ...]
    panels: tuple[PanelInfo, ...] = ()


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def clamp_shape(shape: Shape, width: float, height: float) -> Shape:
    """Clamp a shape's coordinates into [0,width] x [0,height].

    A guard against rounding drift at the canvas edge, not a layout tool;
    sizes (rect extents, radii) are left alone.
    """
    def cx(v: float) -> float:
        return _clamp(v, 0.0, width)

    def cy(v: float) -> float:
        return _clamp(v, 0.0, height)

    if isinstance(shape, Rect):
        return shape._replace(x=cx(shape.x), y=cy(shape.y))
    if isinstance(shape, Circle):
        return shape._replace(cx=cx(shape.cx), cy=cy(shape.cy))
    if isinstance(shape, Line):
        return shape._replace(x1=cx(shape.x1), y1=cy(shape.y1),
                              x2=cx(shape.x2), y2=cy(shape.y2))
    if isinstance(shape, (Polyline, Polygon)):
        pts = tuple((cx(x), cy(y)) for x, y in shape.points)
        return shape._replace(points=pts)
    if isinstance(shape, Text):
        return shape._replace(x=cx(shape.x), y=cy(shape.y))
    raise TypeError(f"not a shape: {shape!r}")


class PlacedRing(tuple):
    """A map ring's points as atlas places them, with its ``bounds`` (xmin,
    ymin, xmax, ymax) for clamp_scene and its ``texts`` for the SVG writer:
    decimal places -> SVG points text, and (decimal places, Style) -> the
    whole ``<polygon>`` line written in that style. A ring placed by atlas
    is drawn in its fills' colors and its border style only, so its lines
    are bounded by the fills the fit record keeps plus its border. It
    equals and hashes as a tuple."""

    def __new__(cls, points: Iterable[tuple[float, float]]) -> "PlacedRing":
        ring = tuple.__new__(cls, points)
        if ring:
            xs, ys = zip(*ring)
            ring.bounds = (min(xs), min(ys), max(xs), max(ys))
        else:  # no points: inside every canvas, as clamp_scene finds them
            ring.bounds = (inf, inf, -inf, -inf)
        ring.texts = {}
        return ring


def clamp_scene(scene: Scene) -> Scene:
    """Clamp every shape into the canvas with clamp_shape, rebuilding only
    shapes that cross an edge; the scene itself is returned when none does.
    A polygon or polyline on a PlacedRing is tested by the ring's bounds;
    clamp_shape decides for any type not tested here.
    """
    w, h = scene.width, scene.height
    clamped: list[Shape] | None = None
    for i, shape in enumerate(scene.shapes):
        kind = type(shape)
        if kind is Polygon or kind is Polyline:
            if type(shape.points) is PlacedRing:
                xmin, ymin, xmax, ymax = shape.points.bounds
                inside = 0.0 <= xmin and xmax <= w and 0.0 <= ymin and ymax <= h
            else:
                inside = all(0.0 <= x <= w and 0.0 <= y <= h
                             for x, y in shape.points)
        elif kind is Line:
            inside = (0.0 <= shape.x1 <= w and 0.0 <= shape.x2 <= w
                      and 0.0 <= shape.y1 <= h and 0.0 <= shape.y2 <= h)
        elif kind is Circle:
            inside = 0.0 <= shape.cx <= w and 0.0 <= shape.cy <= h
        elif kind is Rect or kind is Text:
            inside = 0.0 <= shape.x <= w and 0.0 <= shape.y <= h
        else:
            inside = False
        if not inside:
            if clamped is None:
                clamped = list(scene.shapes)
            clamped[i] = clamp_shape(shape, w, h)
    return scene if clamped is None else scene._replace(shapes=tuple(clamped))
