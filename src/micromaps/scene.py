"""Resolution-independent scene: a flat, ordered list of styled shapes.

Shape order is paint order. Coordinates are in abstract canvas units with
the origin at the top-left; serialization to SVG happens elsewhere. The
optional ``tag`` on a shape records which region (or chart part) produced
it and never reaches the output document. Among a panel's marks,
``region:XX`` means the shape shows XX's linked color, in its fill or, when
it has no fill, its stroke; marks drawn in a fixed style carry no such tag.
"""

from typing import NamedTuple, Union

from .values import value_type


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
class Path(NamedTuple):
    # Commands like ("M", x, y), ("L", x, y), ("Z",).
    commands: tuple[tuple, ...]
    style: Style = Style()
    tag: str | None = None


@value_type
class Text(NamedTuple):
    x: float
    y: float
    content: str
    style: Style = Style()
    tag: str | None = None


Shape = Union[Rect, Circle, Line, Polyline, Polygon, Path, Text]


@value_type
class PanelInfo(NamedTuple):
    """Where one group's panel of one column landed, plus its shared-axis
    record (domains and tick lists in data units) for tests and reports.
    ``marks`` indexes the shapes in ``Scene.shapes`` that the pre-write gate
    reads for the color link: a map panel's fills, a legend or glyph
    panel's marks.
    """

    column_index: int
    kind: str
    group_index: int
    x: float
    y: float
    width: float
    height: float
    is_median: bool = False
    rows: tuple[tuple[str, float], ...] = ()
    x_domain: tuple[float, float] | None = None
    x_ticks: tuple[float, ...] | None = None
    y_domain: tuple[float, float] | None = None
    y_ticks: tuple[float, ...] | None = None
    marks: range = range(0)


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
    if isinstance(shape, Path):
        cmds = tuple((c[0],) + tuple(cx(v) if i % 2 == 0 else cy(v)
                                     for i, v in enumerate(c[1:]))
                     for c in shape.commands)
        return shape._replace(commands=cmds)
    if isinstance(shape, Text):
        return shape._replace(x=cx(shape.x), y=cy(shape.y))
    raise TypeError(f"not a shape: {shape!r}")


def _inside(shape: Shape, width: float, height: float) -> bool:
    """Whether clamp_shape would leave every coordinate as it is.

    clamp_scene tests the other exact shape types inline; for them, and for
    anything that is not a shape, this is False and clamp_shape decides.
    """
    if isinstance(shape, (Polyline, Polygon)):
        if not shape.points:
            return True
        xs, ys = zip(*shape.points)
        return (0.0 <= min(xs) and max(xs) <= width
                and 0.0 <= min(ys) and max(ys) <= height)
    if isinstance(shape, Path):
        return all(0.0 <= v <= (height if i % 2 else width)
                   for c in shape.commands for i, v in enumerate(c[1:]))
    return False


def clamp_scene(scene: Scene) -> Scene:
    """Clamp every shape into the canvas with clamp_shape, rebuilding only
    shapes that cross an edge; the scene itself is returned when none does.
    A points tuple shared by shapes (a map ring's fill and border) is tested
    once.
    """
    w, h = scene.width, scene.height
    rings: dict[int, bool] = {}  # id(points) -> inside
    clamped: list[Shape] | None = None
    for i, shape in enumerate(scene.shapes):
        kind = type(shape)
        if kind is Polygon or kind is Polyline:
            inside = rings.get(id(shape.points))
            if inside is None:
                inside = rings[id(shape.points)] = _inside(shape, w, h)
        elif kind is Line:
            inside = (0.0 <= shape.x1 <= w and 0.0 <= shape.x2 <= w
                      and 0.0 <= shape.y1 <= h and 0.0 <= shape.y2 <= h)
        elif kind is Circle:
            inside = 0.0 <= shape.cx <= w and 0.0 <= shape.cy <= h
        elif kind is Rect or kind is Text:
            inside = 0.0 <= shape.x <= w and 0.0 <= shape.y <= h
        else:
            inside = _inside(shape, w, h)
        if not inside:
            if clamped is None:
                clamped = list(scene.shapes)
            clamped[i] = clamp_shape(shape, w, h)
    return scene if clamped is None else scene._replace(shapes=tuple(clamped))
