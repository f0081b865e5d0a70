from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import settings
from pytest import approx

from micromaps.atlas import (ALL_CODES, BY_CODE, Atlas, load_atlas,
                             load_default_atlas)
from micromaps.compose import ChartPlan, ColumnPlan
from micromaps.demos import build_demo
from micromaps.errors import MicromapError
from micromaps.scene import Circle, Line, PanelInfo, Scene, Shape
from micromaps.table import Column, RegionTable

# Tier-1 is deterministic: every property test draws the same examples on
# every run, keeps no example database, and has no per-example deadline.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")


def square_atlas_document() -> str:
    """51 unit squares on a grid: the fixed-geometry atlas for layout tests."""
    features = []
    for i, code in enumerate(ALL_CODES):
        col, row = i % 8, i // 8
        x, y = col * 10.0, row * 10.0
        ring = [[x, y], [x + 8.0, y], [x + 8.0, y + 8.0], [x, y + 8.0], [x, y]]
        meta = BY_CODE[code]
        features.append({
            "type": "Feature",
            "properties": {"code": code, "name": meta.name, "fips": meta.fips},
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        })
    return json.dumps({"type": "FeatureCollection", "features": features})


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_api_blocks() -> list[str]:
    """The python code blocks of README's "Python API" section, in order."""
    text = README.read_text("utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return [part.split("```", 1)[0] for part in section.split("```python\n")[1:]]


def make_table(values: dict[str, float | None],
               column: str = "v") -> RegionTable:
    rows = {code: {column: value} for code, value in values.items()}
    return RegionTable(columns=(Column(column),), rows=rows)


def full_table(column: str = "v") -> RegionTable:
    """All 51 regions with distinct values, highest for the first code."""
    values = {code: float(200 - 3 * i) for i, code in enumerate(ALL_CODES)}
    return make_table(values, column)


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


def _drawn_and_mapped(column: ColumnPlan, shape: Shape):
    """(drawn x, the column scale's x) pairs of one mark whose tag names its
    region, with the scale applied to that region's data in the plan."""
    place, kind = column.x_scale.map, column.spec.kind
    cell = column.data[shape.tag.partition(":")[2]]
    if kind == "dot":
        return [(shape.cx, place(cell))]
    if kind == "scatter":
        return [(shape.cx, place(cell[0]))]
    if kind == "bar":  # from zero to the value
        return [(shape.x, place(min(0.0, cell))),
                (shape.x + shape.width, approx(place(max(0.0, cell))))]
    if kind == "boxplot":  # the plan's stats: lower to upper quartile
        return [(shape.x, place(cell.q1)),
                (shape.x + shape.width, approx(place(cell.q3)))]
    if kind == "arrow":  # a shaft starts at start, a head's tip is at end
        if type(shape) is Line:
            return [(shape.x1, place(cell[0]))]
        head = len(shape.points) == 3  # else a diamond, at start == end
        return [(shape.points[0][0], place(cell[1] if head else cell[0]))]
    # A time series: each point of a run, or a one-period run's dot, at the
    # x of the nearest period that has a value.
    periods = [place(i) for i, value in enumerate(cell) if value is not None]
    xs = [shape.cx] if type(shape) is Circle else [px for px, _ in shape.points]
    return [(px, min(periods, key=lambda p: abs(p - px))) for px in xs]


def check_shared_scales(scene: Scene, plan: ChartPlan) -> int:
    """Every linked (or scatter context) mark of every glyph panel sits
    where its column's one x scale in the plan maps its data. Returns how
    many glyph columns had marks to check."""
    checked = set()
    for panel in scene.panels:
        column = plan.columns[panel.column_index]
        if column.x_scale is None:  # a map or legend column
            continue
        for i in panel.marks:
            shape = scene.shapes[i]
            if shape.tag is None:  # drawn in a fixed style, such as a whisker
                continue
            for drawn, mapped in _drawn_and_mapped(column, shape):
                if drawn != mapped:
                    raise MicromapError(
                        f"column {panel.column_index}, group "
                        f"{panel.group_index}: {shape.tag} drawn at {drawn}, "
                        f"its scale maps it to {mapped}")
            checked.add(panel.column_index)
    return len(checked)


@pytest.fixture(scope="session")
def square_atlas() -> Atlas:
    return load_atlas(square_atlas_document())


@pytest.fixture(scope="session")
def default_atlas() -> Atlas:
    return load_default_atlas()


@pytest.fixture(scope="session")
def acs_table():
    return build_demo("acs-dot")[1]


@pytest.fixture(scope="session")
def qcew_table():
    return build_demo("qcew-arrows")[1]


@pytest.fixture(scope="session")
def ers_table():
    return build_demo("ers-boxscatter")[1]


@pytest.fixture
def table51() -> RegionTable:
    return full_table()
