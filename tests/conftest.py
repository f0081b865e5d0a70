from __future__ import annotations

import json
from collections import defaultdict

import pytest
from hypothesis import settings

from micromaps.atlas import Atlas, load_atlas, load_default_atlas
from micromaps.demos import build_demo
from micromaps.errors import MicromapError
from micromaps.regions import ALL_CODES, BY_CODE
from micromaps.scene import PanelInfo, Scene
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


def check_shared_scales(scene: Scene) -> None:
    """All panels of a column must report identical domains and ticks."""
    for ci, panels in panels_by_column(scene).items():
        for attr in ("x_domain", "x_ticks", "y_domain", "y_ticks"):
            values = {getattr(p, attr) for p in panels}
            if len(values) != 1:
                raise MicromapError(
                    f"column {ci}: panels disagree on {attr}: {values}")


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
