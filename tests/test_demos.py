from __future__ import annotations

import sys
import warnings
from collections import Counter

import pytest

from micromaps.atlas import load_default_atlas
from micromaps.checks import check_chart
from micromaps.compose import compose
from micromaps.demos import DEMO_NAMES, build_demo
from micromaps.layout import SortSpec, build_layout
from micromaps.scene import Line, Style
from micromaps.svg import SvgOptions, emit_svg
from micromaps.table import column_extent, scalar_values

from conftest import panels_by_column


def test_unknown_demo_name_is_key_error():
    with pytest.raises(KeyError, match="unknown demo 'nope'; choose from"):
        build_demo("nope")

BUNDLED = ("acs-dot", "acs-timeseries", "qcew-arrows", "ers-snap",
           "ers-boxscatter")


@pytest.fixture(scope="module")
def atlas():
    return load_default_atlas()


@pytest.fixture(scope="module")
def scenes(atlas):
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in BUNDLED:
            spec, table = build_demo(name)
            out[name] = (spec, table, compose(spec, table, atlas))
    return out


def test_demo_registry_is_complete():
    assert set(BUNDLED) < set(DEMO_NAMES)
    assert "acs-pew" in DEMO_NAMES


def test_all_demos_pass_the_invariant_gate(scenes):
    for name, (_, _, scene) in scenes.items():
        check_chart(scene)


def test_acs_dot_top_panel_starts_with_utah(scenes):
    _, _, scene = scenes["acs-dot"]
    dot_panels = [p for p in scene.panels if p.kind == "dot"]
    top = min(dot_panels, key=lambda p: p.frame.y)
    assert top.frame.rows[0].region == "UT"
    assert top.frame.rows[1].region == "ID"


def test_acs_extent_max_is_utah(scenes):
    spec, table, _ = scenes["acs-dot"]
    extent = column_extent(table, spec.sort.column)
    assert extent[1] == scalar_values(table, spec.sort.column)["UT"]


def test_qcew_chart_has_five_columns(scenes):
    _, _, scene = scenes["qcew-arrows"]
    grid = panels_by_column(scene)
    kinds = [panels[0].kind for _, panels in sorted(grid.items())]
    assert kinds == ["map", "legend", "dot", "timeseries", "arrow"]


def test_ers_snap_zero_lines_align_across_groups(scenes):
    _, _, scene = scenes["ers-snap"]
    bar_panels = [p for p in scene.panels if p.kind == "bar"]
    assert len(bar_panels) == 11
    xs = set()
    for panel in bar_panels:
        frame = panel.frame
        for shape in scene.shapes:
            if (isinstance(shape, Line) and shape.x1 == shape.x2
                    and frame.x <= shape.x1 <= frame.right
                    and frame.y - 1 <= shape.y1
                    and shape.y2 <= frame.bottom + 1):
                xs.add(shape.x1)
    assert len(xs) == 1  # one zero-line x position shared by all 11 panels


def test_ers_snap_positive_bars_point_right(scenes):
    _, table, scene = scenes["ers-snap"]
    changes = scalar_values(table, "insecurity_change")
    layout = build_layout(table, SortSpec("snap_change_2012_2017"))
    assert {c for c, v in changes.items() if v > 0} == {"NY", "NV", "PA", "ME"}
    assert set(layout.ranked) == set(changes)


def test_median_band_is_visually_distinct(scenes):
    for name, (spec, table, scene) in scenes.items():
        median = build_layout(table, spec.sort,
                              spec.group_size).plan.median_group_index
        medians = [p for p in scene.panels if p.group_index == median]
        normals = [p for p in scene.panels if p.group_index != median]
        assert medians
        assert all(m.frame.height < min(n.frame.height for n in normals)
                   for m in medians)


def test_scatter_panels_show_full_context(scenes):
    _, _, scene = scenes["ers-boxscatter"]
    from micromaps.scene import Circle
    scatter_panels = [p for p in scene.panels if p.kind == "scatter"]
    assert len(scatter_panels) == 11
    for panel in scatter_panels:
        frame = panel.frame
        context = [s for s in scene.shapes
                   if isinstance(s, Circle)
                   and (s.tag or "").startswith("context:")
                   and frame.x <= s.cx <= frame.right
                   and frame.y <= s.cy <= frame.bottom]
        assert len(context) == 51


@pytest.mark.parametrize("name", BUNDLED)
def test_emit_svg_finds_each_style_by_identity(scenes, monkeypatch, name):
    """Fixed and row styles are shared objects, so the SVG writer's style
    cache seldom compares two equal Styles field by field."""
    spec, _, scene = scenes[name]
    calls = []
    same = Style.__eq__

    def counted(a, b):
        calls.append(a)
        return same(a, b)

    monkeypatch.setattr(Style, "__eq__", counted)
    emit_svg(scene, SvgOptions(title=spec.title))
    monkeypatch.undo()
    assert len(calls) < 60


RENDERERS = {"map": "render_minimap", "dot": "render_dot", "bar": "render_bar",
             "arrow": "render_arrow", "timeseries": "render_timeseries",
             "boxplot": "render_boxplot", "scatter": "render_scatter"}


@pytest.mark.parametrize("name", BUNDLED)
def test_each_panel_calls_its_renderer_by_module_global(atlas, monkeypatch,
                                                        name):
    """bench/tracing.py wraps the renderers where ``micromaps.compose``
    looks them up, so a renderer bound at import would escape it."""
    module = sys.modules["micromaps.compose"]
    calls: Counter[str] = Counter()

    def counting(renderer: str):
        call = getattr(module, renderer)

        def counted(*args, **kwargs):
            calls[renderer] += 1
            return call(*args, **kwargs)
        return counted

    for renderer in RENDERERS.values():
        monkeypatch.setattr(module, renderer, counting(renderer))
    spec, table = build_demo(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        compose(spec, table, atlas)
    # 51 ranked regions make 11 bands: ten groups and the median row.
    kinds = Counter(column.kind for column in spec.columns)
    assert calls == Counter({RENDERERS[kind]: 11 * n
                             for kind, n in kinds.items() if kind in RENDERERS})
