"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass. Every tolerance is pinned here; nothing is deferred to calibration.
"""

from __future__ import annotations

import random
import warnings
import xml.etree.ElementTree as ET
from collections import defaultdict

import numpy as np
import pytest

from micromaps.atlas import load_default_atlas
from micromaps.compose import compose, plan_chart
from micromaps.demos import build_demo
from micromaps.glyphs import compute_box_stats
from micromaps.layout import (
    DESCENDING,
    SortSpec,
    build_layout,
    order_regions,
    partition_groups,
)
from micromaps.svg import SvgOptions, emit_svg
from micromaps.table import scalar_values

from conftest import check_shared_scales, full_table

BUNDLED_DEMOS = ("acs-dot", "acs-timeseries", "qcew-arrows", "ers-snap",
                 "ers-boxscatter")


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


@pytest.fixture(scope="module")
def atlas():
    return load_default_atlas()


@pytest.fixture(scope="module")
def demo_scenes(atlas):
    scenes = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in BUNDLED_DEMOS:
            spec, table = build_demo(name)
            scenes[name] = (spec, table, compose(spec, table, atlas))
    return scenes


def test_criterion_1_perceptual_grouping():
    layout = build_layout(full_table(), SortSpec("v", DESCENDING))
    sizes_ok = layout.plan.sizes == (5, 5, 5, 5, 5, 1, 5, 5, 5, 5, 5)
    median_ok = layout.plan.median_group_index == 5
    report(1, "perceptual-grouping", sizes_ok and median_ok,
           f"sizes={list(layout.plan.sizes)}")


def test_criterion_2_partition_property_suite():
    checked = 0
    for n in range(1, 201):
        for group_size in range(1, 9):
            plan = partition_groups(n, group_size)
            assert sum(plan.sizes) == n, (n, group_size)
            assert max(plan.sizes) <= group_size, (n, group_size)
            assert plan.sizes == tuple(reversed(plan.sizes)), (n, group_size)
            if n % 2 == 1:
                mi = plan.median_group_index
                assert mi is not None and plan.sizes[mi] == 1, (n, group_size)
                assert sum(1 for s in plan.sizes) % 2 == 1
            else:
                assert plan.median_group_index is None, (n, group_size)
            checked += 1
    report(2, "partition-properties", checked == 1600, f"{checked} cases")


def test_criterion_3_color_linkage(demo_scenes):
    spec, table, scene = demo_scenes["acs-dot"]
    layout = build_layout(table, spec.sort, spec.group_size)
    # Every color each panel's own regions show in its marks, per column
    # kind, read from the shapes here rather than through the gate.
    per_kind: dict[str, dict[str, set[str]]] = {
        "legend": defaultdict(set), "map": defaultdict(set),
        "dot": defaultdict(set)}
    for panel in scene.panels:
        members = {row.region for row in panel.frame.rows}
        for shape in scene.shapes[panel.marks.start:panel.marks.stop]:
            code = (shape.tag or "").removeprefix("region:")
            if code in members:
                style = shape.style
                per_kind[panel.kind][code].add(
                    style.fill if style.fill not in (None, "none")
                    else style.stroke)
    linked = 0
    for code in layout.ranked:
        shown = [per_kind[kind][code] for kind in ("legend", "map", "dot")]
        if all(shown) and len(set().union(*shown)) == 1:
            linked += 1
    report(3, "color-linkage", linked == 51, f"{linked}/51 regions")


def test_criterion_4_shared_scales(demo_scenes):
    columns = 0
    for spec, table, scene in demo_scenes.values():
        columns += check_shared_scales(scene, plan_chart(spec, table))
    report(4, "shared-scales", columns == 10, f"{columns} glyph columns")


def test_criterion_5_box_stats_oracle():
    rng = random.Random(90210)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 500)
        samples = [rng.uniform(-1e3, 1e3) for _ in range(n)]
        mine = compute_box_stats(samples)
        data = np.sort(np.asarray(samples))
        q1, med, q3 = np.percentile(data, [25, 50, 75], method="linear")
        iqr = q3 - q1
        inside = data[(data >= q1 - 1.5 * iqr) & (data <= q3 + 1.5 * iqr)]
        oracle = (float(q1), float(med), float(q3),
                  min(float(inside.min()), float(q1)),
                  max(float(inside.max()), float(q3)))
        got = (mine.q1, mine.median, mine.q3, mine.whisker_lo, mine.whisker_hi)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, oracle)))
        expected_outliers = tuple(
            float(v) for v in data[(data < q1 - 1.5 * iqr)
                                   | (data > q3 + 1.5 * iqr)])
        assert mine.outliers == expected_outliers
    report(5, "box-stats-oracle", worst <= 1e-9, f"max dev {worst:.2e}")


def test_criterion_6_snapshot_orderings(demo_scenes):
    _, acs, _ = demo_scenes["acs-dot"]
    ranked, _ = order_regions(acs, SortSpec("response_rate:2022", DESCENDING))
    acs_ok = ranked[:2] == ["UT", "ID"] and ranked[-1] == "DC"

    _, qcew, _ = demo_scenes["qcew-arrows"]
    ranked, _ = order_regions(qcew, SortSpec("over_year_change:2020Q1",
                                             DESCENDING))
    qcew_ok = set(ranked[:3]) == {"ID", "WY", "MT"}

    _, ers, _ = demo_scenes["ers-snap"]
    changes = scalar_values(ers, "insecurity_change")
    positive = {code for code, v in changes.items() if v is not None and v > 0}
    ers_ok = positive == {"NY", "NV", "PA", "ME"}

    report(6, "snapshot-orderings", acs_ok and qcew_ok and ers_ok,
           f"acs={acs_ok} qcew={qcew_ok} ers={ers_ok}")


def test_criterion_7_time_series_shape(demo_scenes):
    _, table, _ = demo_scenes["acs-timeseries"]
    periods = table.column("response_rate").periods
    i2013 = periods.index("2013")
    i2020 = periods.index("2020")
    local_ok = 0
    global_2020 = 0
    for code in table.rows:
        series = table.rows[code]["response_rate"]
        dip_2013 = (series[i2013] < series[i2013 - 1]
                    and series[i2013] < series[i2013 + 1])
        dip_2020 = (series[i2020] < series[i2020 - 1]
                    and series[i2020] < series[i2020 + 1])
        if dip_2013 and dip_2020:
            local_ok += 1
        if min(series) == series[i2020]:
            global_2020 += 1
    report(7, "time-series-shape", local_ok == 51 and global_2020 >= 45,
           f"local dips {local_ok}/51, 2020 global min {global_2020}/51")


def test_criterion_8_determinism(demo_scenes, atlas):
    byte_identical = 0
    for name in BUNDLED_DEMOS:
        spec, table, scene = demo_scenes[name]
        options = SvgOptions(embed_title=True, title=spec.title)
        first = emit_svg(scene, options)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            second = emit_svg(compose(spec, table, atlas), options)
        ET.fromstring(first)
        if first.encode() == second.encode():
            byte_identical += 1
    report(8, "determinism", byte_identical == len(BUNDLED_DEMOS),
           f"{byte_identical}/{len(BUNDLED_DEMOS)} demos byte-identical")


def test_criterion_9_scene_structure(demo_scenes):
    spec, table, scene = demo_scenes["acs-timeseries"]
    counts: dict[str, int] = {}
    for panel in scene.panels:
        counts[panel.kind] = counts.get(panel.kind, 0) + 1
    counts_ok = counts == {"map": 11, "legend": 11, "dot": 11,
                           "timeseries": 11}
    median = plan_chart(spec, table).layout.plan.median_group_index
    median_bands = {(p.frame.y, p.frame.height) for p in scene.panels
                    if p.group_index == median}
    report(9, "scene-structure", counts_ok and len(median_bands) == 1,
           f"panels={counts}, median bands={len(median_bands)}")
