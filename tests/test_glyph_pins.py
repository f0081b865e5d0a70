"""sha256 pins of one synthetic chart that draws every glyph kind.

The bundled demos never draw several glyph edge cases, so this chart does:
a series with gaps and a one-period run, a zero-length arrow (a diamond),
box plots with outliers next to a region whose samples are all missing, a
scatter point with one coordinate missing, and regions without a sort
value. ``compose`` clamps every position into the canvas, so no composed
coordinate is negative; shapes whose coordinates round to minus zero are
appended to the checked scene, one per writer: one for each type of
``scene.Shape``. The SVG is pinned at 0, 2 and 3 decimal places. If an intentional rendering change breaks this,
regenerate with:

    python3 tests/test_glyph_pins.py

and review the change like any other rendering change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from micromaps.atlas import load_atlas
from micromaps.checks import check_chart
from micromaps.compose import ChartSpec, ColumnSpec, compose
from micromaps.layout import SortSpec
from micromaps.regions import ALL_CODES
from micromaps.scene import (
    Circle,
    Line,
    Polygon,
    Polyline,
    Rect,
    Style,
    Text,
)
from micromaps.svg import SvgOptions, emit_svg
from micromaps.table import SERIES, Column, RegionTable

HASHES = Path(__file__).parent / "golden" / "glyph_sha256.json"
DECIMAL_PLACES = (0, 2, 3)
PERIODS = ("2019", "2020", "2021", "2022", "2023", "2024")
CODES = ALL_CODES[:23]
UNRANKED = ("CT", "DC")  # no sort value: drawn in the trailing band

NEGATIVE_ZERO = (
    Rect(-0.001, -0.0, 1.0, -0.004, Style(fill="#000000", stroke="#111111",
                                          stroke_width=0.5)),
    Circle(-0.0, -0.004, 1.0, Style(fill="#222222")),
    Line(-0.001, 0.0, -0.0, -0.0049, Style(stroke="#333333")),
    Text(-0.003, -0.0, "-0.00", Style(fill="#444444", font_size=7.0,
                                      anchor="end")),
    Polyline(((-0.0, 1.0), (2.0, -0.001)), Style(stroke="#666666")),
    Polygon(((-0.002, -0.0), (3.0, 0.0), (1.0, -0.004)),
            Style(fill="#777777")),
)


def synthetic_table() -> RegionTable:
    rows: dict[str, dict[str, object]] = {}
    for i, code in enumerate(CODES):
        value = None if code in UNRANKED else float((i * 37) % 23) - 6.5
        series = tuple(10.0 + ((i + 3 * p) % 7) * 1.25 for p in range(6))
        samples = tuple(float((i * 11 + 5 * k) % 17) for k in range(9))
        rows[code] = {
            "value": value,
            "start": float(i % 9), "end": float((i * 5) % 9),
            "x": float((i * 7) % 13) / 3.0, "y": float(i % 5) * 0.75 - 1.0,
            "series": series, "samples": samples,
        }
    # A gap, then a one-period run, then a gap; and a series with one value.
    rows["AZ"]["series"] = (12.0, 13.5, None, 11.0, None, 14.25)
    rows["AR"]["series"] = (None, None, None, 9.5, None, None)
    rows["CA"]["start"] = rows["CA"]["end"] = 4.0  # zero-length arrow
    rows["CO"]["start"] = None
    rows["DE"]["samples"] = (None,) * 9  # no samples at all
    rows["FL"]["samples"] = (3.0, 3.5, 4.0, 4.0, 4.5, 5.0, None, 40.0, -30.0)
    rows["GA"]["samples"] = (8.0,) * 8 + (None,)
    rows["HI"]["y"] = None  # scatter point missing one coordinate
    rows["ID"]["x"] = None
    rows["IL"]["value"] = None
    rows["IL"]["series"] = (None,) * 6
    columns = (Column("value"), Column("start"), Column("end"), Column("x"),
               Column("y"), Column("series", SERIES, PERIODS),
               Column("samples", SERIES, tuple(f"s{k}" for k in range(9))))
    return RegionTable(columns, rows)


SPEC = ChartSpec(
    title="Every glyph",
    sort=SortSpec("value"),
    columns=(
        ColumnSpec("map"),
        ColumnSpec("legend", header=("Region",),
                   options={"name_style": "abbrev"}),
        ColumnSpec("dot", header=("Value",), bindings={"value": "value"},
                   options={"reference_line": 0.0}),
        ColumnSpec("bar", header=("Value",), bindings={"value": "value"}),
        ColumnSpec("arrow", header=("Start", "to end"),
                   bindings={"start": "start", "end": "end"}),
        ColumnSpec("timeseries", header=("Series",),
                   bindings={"series": "series"}),
        ColumnSpec("boxplot", header=("Samples",),
                   bindings={"samples": "samples"}),
        ColumnSpec("scatter", header=("x by y",),
                   bindings={"x": "x", "y": "y"}),
    ),
    group_size=4,
    width=900.0,
    height=700.0,
)


def glyph_svgs() -> dict[int, str]:
    import conftest
    atlas = load_atlas(conftest.square_atlas_document())
    scene = compose(SPEC, synthetic_table(), atlas)
    check_chart(scene)
    scene = scene._replace(shapes=scene.shapes + NEGATIVE_ZERO)
    return {dp: emit_svg(scene, SvgOptions(decimal_places=dp))
            for dp in DECIMAL_PLACES}


def glyph_hashes() -> dict[str, str]:
    return {f"dp{dp}": hashlib.sha256(svg.encode("utf-8")).hexdigest()
            for dp, svg in glyph_svgs().items()}


def test_synthetic_chart_draws_every_edge_case():
    svg = glyph_svgs()[2]
    for kind in ("<circle", "<line", "<polyline", "<polygon", "<rect",
                 "<text"):
        assert kind in svg
    assert "-0.00" in svg  # the text content, which is not a coordinate
    assert svg.count('"-0.00"') == 0
    assert ">n/a</text>" in svg


def test_synthetic_chart_matches_pinned_hashes():
    assert HASHES.is_file(), "hash file missing; run tests/test_glyph_pins.py"
    assert glyph_hashes() == json.loads(HASHES.read_text("utf-8"))


if __name__ == "__main__":
    HASHES.parent.mkdir(parents=True, exist_ok=True)
    HASHES.write_text(json.dumps(glyph_hashes(), indent=2) + "\n",
                      encoding="utf-8", newline="")
    print(f"regenerated {HASHES}")
