"""Golden-file pin for the emitted SVG.

A small fixed chart rendered byte-for-byte. If an intentional rendering
change breaks this, regenerate with:

    python3 tests/test_golden.py

and review the diff like any other code change.
"""

from __future__ import annotations

from pathlib import Path

from micromaps.atlas import load_atlas
from micromaps.compose import ChartSpec, ColumnSpec, compose
from micromaps.layout import SortSpec
from micromaps.scene import Rect, Style
from micromaps.svg import SvgOptions, emit_svg
from micromaps.table import parse_table

GOLDEN = Path(__file__).parent / "golden" / "mini_chart.svg"

MINI_CSV = """state,score
UT,9.5
ID,8.25
WY,7
MT,-2.5
SD,4.125
NE,0
DC,3.75
"""


def render_mini_chart() -> str:
    import conftest
    atlas = load_atlas(conftest.square_atlas_document())
    table = parse_table(MINI_CSV, "state")
    spec = ChartSpec(
        title="Mini golden chart",
        sort=SortSpec("score"),
        columns=(
            ColumnSpec("map"),
            ColumnSpec("legend", header=("States",),
                       options={"name_style": "abbrev"}),
            ColumnSpec("dot", header=("Score",), bindings={"value": "score"},
                       options={"reference_line": 0.0}),
            ColumnSpec("bar", header=("Score",), bindings={"value": "score"}),
        ),
        width=430.0,
        height=560.0,
    )
    scene = compose(spec, table, atlas)
    # A white page under the chart, painted first.
    page = Rect(0.0, 0.0, scene.width, scene.height, Style(fill="#FFFFFF"))
    return emit_svg(scene._replace(shapes=(page, *scene.shapes)),
                    SvgOptions(embed_title=True, title="Mini golden chart"))


def test_mini_chart_matches_golden():
    assert GOLDEN.is_file(), "golden file missing; run tests/test_golden.py"
    assert render_mini_chart() == GOLDEN.read_text("utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render_mini_chart(), encoding="utf-8", newline="")
    print(f"regenerated {GOLDEN}")
