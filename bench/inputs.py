"""Seeded input generation for the benchmark workloads.

Stdlib only and independent of micromaps: the same seed always yields the
same CSV text and configs, and every value is chosen so that no render
fails (no reference lines, no missing sort values, finite numbers only).
"""

from __future__ import annotations

import random

# The 51 chart regions (50 states plus DC), by USPS code.
REGION_CODES = (
    "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "DC", "FL", "GA", "HI",
    "ID", "IL", "IN", "IA", "KS", "KY", "LA", "ME", "MD", "MA", "MI", "MN",
    "MS", "MO", "MT", "NE", "NV", "NH", "NJ", "NM", "NY", "NC", "ND", "OH",
    "OK", "OR", "PA", "RI", "SC", "SD", "TN", "TX", "UT", "VT", "VA", "WA",
    "WV", "WI", "WY",
)

# The demos whose data is bundled; acs-pew needs a user-supplied CSV.
DEMOS = ("acs-dot", "acs-timeseries", "qcew-arrows", "ers-snap",
         "ers-boxscatter")

GLYPH_TABLES = 3
GLYPH_PERIODS = 120
GLYPH_SAMPLES = (100, 400)
CLI_CHARTS = 3
CLI_PERIODS = 24


def _num(value: float) -> str:
    return f"{value:.3f}"


def demo_order(seed: int) -> list[str]:
    order = list(DEMOS)
    random.Random(seed).shuffle(order)
    return order


def glyph_table_csv(rng: random.Random) -> str:
    """One 51-region table: dot value, arrow start/end, scatter x/y, a
    120-period series t001.. and a padded sample list s001.. with 100-400
    samples per region (the rest of the row is empty cells).
    """
    periods = [f"t{i:03d}" for i in range(1, GLYPH_PERIODS + 1)]
    samples = [f"s{i:03d}" for i in range(1, GLYPH_SAMPLES[1] + 1)]
    header = ["state", "value", "start", "end", "x", "y"] + periods + samples
    lines = [",".join(header)]
    for code in REGION_CODES:
        level = rng.uniform(20.0, 80.0)
        walk = [level]
        for _ in range(GLYPH_PERIODS - 1):
            walk.append(walk[-1] + rng.gauss(0.0, 1.5))
        n = rng.randint(*GLYPH_SAMPLES)
        centre = rng.uniform(-10.0, 10.0)
        spread = rng.uniform(1.0, 6.0)
        drawn = [_num(rng.gauss(centre, spread)) for _ in range(n)]
        cells = [code, _num(level), _num(rng.uniform(-5.0, 5.0)),
                 _num(rng.uniform(-5.0, 5.0)), _num(rng.uniform(0.0, 30.0)),
                 _num(rng.uniform(5.0, 25.0))]
        cells += [_num(v) for v in walk]
        cells += drawn + [""] * (GLYPH_SAMPLES[1] - n)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def glyph_tables(seed: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    return [(f"glyph-{i}", glyph_table_csv(rng)) for i in range(GLYPH_TABLES)]


def cli_chart(rng: random.Random, name: str) -> tuple[str, dict]:
    """A CSV of 24 period columns plus a scalar, and a render config that
    binds the periods with ``data.series`` and sorts on the last period.
    """
    periods = [f"p{i:02d}" for i in range(1, CLI_PERIODS + 1)]
    lines = [",".join(["state"] + periods + ["change"])]
    for code in REGION_CODES:
        value = rng.uniform(40.0, 90.0)
        cells = [code]
        for _ in periods:
            value += rng.gauss(0.0, 0.8)
            cells.append(_num(value))
        cells.append(_num(rng.uniform(-8.0, 8.0)))
        lines.append(",".join(cells))
    config = {
        "title": f"Synthetic rates {name}",
        "data": {"path": f"{name}.csv", "region_column": "state",
                 "series": [{"name": "rate", "columns": periods}]},
        "sort": {"column": f"rate:{periods[-1]}", "direction": "descending"},
        "columns": [
            {"kind": "map"},
            {"kind": "legend", "header": "U.S. States"},
            {"kind": "dot", "header": ["Latest", "rate (%)"],
             "bindings": {"value": f"rate:{periods[-1]}"}},
            {"kind": "timeseries", "header": ["Rate", "by period"],
             "bindings": {"series": "rate"}},
            {"kind": "bar", "header": ["Change", "(points)"],
             "bindings": {"value": "change"}},
        ],
    }
    return "\n".join(lines) + "\n", config


def cli_charts(seed: int) -> list[tuple[str, str, dict]]:
    rng = random.Random(seed)
    out = []
    for i in range(CLI_CHARTS):
        name = f"cli-{i}"
        csv_text, config = cli_chart(rng, name)
        out.append((name, csv_text, config))
    return out
