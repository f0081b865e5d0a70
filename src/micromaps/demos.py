"""The six built-in demo charts, one per bundled case study variant.

Four demos are chart configs shipped in ``data/demos/<name>.json``, read
with ``parse_config`` as ``micromaps render --config`` reads any config;
each ``data.path`` names a snapshot file, found in the snapshot directory.
acs-pew and ers-boxscatter are built in Python, because they join a user
CSV or reshape county samples. Every demo renders through the same
compose, check and emit path as a config-driven chart.
"""

from pathlib import Path

from .adapters import (
    PEW_FILE,
    acs_adapter,
    default_data_dir,
    ers_adapter,
    join_scalar_csv,
    snapshot_table,
    snapshot_text,
)
from .atlas import CUMULATIVE
from .compose import ChartSpec, ColumnSpec
from .config import parse_config
from .errors import MicromapError, SnapshotError
from .layout import DESCENDING, SortSpec
from .table import RegionTable, bind_series

DEMO_NAMES = ("acs-dot", "acs-timeseries", "acs-pew", "qcew-arrows",
              "ers-snap", "ers-boxscatter")

PEW_INSTRUCTIONS = f"""\
The acs-pew demo joins a user-supplied Pew Research column that cannot be
bundled (the dataset requires registration). To run it:

  1. Obtain the 2014 Religious Landscape Study state table from
     https://www.pewresearch.org/ and export the share preferring a
     smaller government as a CSV with headers:

         state,pro_small_government

     (state = USPS code or full name; value = percent, e.g. 52.1)

  2. Save it as {PEW_FILE} in the data directory (the bundled one,
     $MICROMAP_DATA_DIR, or the directory passed via --data).

  3. Re-run: micromaps demo acs-pew
"""


def acs_pew(snapshot_dir: Path | None = None) -> tuple[ChartSpec, RegionTable]:
    table = acs_adapter(snapshot_dir)
    pew_text = snapshot_text(PEW_FILE, snapshot_dir)
    table = join_scalar_csv(table, pew_text, "state", "pro_small_government")
    spec = ChartSpec(
        title="ACS Response Rates and Attitudes Toward Government",
        sort=SortSpec("response_rate:2022", DESCENDING),
        map_mode=CUMULATIVE,
        columns=(
            ColumnSpec("map"),
            ColumnSpec("legend", header=("U.S. States",)),
            ColumnSpec("dot", header=("2022 response", "rate (%)"),
                       bindings={"value": "response_rate:2022"}),
            ColumnSpec("bar", header=("Rate decline 2010-22", "(pct. points)"),
                       bindings={"value": "decline_2010_2022"}),
            ColumnSpec("dot", header=("Pro small government", "(%, Pew 2014)"),
                       bindings={"value": "pro_small_government"}),
        ),
    )
    return spec, table


def ers_boxscatter(snapshot_dir: Path | None = None,
                   ) -> tuple[ChartSpec, RegionTable]:
    table = ers_adapter(snapshot_dir)
    spec = ChartSpec(
        title="Low Store Access and Food Insecurity",
        sort=SortSpec("insecurity_change", DESCENDING),
        columns=(
            ColumnSpec("map"),
            ColumnSpec("legend", header=("U.S. States",)),
            ColumnSpec("boxplot",
                       header=("County store-access change", "2010 to 2015 (%)"),
                       bindings={"samples": "county_access_change"}),
            ColumnSpec("scatter", header=("2015 insecurity vs.", "store access (%)"),
                       bindings={"x": "low_access_2015", "y": "insecurity_2015"}),
        ),
    )
    return spec, table


BUILDERS = {"acs-pew": acs_pew, "ers-boxscatter": ers_boxscatter}

CONFIG_DIR = Path(__file__).parent / "data" / "demos"


def build_demo(name: str, snapshot_dir: Path | None = None,
               ) -> tuple[ChartSpec, RegionTable]:
    if name not in DEMO_NAMES:
        raise KeyError(f"unknown demo {name!r}; choose from {DEMO_NAMES}")
    if name in BUILDERS:
        return BUILDERS[name](snapshot_dir)
    config = parse_config((CONFIG_DIR / f"{name}.json").read_text("utf-8"))
    table = snapshot_table(config.data_path, snapshot_dir, config.region_column)
    try:
        for binding in config.series:
            table = bind_series(table, list(binding.columns), binding.name)
    except MicromapError as exc:
        raise SnapshotError(config.data_path, str(exc)) from None
    return config.spec, table


def pew_available(snapshot_dir: Path | None = None) -> bool:
    directory = Path(snapshot_dir) if snapshot_dir is not None else default_data_dir()
    return (directory / PEW_FILE).is_file()
