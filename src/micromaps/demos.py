"""The six built-in demo charts, one per bundled case study variant.

Each demo builds a ChartSpec plus its RegionTable from the frozen
snapshots; rendering goes through the same compose/emit path as
config-driven charts, and every demo scene must pass the structural
invariant gate before it is written.
"""

from pathlib import Path

from .adapters import (
    PEW_FILE,
    acs_adapter,
    default_data_dir,
    ers_adapter,
    join_scalar_csv,
    qcew_adapter,
    snapshot_text,
)
from .atlas import CUMULATIVE
from .compose import ChartSpec, ColumnSpec
from .layout import DESCENDING, SortSpec
from .table import RegionTable

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


def _map() -> ColumnSpec:
    return ColumnSpec("map")


def _legend() -> ColumnSpec:
    return ColumnSpec("legend", header=("U.S. States",))


def acs_dot(snapshot_dir: Path | None = None) -> tuple[ChartSpec, RegionTable]:
    table = acs_adapter(snapshot_dir)
    spec = ChartSpec(
        title="ACS Household Response Rates, 2022",
        sort=SortSpec("rate_2022", DESCENDING),
        columns=(
            _map(),
            _legend(),
            ColumnSpec("dot", header=("2022 response", "rate (%)"),
                       bindings={"value": "rate_2022"}),
        ),
    )
    return spec, table


def acs_timeseries(snapshot_dir: Path | None = None,
                   ) -> tuple[ChartSpec, RegionTable]:
    table = acs_adapter(snapshot_dir)
    spec = ChartSpec(
        title="ACS Household Response Rates, 2010 to 2022",
        sort=SortSpec("rate_2022", DESCENDING),
        map_mode=CUMULATIVE,
        columns=(
            _map(),
            _legend(),
            ColumnSpec("dot", header=("2022 response", "rate (%)"),
                       bindings={"value": "rate_2022"}),
            ColumnSpec("timeseries", header=("Response rate", "2010 to 2022"),
                       bindings={"series": "response_rate"}),
        ),
    )
    return spec, table


def acs_pew(snapshot_dir: Path | None = None) -> tuple[ChartSpec, RegionTable]:
    table = acs_adapter(snapshot_dir)
    pew_text = snapshot_text(PEW_FILE, snapshot_dir)
    table = join_scalar_csv(table, pew_text, "state", "pro_small_government")
    spec = ChartSpec(
        title="ACS Response Rates and Attitudes Toward Government",
        sort=SortSpec("rate_2022", DESCENDING),
        map_mode=CUMULATIVE,
        columns=(
            _map(),
            _legend(),
            ColumnSpec("dot", header=("2022 response", "rate (%)"),
                       bindings={"value": "rate_2022"}),
            ColumnSpec("bar", header=("Rate decline 2010-22", "(pct. points)"),
                       bindings={"value": "decline_2010_2022"}),
            ColumnSpec("dot", header=("Pro small government", "(%, Pew 2014)"),
                       bindings={"value": "pro_small_government"}),
        ),
    )
    return spec, table


def qcew_arrows(snapshot_dir: Path | None = None,
                ) -> tuple[ChartSpec, RegionTable]:
    table = qcew_adapter(snapshot_dir)
    spec = ChartSpec(
        title="Employment Change in Leisure and Hospitality (QCEW)",
        sort=SortSpec("change_2020Q1", DESCENDING),
        columns=(
            _map(),
            _legend(),
            ColumnSpec("dot", header=("Over-the-year change", "2020 Q1 (%)"),
                       bindings={"value": "change_2020Q1"},
                       options={"reference_line": 0.0}),
            ColumnSpec("timeseries",
                       header=("Over-the-year change", "2019 Q4 to 2022 Q1"),
                       bindings={"series": "over_year_change"}),
            ColumnSpec("arrow", header=("2020 Q1 to 2022 Q1", "(pct. points)"),
                       bindings={"start": "arrow_start", "end": "arrow_end"}),
        ),
    )
    return spec, table


def ers_snap(snapshot_dir: Path | None = None) -> tuple[ChartSpec, RegionTable]:
    table = ers_adapter(snapshot_dir)
    spec = ChartSpec(
        title="SNAP Participation Change and Food Insecurity",
        sort=SortSpec("snap_change_2012_2017", DESCENDING),
        columns=(
            _map(),
            _legend(),
            ColumnSpec("dot", header=("SNAP change", "2012 to 2017 (%)"),
                       bindings={"value": "snap_change_2012_2017"},
                       options={"reference_line": 0.0}),
            ColumnSpec("bar", header=("Food insecurity change", "(pct. points)"),
                       bindings={"value": "insecurity_change"}),
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
            _map(),
            _legend(),
            ColumnSpec("boxplot",
                       header=("County store-access change", "2010 to 2015 (%)"),
                       bindings={"samples": "county_access_change"}),
            ColumnSpec("scatter", header=("2015 insecurity vs.", "store access (%)"),
                       bindings={"x": "low_access_2015", "y": "insecurity_2015"}),
        ),
    )
    return spec, table


BUILDERS = {
    "acs-dot": acs_dot,
    "acs-timeseries": acs_timeseries,
    "acs-pew": acs_pew,
    "qcew-arrows": qcew_arrows,
    "ers-snap": ers_snap,
    "ers-boxscatter": ers_boxscatter,
}


def build_demo(name: str, snapshot_dir: Path | None = None,
               ) -> tuple[ChartSpec, RegionTable]:
    if name not in BUILDERS:
        raise KeyError(f"unknown demo {name!r}; choose from {DEMO_NAMES}")
    return BUILDERS[name](snapshot_dir)


def pew_available(snapshot_dir: Path | None = None) -> bool:
    directory = Path(snapshot_dir) if snapshot_dir is not None else default_data_dir()
    return (directory / PEW_FILE).is_file()
