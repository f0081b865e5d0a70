"""Loading the bundled data snapshots into RegionTables.

Snapshots are frozen CSV files committed under the package data directory
(override with the MICROMAP_DATA_DIR environment variable or an explicit
``snapshot_dir``); provenance is recorded in data/MANIFEST.json. Nothing is
fetched at runtime: the source pages serve interactive tables whose formats
drift, and reproducible figures need frozen inputs.

``snapshot_table`` loads one snapshot as it stands; the shipped demo configs
read theirs through it. The two adapters add what a config cannot express:
the ACS 2010-to-2022 decline and the ERS per-state county samples.
"""

import csv
import io
import os
from pathlib import Path

from .errors import MicromapError, SnapshotError
from .table import (
    RegionTable,
    bind_series,
    parse_table,
    scalar_values,
    with_scalar_column,
    with_series_column,
)

ACS_FILE = "acs_response_rates.csv"
ERS_STATE_FILE = "ers_state_indicators.csv"
ERS_COUNTY_FILE = "ers_county_low_access_change.csv"
PEW_FILE = "pew_small_government.csv"

ACS_YEARS = tuple(str(y) for y in range(2010, 2023))


def default_data_dir() -> Path:
    env = os.environ.get("MICROMAP_DATA_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


def snapshot_text(name: str, snapshot_dir: Path | str | None = None) -> str:
    directory = Path(snapshot_dir) if snapshot_dir is not None else default_data_dir()
    path = directory / name
    try:
        return path.read_text("utf-8")
    except FileNotFoundError:
        raise SnapshotError(name, f"not found in {directory}", missing=True) from None
    except OSError as exc:
        raise SnapshotError(name, str(exc), missing=True) from None
    except UnicodeDecodeError as exc:
        raise SnapshotError(name, f"cannot decode: {exc}") from None


def snapshot_table(name: str, snapshot_dir: Path | str | None = None,
                   region_column: str = "state") -> RegionTable:
    """One snapshot file as a table; every snapshot covers all 51 regions."""
    text = snapshot_text(name, snapshot_dir)
    try:
        table = parse_table(text, region_column)
    except MicromapError as exc:
        raise SnapshotError(name, str(exc)) from None
    if len(table.rows) != 51:
        raise SnapshotError(name, f"expected 51 regions, got {len(table.rows)}")
    return table


def _require_columns(table: RegionTable, names: tuple[str, ...],
                     filename: str) -> None:
    for name in names:
        if not table.has_column(name):
            raise SnapshotError(filename, f"missing column {name!r}")


def acs_adapter(snapshot_dir: Path | str | None = None) -> RegionTable:
    """Response rates 2010-2022 as a series, plus the 2010-to-2022 decline
    in percentage points.
    """
    table = snapshot_table(ACS_FILE, snapshot_dir)
    _require_columns(table, ACS_YEARS, ACS_FILE)
    first = scalar_values(table, "2010")
    last = scalar_values(table, "2022")
    decline = {
        code: (None if first[code] is None or last[code] is None
               else first[code] - last[code])
        for code in table.rows
    }
    table = with_scalar_column(table, "decline_2010_2022", decline)
    return bind_series(table, list(ACS_YEARS), "response_rate")


def _county_samples(snapshot_dir) -> dict[str, list[float]]:
    text = snapshot_text(ERS_COUNTY_FILE, snapshot_dir)
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or not {
            "state", "access_change_2010_2015"}.issubset(reader.fieldnames):
        raise SnapshotError(ERS_COUNTY_FILE,
                            "needs state and access_change_2010_2015 columns")
    samples: dict[str, list[float]] = {}
    for i, record in enumerate(reader, start=2):
        code = record["state"].strip()
        raw = record["access_change_2010_2015"].strip()
        try:
            samples.setdefault(code, []).append(float(raw))
        except ValueError:
            raise SnapshotError(ERS_COUNTY_FILE,
                                f"bad value {raw!r} at line {i}") from None
    return samples


def ers_adapter(snapshot_dir: Path | str | None = None) -> RegionTable:
    """Food-environment indicators plus per-state county sample lists for
    the store-access boxplot column.
    """
    table = snapshot_table(ERS_STATE_FILE, snapshot_dir)
    _require_columns(table, ("snap_change_2012_2017", "insecurity_change",
                             "insecurity_2015", "low_access_2015"),
                     ERS_STATE_FILE)
    samples = _county_samples(snapshot_dir)
    unknown = sorted(set(samples) - set(table.rows))
    if unknown:
        raise SnapshotError(ERS_COUNTY_FILE,
                            f"rows for unknown regions: {', '.join(unknown)}")
    width = max(len(v) for v in samples.values())
    periods = tuple(f"c{i:03d}" for i in range(1, width + 1))
    padded = {
        code: values + [None] * (width - len(values))
        for code, values in samples.items()
    }
    return with_series_column(table, "county_access_change", periods, padded)


def join_scalar_csv(table: RegionTable, csv_text: str, region_column: str,
                    value_column: str, new_name: str | None = None,
                    ) -> RegionTable:
    """Generic CSV join: attach one scalar column from another region CSV."""
    other = parse_table(csv_text, region_column)
    values = scalar_values(other, value_column)
    return with_scalar_column(table, new_name or value_column, values)
