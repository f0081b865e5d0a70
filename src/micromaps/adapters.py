"""Loading a chart config's data into a RegionTable.

``load_table`` builds the table a config describes: its data CSV, the
series it binds, each ``data.join`` file (every value column attached by
region) and each ``data.samples`` file (a long CSV, one sample per row).
``micromaps render`` and ``validate`` load through it, and so does
``demos.build_demo``. The join and samples files are read from the
directory of the data file; a fault in one of them is a ``SnapshotError``
that names the file.

The demos read frozen CSV snapshots committed under the package data
directory (override with the MICROMAP_DATA_DIR environment variable or an
explicit ``snapshot_dir``); provenance is recorded in data/MANIFEST.json.
Nothing is fetched at runtime: the source pages serve interactive tables
whose formats drift, and reproducible figures need frozen inputs.
"""

import csv
import io
import math
import os
from pathlib import Path

from .config import RenderConfig, SampleSource
from .errors import MicromapError, SnapshotError, SpecError, UnknownRegion
from .regions import region_lookup
from .table import (
    RegionTable,
    bind_series,
    parse_table,
    scalar_values,
    with_scalar_column,
    with_series_column,
)


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


def load_table(config: RenderConfig, text: str, directory: Path) -> RegionTable:
    """The table ``config`` describes, with ``text`` as its data file.

    A fault in ``text`` raises as ``parse_table`` and ``bind_series`` raise
    it. The join and samples files are read from ``directory``; a column
    one of them would add that the table already has is a ``SpecError`` at
    its ``data.join[i]`` or ``data.samples[i].name``.
    """
    table = parse_table(text, config.region_column)
    for binding in config.series:
        table = bind_series(table, list(binding.columns), binding.name)
    for i, name in enumerate(config.join):
        table = _join(table, name, directory, config.region_column,
                      f"data.join[{i}]")
    for i, source in enumerate(config.samples):
        table = _samples(table, source, directory, config.region_column,
                         f"data.samples[{i}].name")
    return table


def _join(table: RegionTable, name: str, directory: Path, region_column: str,
          path: str) -> RegionTable:
    """Attach every value column of another region CSV."""
    text = snapshot_text(name, directory)
    try:
        other = parse_table(text, region_column)
    except MicromapError as exc:
        raise SnapshotError(name, str(exc)) from None
    for column in other.columns:
        if table.has_column(column.name):
            raise SpecError(path, f"column {column.name!r} already exists")
        table = with_scalar_column(table, column.name,
                                   scalar_values(other, column.name))
    return table


def _samples(table: RegionTable, source: SampleSource, directory: Path,
             region_column: str, path: str) -> RegionTable:
    """Attach a long CSV, one sample per row, as a series column.

    Each region's samples fill the periods ``c001``, ``c002``, ... in file
    order; the series is as long as the largest sample, and the rest of
    every shorter one is missing.
    """
    if table.has_column(source.name):
        raise SpecError(path, f"column {source.name!r} already exists")
    name = source.path
    text = snapshot_text(name, directory).lstrip("\ufeff")
    reader = csv.reader(io.StringIO(text, newline=""))
    header = [cell.strip() for cell in next(reader, [])]
    if not {region_column, source.column}.issubset(header):
        raise SnapshotError(name, f"needs {region_column} and "
                                  f"{source.column} columns")
    key = header.index(region_column)
    value = header.index(source.column)
    by_key: dict[str, list[float]] = {}
    for record in reader:
        if len(record) != len(header):
            if not record:
                continue
            side = "wider" if len(record) > len(header) else "narrower"
            raise SnapshotError(name, f"row {side} than header "
                                      f"at line {reader.line_num}")
        try:
            number = float(record[value])
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise SnapshotError(name, f"bad value {record[value].strip()!r} "
                                      f"at line {reader.line_num}")
        by_key.setdefault(record[key].strip(), []).append(number)
    if not by_key:
        raise SnapshotError(name, "no sample rows")
    samples: dict[str, list[float]] = {}
    unknown = []
    for raw, values in by_key.items():
        try:
            code = region_lookup(raw).code
        except UnknownRegion:
            code = None
        if code in table.rows:
            samples.setdefault(code, []).extend(values)
        else:
            unknown.append(raw)
    if unknown:
        raise SnapshotError(name, "rows for unknown regions: "
                                  + ", ".join(sorted(unknown)))
    width = max(map(len, samples.values()))
    periods = tuple(f"c{i:03d}" for i in range(1, width + 1))
    padded = {code: values + [None] * (width - len(values))
              for code, values in samples.items()}
    return with_series_column(table, source.name, periods, padded)
