"""Loading a chart config's data into a RegionTable.

``load_table`` builds the table a config describes: its data CSV, the
series it binds, each ``data.join`` file (every value column attached by
region) and each ``data.samples`` file (a long CSV, one sample per row).
``micromaps render`` and ``validate`` load through it, and so does
``demos.build_demo``. The join and samples files are read from the
directory of the data file; a fault in one of them, a row for a region
that the data file lacks among them, is a ``SnapshotError`` that names
the file. ``table.with_column`` appends and checks their columns.

The demos read frozen CSV snapshots committed under the package data
directory (override with the MICROMAP_DATA_DIR environment variable or an
explicit ``snapshot_dir``); provenance is recorded in data/MANIFEST.json.
Nothing is fetched at runtime: the source pages serve interactive tables
whose formats drift, and reproducible figures need frozen inputs.
"""

import csv
import io
import os
from collections.abc import Iterable, Iterator
from pathlib import Path

from .atlas import region_lookup
from .config import RenderConfig, SampleSource
from .errors import MicromapError, NameClash, SnapshotError, SpecError, UnknownRegion
from .table import (
    SERIES,
    Column,
    RegionTable,
    bind_series,
    parse_number,
    parse_table,
    plain_numbers,
    scalar_values,
    with_column,
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
    one of them would add that the table already has (``with_column``'s
    ``NameClash``) is a ``SpecError`` at its ``data.join[i]`` or
    ``data.samples[i].name``, raised after any fault in the file itself.
    """
    table = parse_table(text, config.region_column)
    for binding in config.series:
        table = bind_series(table, list(binding.columns), binding.name)
    try:
        for i, name in enumerate(config.join):
            path = f"data.join[{i}]"
            table = _join(table, name, directory, config.region_column)
        for i, source in enumerate(config.samples):
            path = f"data.samples[{i}].name"
            table = _samples(table, source, directory, config.region_column)
    except NameClash as exc:
        raise SpecError(path, str(exc)) from None
    return table


def _join(table: RegionTable, name: str, directory: Path,
          region_column: str) -> RegionTable:
    """Attach every value column of another region CSV."""
    text = snapshot_text(name, directory)
    try:
        other = parse_table(text, region_column)
    except MicromapError as exc:
        raise SnapshotError(name, str(exc)) from None
    _codes_in_table(name, table, other.rows)
    return with_column(table, *((column, scalar_values(other, column.name))
                                for column in other.columns))


def _codes_in_table(name: str, table: RegionTable,
                    keys: Iterable[str]) -> dict[str, str]:
    """Each region key of file ``name`` with its region's code. A key that
    is no region, or whose region has no row in ``table``, is a
    SnapshotError that lists them all."""
    codes: dict[str, str] = {}
    absent, unknown = [], []
    for raw in keys:
        try:
            codes[raw] = code = region_lookup(raw).code
        except UnknownRegion:
            unknown.append(raw)
            continue
        if code not in table.rows:
            absent.append(raw)
    faults = [f"rows for {what}: " + ", ".join(sorted(raws))
              for what, raws in (("regions not in the data file", absent),
                                 ("unknown regions", unknown)) if raws]
    if faults:
        raise SnapshotError(name, "; ".join(faults))
    return codes


def _plain_samples(reader: Iterator[list[str]], width: int, key: int,
                   value: int) -> dict[str, list[float]] | None:
    """Each region key's samples, in file order, when every row is
    ``width`` cells wide and each region's sample cells are empty or plain,
    finite numbers (``table.plain_numbers``); else None. An empty cell is a
    skipped sample."""
    cells: dict[str, list[str]] = {}
    for record in reader:
        if len(record) != width:
            if record:
                return None
            continue
        cells.setdefault(record[key].strip(), []).append(record[value])
    by_key = {}
    for raw, texts in cells.items():
        if (numbers := plain_numbers(texts)) is None:
            return None
        by_key[raw] = [number for number in numbers if number is not None]
    return by_key


def _read_samples(name: str, text: str, width: int, key: int, value: int,
                  ) -> dict[str, list[float]]:
    """Each region key's samples, in file order, each cell read with
    ``parse_number`` as the data CSV's cells are: an empty or NA cell is a
    skipped sample. The first fault in the file is a SnapshotError that
    names its line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    by_key: dict[str, list[float]] = {}
    for record in reader:
        if len(record) != width:
            if not record:
                continue
            side = "wider" if len(record) > width else "narrower"
            raise SnapshotError(name, f"row {side} than header "
                                      f"at line {reader.line_num}")
        try:
            number = parse_number(record[value])
        except ValueError as exc:
            raise SnapshotError(name, f"{exc} at line {reader.line_num}"
                                ) from None
        found = by_key.setdefault(record[key].strip(), [])
        if number is not None:
            found.append(number)
    return by_key


def _samples(table: RegionTable, source: SampleSource, directory: Path,
             region_column: str) -> RegionTable:
    """Attach a long CSV, one sample per row, as a series column.

    Each region's samples fill the periods ``c001``, ``c002``, ... in file
    order; the series is as long as the largest sample, and the rest of
    every shorter one is missing.
    """
    name = source.path
    text = snapshot_text(name, directory).lstrip("\ufeff")
    reader = csv.reader(io.StringIO(text, newline=""))
    header = [cell.strip() for cell in next(reader, [])]
    if not {region_column, source.column}.issubset(header):
        raise SnapshotError(name, f"needs {region_column} and "
                                  f"{source.column} columns")
    if header.count(region_column) > 1 or header.count(source.column) > 1:
        raise SnapshotError(name, "duplicate header names")
    key = header.index(region_column)
    value = header.index(source.column)
    by_key = _plain_samples(reader, len(header), key, value)
    if by_key is None:
        by_key = _read_samples(name, text, len(header), key, value)
    if not any(by_key.values()):
        raise SnapshotError(name, "no sample rows")
    codes = _codes_in_table(name, table, by_key)
    samples: dict[str, list[float]] = {}
    for raw, values in by_key.items():
        samples.setdefault(codes[raw], []).extend(values)
    width = max(map(len, samples.values()))
    periods = tuple(f"c{i:03d}" for i in range(1, width + 1))
    padded = {code: tuple(values) + (None,) * (width - len(values))
              for code, values in samples.items()}
    return with_column(table, (Column(source.name, SERIES, periods), padded))
