"""Region-indexed tables parsed from CSV.

A RegionTable maps each region to one row of named columns. Columns are
either scalar (one number per region) or series (one number per period
label per region). Cells may be explicitly missing (None); renderers decide
how missing data is presented. A table checks when made that each key is
in ``atlas.BY_CODE`` (the bundled atlas's regions), each row holds its
columns and each cell is finite. A cell is read as
``table.rows[code][name]``. ``with_column`` is the one way to append a
column; it checks only the columns and cells it adds. ``column_extent``
is the rule for a column's span.

``parse_table`` reads a data row in one step (``plain_numbers``) when
each of its cells is empty or a plain number, and cell by cell with
``parse_number`` otherwise; both give the same values and the same first
bad cell.

All values are immutable after construction: ``rows`` and each row are
read-only mappings, and every operation returns a new table, so tables can
be shared freely across render jobs.
"""

import csv
import io
import math
import re
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Callable, Collection, Mapping, NamedTuple, Sequence

from .atlas import BY_CODE, region_lookup
from .errors import (
    CellParse,
    DuplicateRegion,
    EmptyBinding,
    EmptyColumn,
    MissingColumn,
    NameClash,
    SeriesMismatch,
    UnknownRegion,
)
from .values import value_type

SCALAR = "scalar"
SERIES = "series"


@value_type
class Column(NamedTuple):
    name: str
    kind: str = SCALAR
    periods: tuple[str, ...] = ()


class _TableFields(NamedTuple):
    columns: tuple[Column, ...]
    rows: Mapping[str, Mapping[str, object]]


@value_type
class RegionTable(_TableFields):
    """Immutable region-keyed table of scalar and series columns."""

    __slots__ = ()

    def __new__(cls, columns: tuple[Column, ...],
                rows: Mapping[str, Mapping[str, object]]) -> "RegionTable":
        by_name: dict[str, Column] = {}
        for column in columns:
            cls._check_column(column, by_name)
            by_name[column.name] = column
        if not isinstance(rows, Mapping):
            raise UnknownRegion("rows must map region codes to rows, got a "
                                f"{type(rows).__name__}")
        for code, row in rows.items():
            if code not in BY_CODE:
                raise UnknownRegion(f"row for unknown region {code!r}")
            if not isinstance(row, Mapping):
                raise MissingColumn(f"row {code} is a {type(row).__name__}, "
                                    "not a mapping of column names to cells")
            for name in [*by_name, *row]:
                if (name in by_name) != (name in row):
                    raise MissingColumn(
                        f"row {code} has no cell for column {name!r}"
                        if name in by_name else
                        f"row {code} has a cell for {name!r}, not a column")
            for name, column in by_name.items():
                cls._check_cell(code, column, row[name])
        return cls._checked(columns, {code: dict(row) for code, row in rows.items()})

    @classmethod
    def _checked(cls, columns: tuple[Column, ...],
                 rows: dict[str, dict[str, object]]) -> "RegionTable":
        """A table whose cells are checked already. It wraps ``rows`` and
        each row read-only, so the caller keeps no other hold on them."""
        return tuple.__new__(cls, (columns, MappingProxyType(
            {code: MappingProxyType(row) for code, row in rows.items()})))

    @staticmethod
    def _check_column(column: Column, names: Collection[str]) -> None:
        """A column's name is none of ``names``, and its kind is known."""
        if column.name in names:
            raise NameClash(f"column {column.name!r} already exists")
        if column.kind not in (SCALAR, SERIES):
            raise MissingColumn(f"column {column.name!r} has kind "
                                f"{column.kind!r}, not scalar or series")

    @staticmethod
    def _check_cell(code: str, column: Column, value: Any) -> None:
        """A scalar cell is None or a number a float holds; a series cell
        is a tuple of those, one per period."""
        series = column.kind == SERIES
        if series and value.__class__ is not tuple:
            raise SeriesMismatch(f"{column.name!r} for {code}: "
                                 f"{type(value).__name__}, not a tuple")
        if series and len(value) != len(column.periods):
            raise SeriesMismatch(f"{column.name!r} for {code}: {len(value)} "
                                 f"values, {len(column.periods)} periods")
        for i, v in enumerate(value if series else (value,)):
            try:
                if v is None or math.isfinite(v):
                    continue
            except (TypeError, OverflowError, ValueError):
                pass  # not a number; too large; a signaling NaN Decimal
            where = f"{column.name}:{column.periods[i]}" if series else column.name
            raise CellParse(code, where, f"not a finite number: {v!r}")

    @classmethod
    def _make(cls, fields) -> "RegionTable":  # _replace checks cells too
        return cls(*fields)

    def codes(self) -> tuple[str, ...]:
        return tuple(sorted(self.rows))

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise MissingColumn(f"no column named {name!r}")


@value_type
class ColumnRef(NamedTuple):
    """A resolved column reference.

    References are either a plain column name or "<series>:<period>" naming
    one period of a series column.
    """

    column: Column
    period_index: int | None = None


_THOUSANDS = re.compile(r"[+-]?\d{1,3}(,\d{3})+(\.\d*)?")
_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)")
# A character that no plain number holds. float reads a run of the others
# exactly when _NUMBER matches it, and refuses it otherwise.
_NOT_PLAIN = re.compile(r"[^0-9.+-]")


def parse_number(text: str) -> float | None:
    """Parse one CSV cell: empty or "NA" is missing; "%" and thousands
    separators are stripped. Raises ValueError on anything else non-numeric
    and on a number too large for a float.

    The plain form, a number with no spaces, "%" or commas (every bundled
    snapshot cell), is tried first and read in one step.
    """
    t = text
    if not _NUMBER.fullmatch(t):
        t = t.strip()
        if t == "" or t == "NA":
            return None
        if t.endswith("%"):
            t = t[:-1].strip()
        if "," in t:
            if not _THOUSANDS.fullmatch(t):
                raise ValueError(f"bad thousands grouping: {text!r}")
            t = t.replace(",", "")
        if not _NUMBER.fullmatch(t):
            raise ValueError(f"not a number: {text!r}")
    value = float(t)
    if math.isinf(value):
        raise ValueError(f"number out of range: {text!r}")
    return value


def plain_numbers(cells: list[str]) -> list[float | None] | None:
    """The cells as parse_number reads them when each is empty (None) or
    a finite number in the plain form, tested for the whole row at once;
    else None, and the caller reads each cell with parse_number."""
    if _NOT_PLAIN.search("".join(cells)):
        return None
    try:
        numbers = [float(cell) if cell else None for cell in cells]
    except ValueError:  # such as "-" or "1.2.3"
        return None
    return numbers if math.isfinite(sum(filter(None, numbers))) else None


def parse_table(csv_text: str, region_column: str) -> RegionTable:
    """Parse RFC-4180-style CSV text into a RegionTable.

    The region column may hold USPS codes or full state names (resolved
    case-insensitively); every other header becomes a scalar column.
    Unresolvable region keys are a hard error, never a skipped row.
    """
    text = csv_text.lstrip("﻿")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn(f"empty document, no {region_column!r} header") from None
    header = [h.strip() for h in header]
    if region_column not in header:
        raise MissingColumn(f"no column named {region_column!r}")
    if len(set(header)) != len(header):
        raise NameClash("duplicate header names")
    region_idx = header.index(region_column)
    value_names = [h for i, h in enumerate(header) if i != region_idx]

    rows: dict[str, dict[str, object]] = {}
    for record in reader:
        if not any(map(str.strip, record)):
            continue
        if len(record) > len(header):
            raise MissingColumn("row wider than header at line "
                                f"{reader.line_num}")
        record += [""] * (len(header) - len(record))
        raw_key = record.pop(region_idx).strip()
        code = region_lookup(raw_key).code
        if code in rows:
            raise DuplicateRegion(f"duplicate row for region {code}")
        numbers = plain_numbers(record)
        if numbers is None:
            try:
                numbers = list(map(parse_number, record))
            except ValueError:  # name the first bad cell, in header order
                for name, cell in zip(value_names, record):
                    try:
                        parse_number(cell)
                    except ValueError as exc:
                        raise CellParse(raw_key, name, str(exc)) from None
        rows[code] = dict(zip(value_names, numbers))

    # Neither read returns a non-finite number.
    return RegionTable._checked(tuple(map(Column, value_names)), rows)


def bind_series(table: RegionTable, column_names: Sequence[str],
                series_name: str) -> RegionTable:
    """Collapse named scalar columns into one series column whose period
    labels are the original column names, in the given order.
    """
    if not column_names:
        raise EmptyBinding("no columns named in series binding")
    if len(set(column_names)) != len(column_names):
        raise NameClash("repeated column in series binding")
    by_name = {c.name: c for c in table.columns}
    for name in column_names:
        col = by_name.get(name) or table.column(name)  # raises if absent
        if col.kind != SCALAR:
            raise MissingColumn(f"column {name!r} is not scalar")
    bound = set(column_names)
    survivors = [c for c in table.columns if c.name not in bound]
    if any(c.name == series_name for c in survivors):
        raise NameClash(f"column {series_name!r} already exists")

    kept = [c.name for c in survivors]
    keep, series = _cells_getter(kept), _cells_getter(column_names)
    rows: dict[str, dict[str, object]] = {}
    for code, row in table.rows.items():
        rows[code] = new_row = dict(zip(kept, keep(row)))
        new_row[series_name] = series(row)
    # The series column takes the slot of the first bound column in table
    # order: every column before that one survives, so the slot's index is
    # the same among the survivors.
    first = next(i for i, c in enumerate(table.columns) if c.name in bound)
    survivors.insert(first, Column(series_name, SERIES, tuple(column_names)))
    return RegionTable._checked(tuple(survivors), rows)


def _cells_getter(names: Sequence[str]) -> Callable[[Mapping], tuple]:
    """A row's cells under ``names``, as a tuple (``itemgetter`` of one
    name gives the bare cell)."""
    if len(names) > 1:
        return itemgetter(*names)
    return lambda row: tuple(row[name] for name in names)


def with_column(table: RegionTable,
                *added: tuple[Column, Mapping[str, object]]) -> RegionTable:
    """Append each ``(column, values)`` pair in order, each region's cell
    from ``values``, a tuple for a series; a region without one gets None,
    or all periods None. One new table holds them all; only the added
    columns and cells are checked, as ``RegionTable`` checks them."""
    names = {c.name for c in table.columns}
    for column, _ in added:
        RegionTable._check_column(column, names)
        names.add(column.name)
    missing = [(None,) * len(c.periods) if c.kind == SERIES else None
               for c, _ in added]
    rows: dict[str, dict[str, object]] = {}
    for code, row in table.rows.items():
        rows[code] = row = dict(row)
        for (column, values), empty in zip(added, missing):
            row[column.name] = cell = values.get(code, empty)
            RegionTable._check_cell(code, column, cell)
    return RegionTable._checked(table.columns + tuple(c for c, _ in added), rows)


def resolve_ref(table: RegionTable, ref: str) -> ColumnRef:
    """Resolve a column reference: a column name, or "<series>:<period>"."""
    by_name = {col.name: col for col in table.columns}
    if (col := by_name.get(ref)) is not None:
        return ColumnRef(col)
    if ":" in ref:
        name, _, period = ref.rpartition(":")
        col = by_name.get(name)
        if col is not None and col.kind == SERIES and period in col.periods:
            return ColumnRef(col, col.periods.index(period))
    raise MissingColumn(f"no column named {ref!r}")


def scalar_values(table: RegionTable, ref: str) -> dict[str, float | None]:
    """Per-region values for a scalar column or one series period."""
    r = resolve_ref(table, ref)
    out: dict[str, float | None] = {}
    for code, row in table.rows.items():
        v = row[r.column.name]
        if r.column.kind == SERIES:
            if r.period_index is None:
                raise MissingColumn(f"{ref!r} names a whole series, not a value")
            out[code] = v[r.period_index]  # type: ignore[index]
        else:
            out[code] = v  # type: ignore[assignment]
    return out


def column_extent(table: RegionTable, column: str) -> tuple[float, float]:
    """Min and max over all non-missing values; series columns span every
    region and every period. Raises EmptyColumn when nothing is present.
    """
    r = resolve_ref(table, column)
    cells = [row[r.column.name] for row in table.rows.values()]
    if r.period_index is not None:
        cells = [(cell[r.period_index],) for cell in cells]
    elif r.column.kind != SERIES:
        cells = [(cell,) for cell in cells]
    # One pass over every region's cells: its value, or every period's.
    values = [v for region in cells for v in region if v is not None]
    if not values:
        raise EmptyColumn(f"column {column!r} has no values")
    return (min(values), max(values))
