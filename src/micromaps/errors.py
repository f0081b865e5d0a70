"""Exception types raised across the package.

Every error is a subclass of :class:`MicromapError` so callers (and the CLI)
can catch one base type. Errors that carry structured context expose it as
attributes in addition to the message.
"""


class MicromapError(Exception):
    """Base class for all errors raised by this package."""


# --- table ingestion ---------------------------------------------------------

class DuplicateRegion(MicromapError):
    """Two input rows resolve to the same region."""


class CellParse(MicromapError):
    """A cell could not be parsed as a number."""

    def __init__(self, row: str, column: str, detail: str = ""):
        self.row = row
        self.column = column
        msg = f"cannot parse cell (row {row!r}, column {column!r})"
        super().__init__(msg + (f": {detail}" if detail else ""))


class MissingColumn(MicromapError):
    """A referenced column does not exist in the table."""


class NameClash(MicromapError):
    """A new column name collides with an existing one."""


class EmptyBinding(MicromapError):
    """A series binding named no columns."""


class EmptyColumn(MicromapError):
    """A column holds no non-missing values."""


# --- regions and atlas -------------------------------------------------------

class UnknownRegion(MicromapError):
    """A key is none of the bundled atlas's regions (atlas.region_lookup)."""


class AtlasParse(MicromapError):
    """The atlas document is malformed."""


class IncompleteAtlas(MicromapError):
    """The atlas document does not cover every region of atlas.ALL_CODES."""


# --- layout and scales -------------------------------------------------------

class EmptySort(MicromapError):
    """No region carries a sortable value."""


class BadExtent(MicromapError):
    """A scale was requested over a non-finite extent."""


class EmptySamples(MicromapError):
    """Box statistics were requested for an empty sample."""


class DomainOverflow(MicromapError):
    """A value fell outside a scale's domain; signals a pipeline bug."""


class SeriesMismatch(MicromapError):
    """Series values do not line up with the shared period labels."""


# --- chart assembly ----------------------------------------------------------

class SpecError(MicromapError):
    """A chart spec or config value is invalid, or does not match the table.

    ``path`` is the config path of the offending value, for specs built
    through the Python API too.
    """

    def __init__(self, path: str, detail: str):
        self.path = path
        super().__init__(f"{path}: {detail}")


class BadGeometry(MicromapError):
    """A scene contains a non-finite coordinate or style size."""


class BadBreaks(MicromapError):
    """Choropleth class boundaries are not strictly increasing."""


# --- configuration and data loading ------------------------------------------

class ConfigError(MicromapError):
    """The config document cannot be decoded."""


class ConfigSyntax(ConfigError):
    """The config document is not valid JSON."""

    def __init__(self, line: int, col: int, detail: str):
        self.line = line
        self.col = col
        super().__init__(f"config syntax error at line {line}, column {col}: {detail}")


class UnknownKey(MicromapError):
    """The config document contains a key outside the schema."""

    def __init__(self, path: str):
        self.path = path
        super().__init__(f"unknown key: {path}")


class SnapshotError(MicromapError):
    """A demo's snapshot, or a config's samples or join file, is missing
    or ill-formed. The message is ``<file>: <detail>``."""

    def __init__(self, filename: str, detail: str, missing: bool = False):
        self.filename = filename
        self.missing = missing
        super().__init__(f"{filename}: {detail}")
