"""The six built-in demo charts, one per bundled case study variant.

Every demo is a chart config shipped in ``data/demos/<name>.json``, read
with ``parse_config`` and loaded with ``adapters.load_table`` as
``micromaps render --config`` reads and loads any config. Each
``data.path`` names a snapshot file, found in the snapshot directory, and
so do the ``data.samples`` and ``data.join`` paths: ``micromaps demo X``
renders what ``micromaps render --config data/demos/X.json --data
<snapshot dir>/<data.path>`` renders.
"""

from pathlib import Path

from .adapters import default_data_dir, load_table, snapshot_text
from .atlas import ALL_CODES
from .compose import ChartSpec
from .config import parse_config
from .errors import MicromapError, SnapshotError, SpecError
from .table import RegionTable

DEMO_NAMES = ("acs-dot", "acs-timeseries", "acs-pew", "qcew-arrows",
              "ers-snap", "ers-boxscatter")

PEW_FILE = "pew_small_government.csv"

PEW_INSTRUCTIONS = f"""\
The acs-pew demo joins a user-supplied Pew Research column that cannot be
bundled (the dataset requires registration). To run it:

  1. Obtain the 2014 Religious Landscape Study state table from
     https://www.pewresearch.org/ and export the share preferring a
     smaller government as a CSV with headers:

         state,pro_small_government

     (state = USPS code or full name; value = percent, e.g. 52.1)

  2. Save it as {PEW_FILE} in the data directory (the bundled one,
     or the directory passed via --data).

  3. Re-run: micromaps demo acs-pew
"""

CONFIG_DIR = Path(__file__).parent / "data" / "demos"


def build_demo(name: str, snapshot_dir: Path | None = None,
               ) -> tuple[ChartSpec, RegionTable]:
    """A demo's spec and table, loaded from the snapshot directory.

    A fault in a snapshot file is a ``SnapshotError`` that names it, and
    every snapshot covers every region of ``atlas.ALL_CODES``.
    """
    if name not in DEMO_NAMES:
        raise KeyError(f"unknown demo {name!r}; choose from {DEMO_NAMES}")
    config = parse_config((CONFIG_DIR / f"{name}.json").read_text("utf-8"))
    directory = Path(snapshot_dir) if snapshot_dir is not None else default_data_dir()
    text = snapshot_text(config.data_path, directory)
    try:
        table = load_table(config, text, directory)
    except (SnapshotError, SpecError):
        raise
    except MicromapError as exc:
        raise SnapshotError(config.data_path, str(exc)) from None
    if len(table.rows) != len(ALL_CODES):
        raise SnapshotError(config.data_path, f"expected {len(ALL_CODES)} "
                                              f"regions, got {len(table.rows)}")
    return config.spec, table
