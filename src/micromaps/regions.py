"""The chart regions, read from the bundled atlas: the 50 states plus
Washington, DC.

Each feature of ``data/us_atlas.json`` names one region in its properties:
``code`` (USPS), ``name`` and ``fips`` (the 2-digit Census state code).
Lookup is case-insensitive and accepts codes, full names, FIPS strings or
the two Washington DC aliases.
"""

import json
from pathlib import Path
from typing import NamedTuple

from .errors import UnknownRegion
from .values import value_type


@value_type
class RegionMeta(NamedTuple):
    code: str
    name: str
    fips: str


# Read once per process; load_default_atlas loads its geometry from it too.
ATLAS_DOCUMENT = (Path(__file__).parent / "data" / "us_atlas.json").read_text("utf-8")

_REGIONS = sorted((RegionMeta(**feature["properties"])
                   for feature in json.loads(ATLAS_DOCUMENT)["features"]),
                  key=lambda meta: meta.fips)

BY_CODE: dict[str, RegionMeta] = {m.code: m for m in _REGIONS}

ALL_CODES: tuple[str, ...] = tuple(sorted(BY_CODE))


def _normalize(key: str) -> str:
    # Punctuation-insensitive so "Washington, D.C." matches.
    return " ".join(key.replace(".", "").replace(",", " ").lower().split())


_LOOKUP: dict[str, RegionMeta] = {
    key: meta for meta in _REGIONS
    for key in (_normalize(meta.code), _normalize(meta.name), meta.fips)}
for _alias in ("Washington DC", "Washington D.C."):
    _LOOKUP[_normalize(_alias)] = BY_CODE["DC"]


def region_lookup(key: str) -> RegionMeta:
    """Resolve a USPS code, full name, or FIPS code to region metadata.

    Raises UnknownRegion for anything outside the atlas's regions
    (territories, typos, county names).
    """
    meta = _LOOKUP.get(_normalize(key))
    if meta is None:
        raise UnknownRegion(f"unknown region: {key!r}")
    return meta
