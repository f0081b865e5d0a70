"""Static registry of the 51 chart regions: the 50 states plus Washington, DC.

Codes are USPS abbreviations, FIPS codes are the 2-digit Census state codes.
Lookup is case-insensitive and accepts codes, full names, or FIPS strings.
"""

from typing import NamedTuple

from .errors import UnknownRegion
from .values import value_type


@value_type
class RegionMeta(NamedTuple):
    code: str
    name: str
    fips: str


_REGISTRY: tuple[RegionMeta, ...] = (
    RegionMeta("AL", "Alabama", "01"),
    RegionMeta("AK", "Alaska", "02"),
    RegionMeta("AZ", "Arizona", "04"),
    RegionMeta("AR", "Arkansas", "05"),
    RegionMeta("CA", "California", "06"),
    RegionMeta("CO", "Colorado", "08"),
    RegionMeta("CT", "Connecticut", "09"),
    RegionMeta("DE", "Delaware", "10"),
    RegionMeta("DC", "District of Columbia", "11"),
    RegionMeta("FL", "Florida", "12"),
    RegionMeta("GA", "Georgia", "13"),
    RegionMeta("HI", "Hawaii", "15"),
    RegionMeta("ID", "Idaho", "16"),
    RegionMeta("IL", "Illinois", "17"),
    RegionMeta("IN", "Indiana", "18"),
    RegionMeta("IA", "Iowa", "19"),
    RegionMeta("KS", "Kansas", "20"),
    RegionMeta("KY", "Kentucky", "21"),
    RegionMeta("LA", "Louisiana", "22"),
    RegionMeta("ME", "Maine", "23"),
    RegionMeta("MD", "Maryland", "24"),
    RegionMeta("MA", "Massachusetts", "25"),
    RegionMeta("MI", "Michigan", "26"),
    RegionMeta("MN", "Minnesota", "27"),
    RegionMeta("MS", "Mississippi", "28"),
    RegionMeta("MO", "Missouri", "29"),
    RegionMeta("MT", "Montana", "30"),
    RegionMeta("NE", "Nebraska", "31"),
    RegionMeta("NV", "Nevada", "32"),
    RegionMeta("NH", "New Hampshire", "33"),
    RegionMeta("NJ", "New Jersey", "34"),
    RegionMeta("NM", "New Mexico", "35"),
    RegionMeta("NY", "New York", "36"),
    RegionMeta("NC", "North Carolina", "37"),
    RegionMeta("ND", "North Dakota", "38"),
    RegionMeta("OH", "Ohio", "39"),
    RegionMeta("OK", "Oklahoma", "40"),
    RegionMeta("OR", "Oregon", "41"),
    RegionMeta("PA", "Pennsylvania", "42"),
    RegionMeta("RI", "Rhode Island", "44"),
    RegionMeta("SC", "South Carolina", "45"),
    RegionMeta("SD", "South Dakota", "46"),
    RegionMeta("TN", "Tennessee", "47"),
    RegionMeta("TX", "Texas", "48"),
    RegionMeta("UT", "Utah", "49"),
    RegionMeta("VT", "Vermont", "50"),
    RegionMeta("VA", "Virginia", "51"),
    RegionMeta("WA", "Washington", "53"),
    RegionMeta("WV", "West Virginia", "54"),
    RegionMeta("WI", "Wisconsin", "55"),
    RegionMeta("WY", "Wyoming", "56"),
)

ALL_CODES: tuple[str, ...] = tuple(sorted(m.code for m in _REGISTRY))

BY_CODE: dict[str, RegionMeta] = {m.code: m for m in _REGISTRY}


def _normalize(key: str) -> str:
    # Punctuation-insensitive so "Washington, D.C." matches.
    return " ".join(key.replace(".", "").replace(",", " ").lower().split())


def _build_lookup() -> dict[str, RegionMeta]:
    table: dict[str, RegionMeta] = {}
    for meta in _REGISTRY:
        table[_normalize(meta.code)] = meta
        table[_normalize(meta.name)] = meta
        table[meta.fips] = meta
    dc = BY_CODE["DC"]
    table[_normalize("Washington DC")] = dc
    table[_normalize("Washington D.C.")] = dc
    return table


_LOOKUP = _build_lookup()


def region_lookup(key: str) -> RegionMeta:
    """Resolve a USPS code, full name, or FIPS code to region metadata.

    Raises UnknownRegion for anything outside the 51 regions (territories,
    typos, county names).
    """
    meta = _LOOKUP.get(_normalize(key))
    if meta is None:
        raise UnknownRegion(f"unknown region: {key!r}")
    return meta
