"""Affine data-to-canvas scales with nice-number ticks.

Every glyph column builds one scale from the full data extent and reuses it
for all of its panels, so axis ticks and positions are identical down the
whole chart.
"""

import math
from typing import NamedTuple, Sequence

from .errors import BadExtent, DomainOverflow
from .values import value_type

MAX_LABELS = 6  # time-series period labels kept by thin_labels


@value_type
class Scale(NamedTuple):
    domain: tuple[float, float]
    range: tuple[float, float]
    ticks: tuple[float, ...]

    def map(self, value: float) -> float:
        d0, d1 = self.domain
        r0, r1 = self.range
        # Division first: x/x is exactly 1.0, so domain endpoints land
        # exactly on the range endpoints.
        return r0 + (value - d0) / (d1 - d0) * (r1 - r0)

    def with_range(self, new_range: tuple[float, float]) -> "Scale":
        """Same domain and ticks, re-targeted to another canvas interval.

        The new range may run high-to-low, which is how vertical axes flip.
        """
        return Scale(self.domain, new_range, self.ticks)

    def check(self, value: float) -> float:
        """Raise DomainOverflow when a value falls outside the domain.

        Scales are built from full extents, so an overflow is a pipeline bug,
        not a data condition.
        """
        d0, d1 = self.domain
        tol = 1e-9 * max(1.0, abs(d0), abs(d1))
        if value < d0 - tol or value > d1 + tol:
            raise DomainOverflow(f"value {value} outside domain ({d0}, {d1})")
        return value

    def positions(self, values: Sequence[float | None]) -> list[float | None]:
        """``map(check(v))`` of each value in order; None stays None.

        The domain is checked once, on the least and greatest present
        value. Only when that fails is each value checked in turn, so the
        first offender is the one reported.
        """
        present = [v for v in values if v is not None]
        if present:
            try:
                self.check(min(present))
                self.check(max(present))
            except DomainOverflow:
                for v in present:
                    self.check(v)
                raise
        d0, d1 = self.domain
        r0, r1 = self.range
        dspan, rspan = d1 - d0, r1 - r0  # the operations of map, in order
        return [None if v is None else r0 + (v - d0) / dspan * rspan
                for v in values]


def nice_step(raw: float) -> float:
    """The {1,2,5}*10^k step closest to ``raw`` (ties go to the smaller)."""
    if raw <= 0 or not math.isfinite(raw):
        raise BadExtent(f"bad raw step {raw}")
    exp = math.floor(math.log10(raw))
    best = None
    for k in (exp - 1, exp, min(exp + 1, 308)):  # 10.0 ** 309 overflows
        for m in (1.0, 2.0, 5.0):
            candidate = m * 10.0 ** k
            key = (abs(candidate - raw), candidate)
            if best is None or key < best[0]:
                best = (key, candidate)
    assert best is not None
    return best[1]


def _ticks_within(lo: float, hi: float, step: float) -> tuple[float, ...]:
    # The index tolerance keeps endpoints that sit on the grid despite float
    # noise; clamping then pins such ticks exactly onto the domain bound. On
    # a domain far from zero, step*1e-9 is below one ulp, so a few ulps of
    # the domain's magnitude set the floor.
    eps = max(step * 1e-9, 4 * math.ulp(max(abs(lo), abs(hi))))
    i0 = math.ceil((lo - eps) / step)
    i1 = math.floor((hi + eps) / step)
    return tuple(min(max(i * step, lo), hi) for i in range(i0, i1 + 1))


def linear_scale(extent: tuple[float, float], range_: tuple[float, float],
                 target_ticks: int = 5) -> Scale:
    """Build a scale over ``extent`` mapped onto ``range_``.

    A degenerate extent (min == max) is padded by +-max(1, |min|*0.05).
    Ticks use the nice-step rule and are clipped to the domain.
    """
    lo, hi = extent
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise BadExtent(f"non-finite extent {extent}")
    if hi < lo:
        raise BadExtent(f"inverted extent {extent}")
    r0, r1 = range_
    if not (math.isfinite(r0) and math.isfinite(r1)) or not r0 < r1:
        raise BadExtent(f"bad range {range_}")
    if lo == hi:
        pad = max(1.0, abs(lo) * 0.05)
        lo, hi = lo - pad, hi + pad
    if not math.isfinite(hi - lo):
        raise BadExtent(f"extent {extent} is wider than a float can hold")
    step = nice_step((hi - lo) / max(1, target_ticks))
    return Scale((lo, hi), (r0, r1), _ticks_within(lo, hi, step))


def format_tick(value: float) -> str:
    """Deterministic short label: integers bare, else trimmed decimals."""
    if value == 0:
        return "0"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6f}".rstrip("0").rstrip(".")


def thin_labels(n: int) -> tuple[int, ...]:
    """Indices of at most MAX_LABELS evenly stepped labels out of ``n``."""
    if n <= 0:
        return ()
    step = -(-n // MAX_LABELS)
    return tuple(range(0, n, step))
