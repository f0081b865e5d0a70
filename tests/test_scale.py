from __future__ import annotations

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from micromaps.errors import BadExtent, DomainOverflow
from micromaps.scale import (
    Scale,
    format_tick,
    linear_scale,
    nice_step,
    thin_labels,
)


def oracle_step(raw: float) -> float:
    """Exhaustive search over {1,2,5}*10^k; ties toward the smaller step."""
    candidates = sorted(m * 10.0 ** k for k in range(-12, 13) for m in (1, 2, 5))
    return min(candidates, key=lambda c: (abs(c - raw), c))


def oracle_ticks(lo: float, hi: float,
                 step: float) -> tuple[list[float], list[float]]:
    """Grid ticks i*step within step*1e-9 of [lo, hi], clamped onto it.

    Returns (required, optional). Rounding the grid index or the product
    i*step moves a tick by a few ulps of the domain's magnitude, which can
    exceed step*1e-9 (one ulp of 97868.01 is 1.5e-11, step 0.002); a tick
    within that slack of the tolerance edge may fall either way.
    """
    tol = step * 1e-9
    slack = 4 * math.ulp(max(abs(lo), abs(hi), step))
    required: list[float] = []
    optional: list[float] = []
    i = math.floor(lo / step) - 2
    while i * step <= hi + 2 * step:
        outside = max(lo - i * step, i * step - hi)
        tick = min(max(i * step, lo), hi)
        if outside <= tol - slack:
            required.append(tick)
        elif outside <= tol + slack:
            optional.append(tick)
        i += 1
    return required, optional


def test_ticks_zero_to_hundred():
    scale = linear_scale((0.0, 100.0), (0.0, 1.0), target_ticks=5)
    assert oracle_step(100.0 / 5) == 20.0
    assert scale.ticks == (0.0, 20.0, 40.0, 60.0, 80.0, 100.0)


def test_ticks_negative_extent():
    scale = linear_scale((-33.0, 12.0), (0.0, 1.0), target_ticks=5)
    assert oracle_step(45.0 / 5) == 10.0
    assert scale.ticks == (-30.0, -20.0, -10.0, 0.0, 10.0)


def test_degenerate_extent_padding():
    scale = linear_scale((5.0, 5.0), (0.0, 1.0))
    assert scale.domain == (4.0, 6.0)
    scale = linear_scale((100.0, 100.0), (0.0, 1.0))
    assert scale.domain == (95.0, 105.0)
    scale = linear_scale((0.0, 0.0), (0.0, 1.0))
    assert scale.domain == (-1.0, 1.0)


def test_bad_extents():
    for extent in ((float("nan"), 1.0), (0.0, float("inf")), (2.0, 1.0)):
        with pytest.raises(BadExtent):
            linear_scale(extent, (0.0, 1.0))
    with pytest.raises(BadExtent):
        linear_scale((0.0, 1.0), (1.0, 0.0))


def test_map_endpoints_and_affinity():
    scale = linear_scale((10.0, 30.0), (100.0, 500.0))
    assert scale.map(10.0) == 100.0
    assert scale.map(30.0) == 500.0
    assert abs(scale.map(20.0) - 300.0) < 1e-9


def test_with_range_flips_for_vertical_axes():
    scale = linear_scale((0.0, 10.0), (0.0, 1.0)).with_range((200.0, 100.0))
    assert scale.map(0.0) == 200.0
    assert scale.map(10.0) == 100.0
    assert scale.ticks == linear_scale((0.0, 10.0), (0.0, 1.0)).ticks


def test_check_overflow():
    scale = linear_scale((0.0, 10.0), (0.0, 1.0))
    scale.check(0.0)
    scale.check(10.0)
    with pytest.raises(DomainOverflow):
        scale.check(10.5)
    with pytest.raises(DomainOverflow):
        scale.check(-0.5)


def exact(values: list[float | None]) -> list[str | None]:
    """Each float's bits (float.hex tells 0.0 from -0.0), None kept."""
    return [None if v is None else v.hex() for v in values]


@settings(max_examples=300)
@given(lo=st.floats(-1e6, 1e6), span=st.floats(1e-3, 1e6),
       r0=st.floats(-1e4, 1e4), r1=st.floats(-1e4, 1e4),
       fractions=st.lists(st.one_of(st.none(), st.floats(-0.3, 1.3)),
                          max_size=30))
@example(lo=0.0, span=10.0, r0=300.0, r1=100.0, fractions=[0.0, None, 1.0])
@example(lo=-5.0, span=10.0, r0=0.0, r1=1.0, fractions=[0.5, 1.2, -0.1])
@example(lo=-5.0, span=10.0, r0=0.0, r1=1.0, fractions=[None, None])
def test_positions_equal_check_then_map(lo, span, r0, r1, fractions):
    scale = Scale((lo, lo + span), (r0, r1), ())
    values = [None if f is None else lo + f * span for f in fractions]
    try:
        expected = [None if v is None else scale.map(scale.check(v))
                    for v in values]
    except DomainOverflow as exc:
        with pytest.raises(DomainOverflow) as info:
            scale.positions(values)
        assert str(info.value) == str(exc)  # the first offender's message
    else:
        assert exact(scale.positions(values)) == exact(expected)


@settings(max_examples=200)
@given(
    lo=st.floats(-1e6, 1e6),
    span=st.floats(1e-3, 1e6),
    target=st.integers(2, 10),
)
def test_scale_properties(lo, span, target):
    # Keep the domain well-conditioned (span not vanishing against the
    # magnitude), as chart extents are; float64 cannot do better anyway.
    assume(span >= abs(lo) * 1e-4)
    hi = lo + span
    scale = linear_scale((lo, hi), (0.0, 100.0), target_ticks=target)
    d0, d1 = scale.domain
    assert d0 < d1
    assert scale.map(d0) == 0.0
    assert scale.map(d1) == 100.0
    mid = scale.map(d0 + (d1 - d0) / 2.0)
    assert abs(mid - 50.0) <= 1e-9 * max(1.0, abs(mid))
    assert list(scale.ticks) == sorted(set(scale.ticks))
    tol = (d1 - d0) * 1e-9
    for tick in scale.ticks:
        assert d0 - tol <= tick <= d1 + tol


@settings(max_examples=200)
@given(raw=st.floats(1e-9, 1e9))
def test_nice_step_matches_exhaustive_oracle(raw):
    assert nice_step(raw) == oracle_step(raw)


@settings(max_examples=100)
@given(lo=st.floats(-1e5, 1e5), span=st.floats(0.01, 1e5))
# The end tick 97868.01 = 48934005 * 0.002 sits within an ulp of hi.
@example(lo=97868.0, span=0.01)
# The start tick -66647.9 sits within an ulp of lo.
@example(lo=-66647.9, span=0.03)
# hi - lo rounds off span/5 = 0.015, the tie between steps 0.01 and 0.02.
@example(lo=-29195.999, span=0.075)
def test_ticks_match_grid_oracle(lo, span):
    hi = lo + span
    scale = linear_scale((lo, hi), (0.0, 1.0), target_ticks=5)
    step = nice_step((hi - lo) / 5)  # the step of the scale's own domain
    required, optional = oracle_ticks(lo, hi, step)
    assert list(scale.ticks) == sorted(scale.ticks)
    assert set(required) <= set(scale.ticks) <= set(required) | set(optional)


@settings(max_examples=200)
@given(index=st.integers(-10**7, 10**7), exp=st.integers(-3, 3),
       mantissa=st.sampled_from((1.0, 2.0, 5.0)), steps=st.integers(1, 12))
# step*1e-9 is below one ulp of 66647.9: a tolerance of step*1e-9 alone
# dropped the start tick -66647.9 = -13329580 * 0.005.
@example(index=-13329580, exp=-3, mantissa=5.0, steps=6)
def test_on_grid_endpoints_are_ticks(index, exp, mantissa, steps):
    grid = mantissa * 10.0 ** exp
    lo, hi = index * grid, (index + steps) * grid
    assume(lo < hi)
    scale = linear_scale((lo, hi), (0.0, 1.0))
    step = nice_step((hi - lo) / 5)
    for end in (lo, hi):
        if round(end / step) * step == end:
            assert end in scale.ticks


def test_format_tick():
    assert format_tick(0.0) == "0"
    assert format_tick(-0.0) == "0"
    assert format_tick(20.0) == "20"
    assert format_tick(-30.0) == "-30"
    assert format_tick(0.5) == "0.5"
    assert format_tick(2.25) == "2.25"


def test_thin_labels():
    assert thin_labels(13) == (0, 3, 6, 9, 12)
    assert thin_labels(10) == (0, 2, 4, 6, 8)
    assert thin_labels(4) == (0, 1, 2, 3)
    assert thin_labels(0) == ()
    assert len(thin_labels(200)) <= 6


@pytest.mark.parametrize("raw", [0.0, -1.0, float("nan"), float("inf")])
def test_nice_step_rejects_a_bad_raw_step(raw):
    with pytest.raises(BadExtent, match="^bad raw step "):
        nice_step(raw)


def test_extent_whose_step_underflows_is_bad_extent():
    # The narrowest extent there is: its width over five ticks rounds to 0.
    with pytest.raises(BadExtent, match="^bad raw step 0.0$"):
        linear_scale((0.0, 5e-324), (0.0, 100.0))
