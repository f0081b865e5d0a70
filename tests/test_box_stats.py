from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from micromaps.errors import EmptySamples
from micromaps.glyphs import BoxStats, compute_box_stats


def numpy_oracle(samples) -> BoxStats:
    """Independent reimplementation on numpy: percentile with linear
    interpolation, 1.5*IQR fences, whiskers clamped to the box.
    """
    data = np.sort(np.asarray(samples, dtype=float))
    q1, med, q3 = np.percentile(data, [25.0, 50.0, 75.0], method="linear")
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = data[(data >= lo_fence) & (data <= hi_fence)]
    whisker_lo = min(float(inside.min()), float(q1))
    whisker_hi = max(float(inside.max()), float(q3))
    outliers = tuple(float(v) for v in data[(data < lo_fence) | (data > hi_fence)])
    return BoxStats(float(q1), float(med), float(q3), whisker_lo, whisker_hi,
                    outliers)


def assert_close(a: BoxStats, b: BoxStats, tol: float = 1e-9) -> None:
    assert abs(a.q1 - b.q1) <= tol
    assert abs(a.median - b.median) <= tol
    assert abs(a.q3 - b.q3) <= tol
    assert abs(a.whisker_lo - b.whisker_lo) <= tol
    assert abs(a.whisker_hi - b.whisker_hi) <= tol
    assert len(a.outliers) == len(b.outliers)
    for x, y in zip(a.outliers, b.outliers):
        assert abs(x - y) <= tol


def test_one_through_nine():
    stats = compute_box_stats(list(range(1, 10)))
    assert stats == BoxStats(3.0, 5.0, 7.0, 1.0, 9.0, ())
    assert_close(stats, numpy_oracle(range(1, 10)))


def test_single_sample_is_degenerate():
    stats = compute_box_stats([5.0])
    assert stats == BoxStats(5.0, 5.0, 5.0, 5.0, 5.0, ())


def test_high_outlier():
    # q1=2, q3=4, IQR=2, upper fence 7: 100 is fenced out.
    stats = compute_box_stats([1, 2, 3, 4, 100])
    assert stats.q1 == 2.0
    assert stats.q3 == 4.0
    assert stats.whisker_hi == 4.0
    assert stats.whisker_lo == 1.0
    assert stats.outliers == (100.0,)
    assert_close(stats, numpy_oracle([1, 2, 3, 4, 100]))


def test_whisker_clamps_to_box_for_lopsided_sample():
    # Every sample below q1 is fenced out; the whisker falls back to q1.
    stats = compute_box_stats([0.0, 100.0, 100.0, 100.0])
    assert stats.q1 == 75.0
    assert stats.whisker_lo == 75.0
    assert stats.outliers == (0.0,)
    assert_close(stats, numpy_oracle([0.0, 100.0, 100.0, 100.0]))


def test_empty_samples():
    with pytest.raises(EmptySamples):
        compute_box_stats([])
    with pytest.raises(EmptySamples):
        compute_box_stats([None, None])


def test_order_does_not_matter():
    assert compute_box_stats([3, 1, 2]) == compute_box_stats([1, 2, 3])


def test_oracle_equivalence_on_seeded_random_samples():
    rng = random.Random(4242)
    for _ in range(250):
        n = rng.randint(1, 500)
        samples = [rng.uniform(-1e4, 1e4) for _ in range(n)]
        assert_close(compute_box_stats(samples), numpy_oracle(samples))


@settings(max_examples=150)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=80))
# Interpolating between equal subnormals rounded below them.
@example([5e-324, 5e-324])
@example([0.0, 5e-324, 5e-324])
def test_box_stats_invariants(samples):
    stats = compute_box_stats(samples)
    assert stats.whisker_lo <= stats.q1 <= stats.median
    assert stats.median <= stats.q3 <= stats.whisker_hi
    for outlier in stats.outliers:
        assert outlier < stats.whisker_lo or outlier > stats.whisker_hi
    inside = [s for s in samples
              if stats.whisker_lo <= s <= stats.whisker_hi]
    assert len(inside) + len(stats.outliers) == len(samples)
