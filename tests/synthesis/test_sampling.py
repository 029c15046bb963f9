"""Unit + property tests for the calibrated sampling helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synthesis.sampling import (
    bounded_int,
    bounded_sample,
    lognormal_bounded,
)


class TestBoundedSample:
    def test_degenerate_range(self, rng):
        assert bounded_sample(rng, 5.0, 5.0, 5.0) == 5.0
        assert bounded_sample(rng, 5.0, 4.0, 5.0) == 5.0

    def test_mean_pinned(self):
        rng = np.random.default_rng(0)
        draws = [bounded_sample(rng, 2, 74, 6) for _ in range(5000)]
        assert np.mean(draws) == pytest.approx(6.0, rel=0.15)

    @settings(max_examples=50, deadline=None)
    @given(
        low=st.floats(0, 100, allow_nan=False),
        span=st.floats(0.1, 1000, allow_nan=False),
        frac=st.floats(0.01, 0.99),
        seed=st.integers(0, 10**6),
    )
    def test_bounds_respected_property(self, low, span, frac, seed):
        rng = np.random.default_rng(seed)
        high = low + span
        mean = low + frac * span
        value = bounded_sample(rng, low, high, mean)
        assert low <= value <= high

    def test_mean_clipped_to_range(self, rng):
        value = bounded_sample(rng, 0, 10, 99)  # mean outside range
        assert 0 <= value <= 10


class TestBoundedInt:
    def test_integer_and_inclusive(self):
        rng = np.random.default_rng(3)
        draws = [bounded_int(rng, 0, 18, 1) for _ in range(2000)]
        assert all(isinstance(d, int) for d in draws)
        assert min(draws) >= 0
        assert max(draws) <= 18

    def test_degenerate(self, rng):
        assert bounded_int(rng, 4, 4, 4) == 4


class TestLognormalBounded:
    def test_clipping(self):
        rng = np.random.default_rng(1)
        draws = [lognormal_bounded(rng, 0.5, 4061.0, 123.0)
                 for _ in range(3000)]
        assert min(draws) >= 0.5
        assert max(draws) <= 4061.0

    def test_heavy_tail_shape(self):
        rng = np.random.default_rng(2)
        draws = np.array(
            [lognormal_bounded(rng, 0.5, 4061.0, 123.0) for _ in range(5000)]
        )
        # Log-normal: median well below mean.
        assert np.median(draws) < np.mean(draws)

    def test_degenerate(self, rng):
        assert lognormal_bounded(rng, 7.0, 7.0, 7.0) == 7.0
