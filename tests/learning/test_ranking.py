"""Unit tests for gain-ratio feature ranking."""

import numpy as np
import pytest

from repro.learning.ranking import rank_features
from tests.oracles.gain_ratio import gain_ratio


class TestGainRatio:
    def test_perfect_separator(self):
        column = np.array([0.0, 0.1, 0.2, 5.0, 5.1, 5.2])
        y = np.array([0, 0, 0, 1, 1, 1])
        assert gain_ratio(column, y) == pytest.approx(1.0)

    def test_constant_column(self):
        assert gain_ratio(np.ones(10), np.array([0, 1] * 5)) == 0.0

    def test_uninformative_column(self):
        rng = np.random.default_rng(0)
        column = rng.random(400)
        y = rng.integers(0, 2, size=400)
        assert gain_ratio(column, y) < 0.15

    def test_empty(self):
        assert gain_ratio(np.array([]), np.array([])) == 0.0

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            column = rng.normal(size=30)
            y = rng.integers(0, 2, size=30)
            assert 0.0 <= gain_ratio(column, y) <= 1.0

    def test_partial_separator_between_extremes(self):
        # Interleaved labels: informative but not perfectly separable.
        column = np.arange(8, dtype=float)
        y = np.array([0, 0, 1, 0, 1, 1, 0, 1])
        value = gain_ratio(column, y)
        assert 0.05 < value < 1.0


class TestRankFeatures:
    def _data(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        y = np.array([0] * (n // 2) + [1] * (n // 2))
        strong = y * 4.0 + rng.normal(0, 0.5, n)
        weak = y * 1.0 + rng.normal(0, 2.0, n)
        noise = rng.normal(size=n)
        return np.column_stack([noise, weak, strong]), y

    def test_ordering(self):
        X, y = self._data()
        ranked = rank_features(X, y, ["noise", "weak", "strong"], k=5)
        assert ranked[0].name == "strong"
        assert ranked[-1].name == "noise"

    def test_rank_means_start_at_one(self):
        X, y = self._data()
        ranked = rank_features(X, y, ["a", "b", "c"], k=5)
        assert ranked[0].rank_mean >= 1.0
        assert ranked[0].rank_mean <= 1.5  # strong feature wins every fold

    def test_stds_nonnegative(self):
        X, y = self._data()
        for row in rank_features(X, y, ["a", "b", "c"], k=5):
            assert row.gain_ratio_std >= 0.0
            assert row.rank_std >= 0.0

    def test_names_length_checked(self):
        X, y = self._data()
        with pytest.raises(ValueError, match="names length"):
            rank_features(X, y, ["only", "two"], k=5)

    def test_deterministic(self):
        X, y = self._data()
        first = rank_features(X, y, ["a", "b", "c"], k=5, seed=3)
        second = rank_features(X, y, ["a", "b", "c"], k=5, seed=3)
        assert [(r.name, r.rank_mean) for r in first] == [
            (r.name, r.rank_mean) for r in second
        ]
