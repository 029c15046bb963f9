"""Unit + property tests for the MDL discretization reference, and the
production gain-ratio ranking checked against it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learning.ranking import rank_features
from tests.oracles.mdl_discretize import (
    discretize,
    mdl_cut_points,
    mdl_gain_ratio,
)


def _bimodal(n=200, seed=0):
    rng = np.random.default_rng(seed)
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    col = np.concatenate([
        rng.normal(-2, 1, n // 2), rng.normal(2, 1, n // 2)
    ])
    return col, y


class TestMdlCutPoints:
    def test_separable_gets_cut(self):
        col, y = _bimodal()
        cuts = mdl_cut_points(col, y)
        assert cuts
        assert -1.5 < cuts[0] < 1.5  # between the modes

    def test_noise_gets_no_cuts(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=300)
        y = rng.integers(0, 2, size=300)
        assert mdl_cut_points(col, y) == []

    def test_constant_column(self):
        y = np.array([0, 1] * 20)
        assert mdl_cut_points(np.ones(40), y) == []

    def test_three_cluster_column_gets_multiple_cuts(self):
        rng = np.random.default_rng(2)
        col = np.concatenate([
            rng.normal(-5, 0.5, 100), rng.normal(0, 0.5, 100),
            rng.normal(5, 0.5, 100),
        ])
        y = np.array([0] * 100 + [1] * 100 + [0] * 100)
        cuts = mdl_cut_points(col, y)
        assert len(cuts) >= 2

    def test_cuts_sorted(self):
        col, y = _bimodal(400, seed=3)
        cuts = mdl_cut_points(col, y)
        assert cuts == sorted(cuts)

    def test_tiny_input(self):
        assert mdl_cut_points(np.array([1.0, 2.0]),
                              np.array([0, 1])) == []


class TestDiscretize:
    def test_bins(self):
        bins = discretize(np.array([0.0, 1.5, 3.0]), [1.0, 2.0])
        assert list(bins) == [0, 1, 2]

    def test_no_cuts_single_bin(self):
        bins = discretize(np.array([1.0, 2.0]), [])
        assert list(bins) == [0, 0]


class TestMdlGainRatio:
    def test_informative_high(self):
        col, y = _bimodal()
        assert mdl_gain_ratio(col, y) > 0.5

    def test_noise_zero(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=300)
        y = rng.integers(0, 2, size=300)
        assert mdl_gain_ratio(col, y) == 0.0

    def test_empty(self):
        assert mdl_gain_ratio(np.array([]), np.array([])) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(10, 80))
    def test_bounded_property(self, seed, n):
        """Property: MDL gain ratio always lands in [0, 1]-ish bounds."""
        rng = np.random.default_rng(seed)
        col = rng.normal(size=n).round(1)
        y = rng.integers(0, 2, size=n)
        value = mdl_gain_ratio(col, y)
        assert 0.0 <= value <= 1.0 + 1e-9


class TestRankingCriteria:
    def test_mdl_criterion_agrees_on_top_feature(self, small_dataset):
        X, y = small_dataset
        names = [f"f{i}" for i in range(X.shape[1])]
        binary = rank_features(X, y, names, k=5)
        mdl = [mdl_gain_ratio(X[:, j], y)
               for j in range(X.shape[1])]
        top_binary = {r.name for r in binary[:8]}
        top_mdl = {names[j] for j in np.argsort(mdl, kind="stable")[::-1][:8]}
        # The single-cut shortcut and the full MDL recursion agree on
        # the bulk of the top features.
        assert len(top_binary & top_mdl) >= 5


class TestDeepPartition:
    def test_nested_cuts_past_recursion_limit(self):
        """The work-stack partition survives deeply nested accepted cuts.

        Equal-width alternating-label blocks force MDL to peel one pure
        block per cut, nesting ``n_blocks`` partitions along one side —
        far past a recursive implementation's depth budget (proved by
        temporarily lowering the interpreter limit below the nesting).
        """
        import sys

        block, n_blocks = 16, 150
        n = block * n_blocks
        column = np.arange(n, dtype=np.float64)
        y = (np.arange(n) // block) % 2
        old_limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(90)
            cuts = mdl_cut_points(column, y)
        finally:
            sys.setrecursionlimit(old_limit)
        assert len(cuts) == n_blocks - 1
        assert cuts == sorted(cuts)
        bins = discretize(column, cuts)
        for i in range(n_blocks):
            assert len(set(bins[i * block:(i + 1) * block])) == 1
