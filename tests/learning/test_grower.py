"""Differential suite for the presorted-partition training engine.

The presort engine must grow trees **byte-identical** to the reference
per-node-argsort grower (``tests.oracles.tree_growth``) — same
structure, same split features, same threshold bits, same leaf
posterior bits — for every configuration and any ``n_jobs``.  These
tests pin that contract, plus the kernel helpers the engine and the
ranking fast path share.
"""

import pickle
import sys

import numpy as np
import pytest

from repro.learning.forest import (
    EnsembleRandomForest,
    _bootstrap_indices,
    default_max_features,
)
from repro.learning.grower import (
    ColumnRanks,
    class_cumulative_counts,
    compute_column_ranks,
    grow_tree_presorted,
    presort_columns,
    restrict_sorted,
)
from repro.learning.persistence import forest_from_dict, forest_to_dict
from repro.learning.tree import DecisionTreeClassifier
from tests.oracles.forest_inference import tree_predict
from tests.oracles.tree_growth import (
    grow_tree_reference,
    linked_signature,
    table_signature,
)


def _reference_root(
    X, y, *, max_depth=None, min_samples_split=2, min_samples_leaf=1,
    max_features=None, criterion="gini", random_state=None,
):
    """What ``DecisionTreeClassifier(**kwargs).fit(X, y)`` must grow."""
    _, encoded = np.unique(np.asarray(y), return_inverse=True)
    return grow_tree_reference(
        np.asarray(X, dtype=np.float64), encoded, int(encoded.max()) + 1,
        max_depth=max_depth, min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf, max_features=max_features,
        criterion=criterion, rng=np.random.default_rng(random_state),
    )


def _reference_forest_sigs(X, y, n_trees, random_state, **tree_kwargs):
    """Per-tree signatures of the forest ``fit`` must grow.

    Re-derives the forest's documented protocol around the reference
    grower: the ``(bootstrap_seed, tree_seed)`` pairs drawn up front
    from ``random_state``, the shared ``_bootstrap_indices`` resampler,
    and the ``log2(F) + 1`` feature-subset default.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    tree_kwargs.setdefault("max_features", default_max_features(X.shape[1]))
    seeds = np.random.default_rng(random_state).integers(
        0, 2**31 - 1, size=(n_trees, 2)
    )
    sigs = []
    for bootstrap_seed, tree_seed in seeds:
        sample = _bootstrap_indices(y, len(np.unique(y)), int(bootstrap_seed))
        root = _reference_root(
            X[sample], y[sample], random_state=int(tree_seed), **tree_kwargs
        )
        sigs.append(linked_signature(root))
    return sigs


def _mixed_data(seed, n_classes=2):
    """Continuous + heavily tied columns, plus duplicate and constant."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 200))
    Xc = rng.normal(size=(n, 2))
    Xd = rng.integers(0, 4, size=(n, 2)).astype(np.float64)
    X = np.hstack([Xc, Xd, Xc[:, :1], np.full((n, 1), 3.0)])
    y = rng.integers(0, n_classes, size=n)
    y[:n_classes] = np.arange(n_classes)
    return X, y


class TestKernels:
    def test_column_ranks_are_order_isomorphic(self):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 5, size=(40, 6)).astype(np.float64)
        ranks = compute_column_ranks(X)
        assert ranks.codes.shape == (6, 40)
        for j in range(6):
            col = X[:, j]
            codes = ranks.codes[j].astype(np.int64)
            for a in range(40):
                for b in range(40):
                    assert (codes[a] < codes[b]) == (col[a] < col[b])

    def test_column_ranks_decode_table(self):
        rng = np.random.default_rng(1)
        X = np.round(rng.normal(size=(50, 4)) * 2) / 2
        ranks = compute_column_ranks(X)
        for j in range(4):
            decoded = ranks.values[j][ranks.codes[j].astype(np.intp)]
            assert np.array_equal(decoded, X[:, j])

    def test_restrict_sorted_matches_direct_argsort_order(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 3))
        keep = rng.random(60) < 0.5
        keep[:2] = True
        sub = restrict_sorted(presort_columns(X), keep)
        for j in range(3):
            assert np.array_equal(np.sort(X[sub[:, j], j]), np.sort(X[keep, j]))
            assert np.all(np.diff(X[sub[:, j], j]) >= 0)

    def test_class_cumulative_counts_matches_onehot_cumsum(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 3, size=100)
        onehot = np.zeros((100, 3))
        onehot[np.arange(100), codes] = 1.0
        want = np.cumsum(onehot, axis=0)
        assert np.array_equal(class_cumulative_counts(codes, 3), want)
        buf = np.empty((120, 3))
        assert np.array_equal(class_cumulative_counts(codes, 3, out=buf), want)

    def test_grow_tree_rejects_mismatched_ranks(self):
        X = np.zeros((10, 2))
        y = np.array([0, 1] * 5)
        bad = compute_column_ranks(np.zeros((9, 2)))
        with pytest.raises(ValueError, match="does not match"):
            grow_tree_presorted(
                X, y, 2, max_depth=None, min_samples_split=2,
                min_samples_leaf=1, max_features=None, criterion="gini",
                rng=np.random.default_rng(0), column_ranks=bad,
            )


class TestTreeDifferential:
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("max_features", [None, 1, "all"])
    def test_trees_byte_identical(self, criterion, max_features):
        for seed in range(8):
            X, y = _mixed_data(seed, n_classes=2 + seed % 2)
            mf = X.shape[1] if max_features == "all" else max_features
            kwargs = dict(
                criterion=criterion, max_features=mf,
                random_state=seed * 13 + 1,
            )
            presort = DecisionTreeClassifier(**kwargs).fit(X, y)
            assert linked_signature(
                _reference_root(X, y, **kwargs)
            ) == table_signature(presort.nodes_)

    @pytest.mark.parametrize("min_samples_leaf", [1, 7])
    @pytest.mark.parametrize("max_depth", [None, 3])
    def test_trees_byte_identical_under_stopping_rules(
        self, max_depth, min_samples_leaf
    ):
        for seed in range(6):
            X, y = _mixed_data(seed + 100)
            kwargs = dict(
                max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                max_features=2, random_state=seed,
            )
            presort = DecisionTreeClassifier(**kwargs).fit(X, y)
            assert linked_signature(
                _reference_root(X, y, **kwargs)
            ) == table_signature(presort.nodes_)

    def test_deep_tree_past_recursion_limit(self):
        n = sys.getrecursionlimit() + 50
        X = np.arange(n, dtype=np.float64).reshape(-1, 1)
        y = np.arange(n) % 2
        presort = DecisionTreeClassifier().fit(X, y)
        assert presort.depth > sys.getrecursionlimit()
        assert linked_signature(_reference_root(X, y)) == table_signature(
            presort.nodes_
        )
        assert np.array_equal(tree_predict(presort, X), y)

    def test_shared_ranks_match_per_fit_ranks(self):
        X, y = _mixed_data(5)
        ranks = compute_column_ranks(X)
        a = DecisionTreeClassifier(random_state=3).fit(X, y)
        b = DecisionTreeClassifier(random_state=3).fit(
            X, y, column_ranks=ranks
        )
        assert table_signature(a.nodes_) == table_signature(b.nodes_)


class TestForestDifferential:
    @pytest.mark.parametrize("n_jobs", [None, 4])
    @pytest.mark.parametrize("tree_kwargs", [
        {},
        {"criterion": "entropy", "max_features": 6},
        {"max_features": 1, "max_depth": 3},
        {"min_samples_leaf": 7, "min_samples_split": 10},
    ], ids=["defaults", "entropy-all", "one-feature-depth3", "stopping"])
    def test_forests_byte_identical_to_reference_at_any_jobs(
        self, n_jobs, tree_kwargs
    ):
        X, y = _mixed_data(11)
        forest = EnsembleRandomForest(
            n_trees=8, random_state=42, **tree_kwargs
        ).fit(X, y, n_jobs=n_jobs)
        assert [table_signature(t.nodes_) for t in forest.trees_] == (
            _reference_forest_sigs(X, y, 8, 42, **tree_kwargs)
        )

    def test_presort_forest_identical_serial_vs_parallel(self):
        X, y = _mixed_data(12)
        serial = EnsembleRandomForest(n_trees=6, random_state=9).fit(X, y)
        parallel = EnsembleRandomForest(n_trees=6, random_state=9).fit(
            X, y, n_jobs=4
        )
        assert forest_to_dict(serial) == forest_to_dict(parallel)

    def test_pickled_presort_forest_roundtrips_format_v2(self):
        X, y = _mixed_data(13)
        forest = EnsembleRandomForest(n_trees=5, random_state=21).fit(X, y)
        payload = forest_to_dict(forest)
        assert payload["format_version"] == 2
        revived = pickle.loads(pickle.dumps(forest))
        assert forest_to_dict(revived) == payload
        assert forest_to_dict(forest_from_dict(payload)) == payload
        Xt = _mixed_data(14)[0][:, : X.shape[1]]
        assert np.array_equal(
            forest.predict_proba(Xt), revived.predict_proba(Xt)
        )


class TestRankingFastPath:
    def test_fold_ratios_bit_identical_to_gain_ratio(self):
        from repro.learning.crossval import stratified_kfold
        from repro.learning.ranking import _fold_gain_ratios
        from tests.oracles.gain_ratio import gain_ratio

        rng = np.random.default_rng(17)
        X = np.round(rng.normal(size=(120, 7)) * 2) / 2
        X[:, 5] = X[:, 0]
        X[:, 6] = 1.5
        y = rng.integers(0, 3, size=120).astype(np.float64)
        y[:3] = [0, 1, 2]
        sorted_idx = presort_columns(X)
        for train_idx, _ in stratified_kfold(y, k=5, seed=1):
            fast = _fold_gain_ratios(X, sorted_idx, y, train_idx)
            slow = np.array(
                [gain_ratio(X[train_idx, j], y[train_idx]) for j in range(7)]
            )
            assert np.array_equal(fast, slow)
