"""Differential tests for the n_jobs execution layer and deep trees.

The parallel pipeline's contract is *byte-identity*: any ``n_jobs``
value must produce exactly the results of the serial run, because all
per-item randomness is drawn up front from the master seed.  The deep
tree tests pin the recursion-free growth/serialization paths: a tree
deeper than the interpreter recursion limit must fit, pickle, save and
load.
"""

import pickle
import sys

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.features.extractor import extract_matrix
from repro.learning.crossval import cross_validate
from repro.learning.forest import EnsembleRandomForest
from repro.learning.persistence import (
    forest_from_dict,
    forest_to_dict,
    load_forest,
    save_forest,
)
from repro.learning.tree import DecisionTreeClassifier
from repro.parallel import parallel_map, resolve_n_jobs
from tests.oracles.forest_inference import tree_predict


def _square(x):
    return x * x


def _data(n=100, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(-1.5, 1.0, size=(n // 2, 4))
    X1 = rng.normal(1.5, 1.0, size=(n // 2, 4))
    return np.vstack([X0, X1]), np.array([0] * (n // 2) + [1] * (n // 2))


def _chain_data(n):
    """Data whose optimal CART tree is a depth ``n - 1`` chain.

    With one strictly increasing feature and alternating labels, the
    highest-gain split always peels the single leftmost sample (a pure
    leaf) off an otherwise near-balanced remainder, so the tree grows
    one level per sample.
    """
    X = np.arange(n, dtype=np.float64).reshape(-1, 1)
    y = np.arange(n) % 2
    return X, y


class TestResolveNJobs:
    def test_none_is_serial(self):
        assert resolve_n_jobs(None) == 1

    def test_minus_one_is_all_cores(self):
        import os
        assert resolve_n_jobs(-1) == (os.cpu_count() or 1)

    def test_explicit_count(self):
        assert resolve_n_jobs(3) == 3

    def test_zero_rejected(self):
        with pytest.raises(ReproError, match="n_jobs"):
            resolve_n_jobs(0)


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, n_jobs=4) == [i * i for i in items]

    def test_serial_fast_path(self):
        # n_jobs=1 must not require picklable functions.
        items = [1, 2, 3]
        assert parallel_map(lambda x: x + 1, items, n_jobs=1) == [2, 3, 4]

    def test_empty_input(self):
        assert parallel_map(_square, [], n_jobs=4) == []


class TestParallelDeterminism:
    def test_fit_byte_identical_to_serial(self):
        X, y = _data()
        serial = EnsembleRandomForest(n_trees=6, random_state=5).fit(X, y)
        par = EnsembleRandomForest(n_trees=6, random_state=5).fit(
            X, y, n_jobs=4
        )
        assert forest_to_dict(serial) == forest_to_dict(par)

    def test_cross_validate_byte_identical_to_serial(self):
        X, y = _data()
        serial = cross_validate(X, y, k=4, seed=3)
        par = cross_validate(X, y, k=4, seed=3, n_jobs=4)
        assert serial.per_fold == par.per_fold

    def test_extract_matrix_parallel_matches(self, tiny_corpus):
        traces = tiny_corpus.traces[:8]
        X1, y1 = extract_matrix(traces)
        X2, y2 = extract_matrix(traces, n_jobs=2)
        assert np.array_equal(X1, X2)
        assert np.array_equal(y1, y2)


class TestDeepTrees:
    @pytest.fixture(scope="class")
    def deep_tree(self):
        n = sys.getrecursionlimit() + 100
        X, y = _chain_data(n)
        tree = DecisionTreeClassifier().fit(X, y)
        return tree, X, y

    def test_fit_beyond_recursion_limit(self, deep_tree):
        tree, X, y = deep_tree
        assert tree.depth > sys.getrecursionlimit()
        assert np.array_equal(tree_predict(tree, X), y)

    def test_deep_tree_pickles(self, deep_tree):
        tree, X, _ = deep_tree
        clone = pickle.loads(pickle.dumps(tree))
        assert np.array_equal(clone.predict_proba(X), tree.predict_proba(X))

    def test_deep_forest_save_load(self, deep_tree, tmp_path):
        _, X, y = deep_tree
        forest = EnsembleRandomForest(
            n_trees=1, bootstrap=False, max_features=1, random_state=0
        ).fit(X, y)
        assert forest.trees_[0].depth > sys.getrecursionlimit()
        path = str(tmp_path / "deep.json")
        save_forest(forest, path)
        loaded = load_forest(path)
        assert np.array_equal(
            loaded.decision_scores(X), forest.decision_scores(X)
        )

    def test_deep_forest_dict_roundtrip(self, deep_tree):
        _, X, y = deep_tree
        forest = EnsembleRandomForest(
            n_trees=1, bootstrap=False, max_features=1, random_state=0
        ).fit(X, y)
        rebuilt = forest_from_dict(forest_to_dict(forest))
        assert np.array_equal(
            rebuilt.decision_scores(X), forest.decision_scores(X)
        )
