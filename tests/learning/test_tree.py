"""Unit + property tests for the CART decision tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import LearningError, NotFittedError
from repro.learning.tree import DecisionTreeClassifier


def _separable(n=100, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(loc=-2.0, size=(n // 2, 3))
    X1 = rng.normal(loc=2.0, size=(n // 2, 3))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


class TestFit:
    def test_perfect_fit_on_separable(self):
        X, y = _separable()
        tree = DecisionTreeClassifier().fit(X, y)
        assert np.array_equal(tree.predict(X), y)

    def test_training_accuracy_unbounded_depth(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 4))
        y = rng.integers(0, 2, size=80)
        tree = DecisionTreeClassifier().fit(X, y)
        # With unique rows, an unbounded tree memorizes training data.
        assert (tree.predict(X) == y).mean() == 1.0

    def test_max_depth_limits(self):
        X, y = _separable(200, seed=2)
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert tree.depth <= 2

    def test_min_samples_leaf(self):
        X, y = _separable(40, seed=3)
        tree = DecisionTreeClassifier(min_samples_leaf=10).fit(X, y)
        # Any leaf's training support must be >= 10: proxy via node count.
        assert tree.node_count <= 2 * (40 // 10) + 1

    def test_single_class_gives_leaf(self):
        X = np.ones((10, 2))
        y = np.zeros(10)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.depth == 0
        assert np.all(tree.predict(X) == 0)

    def test_constant_features_give_leaf(self):
        X = np.ones((10, 2))
        y = np.array([0, 1] * 5)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.depth == 0

    def test_entropy_criterion(self):
        X, y = _separable()
        tree = DecisionTreeClassifier(criterion="entropy").fit(X, y)
        assert (tree.predict(X) == y).all()

    def test_unknown_criterion(self):
        with pytest.raises(LearningError, match="unknown criterion"):
            DecisionTreeClassifier(criterion="magic")

    def test_empty_dataset(self):
        with pytest.raises(LearningError, match="empty"):
            DecisionTreeClassifier().fit(np.empty((0, 3)), np.empty(0))

    def test_length_mismatch(self):
        with pytest.raises(LearningError, match="rows"):
            DecisionTreeClassifier().fit(np.ones((5, 2)), np.ones(4))

    def test_1d_input_rejected(self):
        with pytest.raises(LearningError, match="2-dimensional"):
            DecisionTreeClassifier().fit(np.ones(5), np.ones(5))


class TestPredict:
    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.ones((1, 2)))

    def test_wrong_width_raises(self):
        X, y = _separable()
        tree = DecisionTreeClassifier().fit(X, y)
        with pytest.raises(LearningError, match="expected shape"):
            tree.predict(np.ones((2, 7)))

    def test_proba_rows_sum_to_one(self):
        X, y = _separable()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        proba = tree.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert proba.min() >= 0.0

    def test_string_labels_supported(self):
        X, _ = _separable(40)
        y = np.array(["ben"] * 20 + ["mal"] * 20)
        tree = DecisionTreeClassifier().fit(X, y)
        assert set(tree.predict(X)) <= {"ben", "mal"}


class TestFeatureSubsetting:
    def test_max_features_respected_statistically(self):
        # With max_features=1 of 2 and an informative + noise feature,
        # trees seeded differently should sometimes split on the noise
        # feature at the root, proving subsetting happens.
        rng = np.random.default_rng(5)
        X = np.column_stack([
            np.concatenate([rng.normal(-3, 1, 50), rng.normal(3, 1, 50)]),
            rng.normal(size=100),
        ])
        y = np.array([0] * 50 + [1] * 50)
        root_features = set()
        for seed in range(20):
            tree = DecisionTreeClassifier(max_features=1,
                                          random_state=seed).fit(X, y)
            root_features.add(int(tree.nodes_.feature[0]))
        assert root_features == {0, 1}

    def test_importances_sum_to_one(self):
        X, y = _separable()
        tree = DecisionTreeClassifier().fit(X, y)
        importances = tree.feature_importances()
        assert importances.sum() == pytest.approx(1.0)
        assert importances.shape == (3,)


class TestTreeProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(5, 60),
        n_features=st.integers(1, 5),
        seed=st.integers(0, 10**6),
    )
    def test_fit_predict_never_crashes(self, n, n_features, seed):
        """Property: arbitrary numeric data fits and predicts cleanly."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, n_features)).round(1)  # force ties
        y = rng.integers(0, 2, size=n)
        tree = DecisionTreeClassifier(max_features=1, random_state=seed)
        tree.fit(X, y)
        proba = tree.predict_proba(X)
        assert proba.shape[0] == n
        assert np.allclose(proba.sum(axis=1), 1.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_determinism(self, seed):
        X, y = _separable(50, seed=seed % 100)
        tree_a = DecisionTreeClassifier(max_features=2, random_state=seed)
        tree_b = DecisionTreeClassifier(max_features=2, random_state=seed)
        pa = tree_a.fit(X, y).predict_proba(X)
        pb = tree_b.fit(X, y).predict_proba(X)
        assert np.array_equal(pa, pb)
