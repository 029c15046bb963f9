"""Unit tests for the Ensemble Random Forest."""

import numpy as np
import pytest

from repro.exceptions import LearningError, NotFittedError
from repro.learning.forest import EnsembleRandomForest, default_max_features


def _separable(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(loc=-1.5, size=(n // 2, 5))
    X1 = rng.normal(loc=1.5, size=(n // 2, 5))
    return np.vstack([X0, X1]), np.array([0] * (n // 2) + [1] * (n // 2))


class TestDefaults:
    def test_paper_max_features_rule(self):
        # N_f = log2(37) + 1 = 6 for the paper's 37 features.
        assert default_max_features(37) == 6
        assert default_max_features(2) == 2
        assert default_max_features(1) == 2  # clamped

    def test_default_is_twenty_trees(self):
        assert EnsembleRandomForest().n_trees == 20


class TestFitPredict:
    def test_accuracy_on_separable(self):
        X, y = _separable()
        forest = EnsembleRandomForest(n_trees=10, random_state=0).fit(X, y)
        assert ((forest.decision_scores(X) > 0.5) == y).mean() > 0.95

    def test_probability_averaging_smooth_scores(self):
        X, y = _separable()
        forest = EnsembleRandomForest(n_trees=20, max_depth=2,
                                      random_state=0).fit(X, y)
        scores = forest.decision_scores(X)
        # Averaged leaf probabilities produce more than 2 score levels.
        assert len(np.unique(scores)) > 3
        assert scores.min() >= 0.0
        assert scores.max() <= 1.0

    def test_majority_voting_mode(self):
        X, y = _separable()
        forest = EnsembleRandomForest(n_trees=11, voting="majority",
                                      random_state=0).fit(X, y)
        scores = forest.decision_scores(X)
        # Hard votes: scores are k/11 fractions.
        assert np.allclose((scores * 11) % 1, 0.0)

    def test_invalid_voting(self):
        with pytest.raises(LearningError, match="voting"):
            EnsembleRandomForest(voting="quantum")

    def test_invalid_n_trees(self):
        with pytest.raises(LearningError, match="n_trees"):
            EnsembleRandomForest(n_trees=0)

    def test_unfitted_predict(self):
        with pytest.raises(NotFittedError):
            EnsembleRandomForest().predict_proba(np.ones((1, 5)))

    def test_empty_fit(self):
        with pytest.raises(LearningError, match="empty"):
            EnsembleRandomForest().fit(np.empty((0, 3)), np.empty(0))

    def test_mismatched_lengths(self):
        with pytest.raises(LearningError, match="mismatch"):
            EnsembleRandomForest().fit(np.ones((4, 2)), np.ones(3))

    def test_determinism(self):
        X, y = _separable()
        fa = EnsembleRandomForest(n_trees=5, random_state=3).fit(X, y)
        fb = EnsembleRandomForest(n_trees=5, random_state=3).fit(X, y)
        assert np.array_equal(fa.decision_scores(X), fb.decision_scores(X))

    def test_different_seeds_differ(self):
        X, y = _separable()
        fa = EnsembleRandomForest(n_trees=5, random_state=3).fit(X, y)
        fb = EnsembleRandomForest(n_trees=5, random_state=4).fit(X, y)
        assert not np.array_equal(fa.decision_scores(X),
                                  fb.decision_scores(X))

    def test_no_bootstrap_mode(self):
        X, y = _separable()
        forest = EnsembleRandomForest(n_trees=3, bootstrap=False,
                                      max_features=5,
                                      random_state=0).fit(X, y)
        # Without bootstrap and with all features, trees are identical.
        scores = [t.predict_proba(X) for t in forest.trees_]
        assert np.array_equal(scores[0], scores[1])

    def test_tiny_dataset_bootstrap_guard(self):
        # 3 samples, 2 classes: naive bootstrap often drops a class.
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 1])
        forest = EnsembleRandomForest(n_trees=10, random_state=0).fit(X, y)
        proba = forest.predict_proba(X)
        assert proba.shape == (3, 2)

    def test_ensemble_variance_reduction(self):
        # Paper claim (Section V-A): averaging reduces variance vs a
        # single tree.  Measure prediction variance across resamples.
        rng = np.random.default_rng(0)
        X, y = _separable(150, seed=1)
        grid = rng.normal(size=(40, 5))
        single_scores, forest_scores = [], []
        for seed in range(8):
            sample = rng.integers(0, len(X), size=len(X))
            forest = EnsembleRandomForest(n_trees=15, random_state=seed)
            forest.fit(X[sample], y[sample])
            forest_scores.append(forest.decision_scores(grid))
            lone = EnsembleRandomForest(n_trees=1, random_state=seed)
            lone.fit(X[sample], y[sample])
            single_scores.append(lone.decision_scores(grid))
        forest_var = np.var(np.vstack(forest_scores), axis=0).mean()
        single_var = np.var(np.vstack(single_scores), axis=0).mean()
        assert forest_var < single_var


class TestDecisionScores:
    def test_benign_only_fit_scores_zero(self):
        # Regression: proba[:, -1] on a single-class (benign) fit used
        # to report probability 1.0 for "infection" on every sample.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        forest = EnsembleRandomForest(n_trees=3, random_state=0)
        forest.fit(X, np.zeros(20))
        assert np.array_equal(forest.decision_scores(X), np.zeros(20))

    def test_infection_only_fit_scores_one(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        forest = EnsembleRandomForest(n_trees=3, random_state=0)
        forest.fit(X, np.ones(20))
        assert np.array_equal(forest.decision_scores(X), np.ones(20))

    def test_two_class_scores_are_class1_column(self):
        X, y = _separable()
        forest = EnsembleRandomForest(n_trees=5, random_state=0).fit(X, y)
        proba = forest.predict_proba(X)
        assert np.array_equal(forest.decision_scores(X), proba[:, 1])


class TestProbabilityNormalization:
    def test_divides_by_actual_tree_count(self):
        # Regression: predict_proba divided by the n_trees attribute,
        # so a forest whose trees_ list diverges from it (e.g. a stale
        # payload) silently skewed every probability.
        X, y = _separable()
        forest = EnsembleRandomForest(n_trees=4, random_state=0).fit(X, y)
        forest.n_trees = 99
        assert np.allclose(forest.predict_proba(X).sum(axis=1), 1.0)

    def test_majority_votes_normalized(self):
        X, y = _separable()
        forest = EnsembleRandomForest(n_trees=5, voting="majority",
                                      random_state=0).fit(X, y)
        forest.n_trees = 99
        assert np.allclose(forest.predict_proba(X).sum(axis=1), 1.0)
