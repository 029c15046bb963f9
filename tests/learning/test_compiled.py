"""Differential tests: compiled arena vs. per-tree table walks.

The arena's contract is *byte-identical* output to combining the
per-tree row-by-row walks (``tests.oracles.forest_inference``) — not
close, identical — so every comparison here is ``np.array_equal``,
never ``allclose``.  Inputs cover the adversarial corners named in ISSUE 4:
degenerate single-leaf trees, trees that saw fewer classes than the
forest, NaN/±inf feature values, and thresholds produced by the
midpoint clamp in ``tree.py``.
"""

import pickle

import numpy as np
import pytest

from repro.exceptions import LearningError
from repro.learning.compiled import CompiledForest, compile_forest
from repro.learning.forest import EnsembleRandomForest
from repro.learning.persistence import forest_from_dict, forest_to_dict
from repro.learning.tree import DecisionTreeClassifier
from tests.oracles.forest_inference import (
    predict_proba_reference,
    tree_predict,
)


def _random_problem(seed, n=150, features=8):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(loc=-0.6, size=(n // 2, features))
    X1 = rng.normal(loc=0.6, size=(n // 2, features))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y, rng


def _fitted(seed, **kwargs):
    """A fitted forest, its training matrix, and an off-sample probe."""
    X, y, rng = _random_problem(seed)
    forest = EnsembleRandomForest(random_state=seed, **kwargs).fit(X, y)
    probe = rng.normal(size=(64, X.shape[1])) * 2
    return forest, X, probe


def _assert_identical(forest, X):
    """Arena output == the per-tree-walk reference, bit for bit.

    ``decision_scores`` is a pure function of the probability matrix,
    so it is checked against the reference matrix too.
    """
    reference = predict_proba_reference(forest, X)
    assert np.array_equal(forest.predict_proba(X), reference)
    positive = np.flatnonzero(forest._classes == 1)
    if positive.size:
        assert np.array_equal(forest.decision_scores(X),
                              reference[:, positive[0]])


class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_forests_average(self, seed):
        forest, X, probe = _fitted(seed, n_trees=7)
        _assert_identical(forest, X)
        _assert_identical(forest, probe)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_random_forests_majority(self, seed):
        forest, X, probe = _fitted(seed, n_trees=9, voting="majority")
        _assert_identical(forest, X)
        _assert_identical(forest, probe)

    def test_entropy_and_depth_limits(self):
        forest, X, probe = _fitted(
            11, n_trees=5, criterion="entropy", max_depth=3,
            min_samples_leaf=4,
        )
        _assert_identical(forest, probe)

    def test_single_trees_match(self):
        X, y, rng = _random_problem(4)
        tree = DecisionTreeClassifier(random_state=4).fit(X, y)
        forest = EnsembleRandomForest(n_trees=1, bootstrap=False,
                                      random_state=4)
        forest.fit(X, y)
        probe = rng.normal(size=(40, X.shape[1]))
        # A 1-tree no-bootstrap forest averages exactly one tree.
        assert np.array_equal(forest.trees_[0].predict_proba(probe),
                              forest.predict_proba(probe))

    def test_nan_and_inf_feature_values(self):
        forest, X, _ = _fitted(7, n_trees=6)
        probe = X[:8].copy()
        probe[0, 0] = np.nan
        probe[1, :] = np.nan
        probe[2, 3] = np.inf
        probe[3, :] = np.inf
        probe[4, 1] = -np.inf
        probe[5, :] = -np.inf
        _assert_identical(forest, probe)

    def test_batched_rows_equal_single_rows(self):
        forest, X, _ = _fitted(9, n_trees=6)
        batch = forest.decision_scores(X)
        singles = np.array([
            forest.decision_scores(X[i:i + 1])[0] for i in range(len(X))
        ])
        assert np.array_equal(batch, singles)

    def test_empty_batch(self):
        forest, X, _ = _fitted(3, n_trees=3)
        empty = X[:0]
        assert forest.predict_proba(empty).shape == (0, 2)
        _assert_identical(forest, empty)


class TestDegenerate:
    def test_single_leaf_tree_forest(self):
        # Constant labels grow depth-0 trees: one leaf, no traversal.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        y = np.zeros(20)
        forest = EnsembleRandomForest(n_trees=4, random_state=0).fit(X, y)
        assert forest._compiled.depth == 0
        _assert_identical(forest, X)
        assert np.array_equal(forest.decision_scores(X), np.zeros(20))

    def test_tree_with_fewer_classes_than_forest(self):
        # A degenerate bootstrap can hand a tree only one class; its
        # single proba column must scatter into the right forest column.
        X, y, _ = _random_problem(6)
        one_class = DecisionTreeClassifier(random_state=1).fit(
            X[y == 1], y[y == 1]
        )
        forest = EnsembleRandomForest(n_trees=3, random_state=6).fit(X, y)
        forest.trees_[1] = one_class
        forest.compile()  # in-place tree swap requires an explicit sync
        _assert_identical(forest, X)
        # The class-1-only tree contributes 1/3 to every class-1 score.
        assert forest.decision_scores(X).min() >= 1.0 / 3.0

    def test_threshold_at_clamp_boundary(self):
        # Adjacent floats make the split midpoint round up to the upper
        # value; tree.py clamps the threshold down to the lower value so
        # `<=` keeps the split non-degenerate.  The compiled traversal
        # must reproduce the same branch on both sides of the clamp.
        low = 1.0
        high = np.nextafter(low, 2.0)
        X = np.array([[low], [low], [high], [high]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.nodes_.threshold[0] == low  # the clamp fired
        forest = EnsembleRandomForest(n_trees=2, bootstrap=False,
                                      max_features=1,
                                      random_state=0).fit(X, y)
        probe = np.array([[low], [high],
                          [np.nextafter(low, 0.0)],
                          [np.nextafter(high, 2.0)]])
        _assert_identical(forest, probe)
        assert np.array_equal(forest.decision_scores(probe),
                              np.array([0, 1, 0, 1]))

    def test_majority_ties_break_to_lowest_label(self):
        # A perfectly mixed leaf votes for the lowest class label, in
        # the arena and the reference alike (argmax ties resolve to the
        # first index).
        X = np.zeros((4, 1))
        y = np.array([0, 0, 1, 1])
        forest = EnsembleRandomForest(
            n_trees=3, voting="majority", bootstrap=False,
            max_features=1, random_state=0,
        ).fit(X, y)
        assert np.array_equal(forest.decision_scores(X), np.zeros(4))
        # Every tree's tied leaf votes class 0, unanimously.
        tiled = np.tile([1.0, 0.0], (4, 1))
        assert np.array_equal(forest.predict_proba(X), tiled)
        assert np.array_equal(predict_proba_reference(forest, X), tiled)

    def test_tree_predict_ties_break_to_lowest_label(self):
        X = np.zeros((2, 1))
        y = np.array([3, 7])
        tree = DecisionTreeClassifier().fit(X, y)
        assert np.array_equal(tree_predict(tree, X), np.array([3, 3]))


def _both_walks(compiled, X, monkeypatch):
    """``predict_proba`` of ``X`` forced down each of the two walks."""
    from repro.learning import compiled as module

    monkeypatch.setattr(module, "_ROW_WISE_MAX_ROWS", len(X))
    row_wise = compiled.predict_proba(X)
    monkeypatch.setattr(module, "_ROW_WISE_MAX_ROWS", -1)
    level_wise = compiled.predict_proba(X)
    return row_wise, level_wise


class TestRowWiseWalk:
    """The few-row walk == the level-wise walk == the per-tree reference,
    bytes, whichever side of the row-count crossover a batch falls."""

    @staticmethod
    def _adversarial_probe(forest, X):
        """16 rows: plain, NaN/±inf, and cells sitting on thresholds."""
        compiled = forest._compiled_forest()
        probe = X[:16].copy()
        probe[1, 0] = np.nan
        probe[2, :] = np.nan
        probe[3, 2] = np.inf
        probe[4, :] = np.inf
        probe[5, 1] = -np.inf
        probe[6, :] = -np.inf
        # Every split of the first trees, hit exactly (`<=` goes left)
        # and one ulp above (goes right).
        splits = np.flatnonzero(compiled.feature >= 0)
        for row, node in zip(range(7, 16), splits):
            threshold = compiled.threshold[node]
            probe[row, compiled.feature[node]] = (
                threshold if row % 2 else np.nextafter(threshold, np.inf))
        return probe

    @pytest.mark.parametrize("voting", ["average", "majority"])
    @pytest.mark.parametrize("rows", range(17))
    def test_every_row_count_matches_both_walks(self, rows, voting,
                                                monkeypatch):
        forest, X, _ = _fitted(13, n_trees=7, voting=voting)
        probe = self._adversarial_probe(forest, X)[:rows]
        reference = predict_proba_reference(forest, probe)
        row_wise, level_wise = _both_walks(forest._compiled_forest(),
                                           probe, monkeypatch)
        assert row_wise.tobytes() == reference.tobytes()
        assert level_wise.tobytes() == reference.tobytes()
        monkeypatch.undo()
        # And through the public entry point, wherever the constant sits.
        assert forest.predict_proba(probe).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 4, 5, 16])
    def test_degenerate_bootstrap_forest(self, rows, monkeypatch):
        # One tree saw a single class, one is a lone leaf.
        X, y, _ = _random_problem(6)
        forest = EnsembleRandomForest(n_trees=4, random_state=6).fit(X, y)
        forest.trees_[1] = DecisionTreeClassifier(random_state=1).fit(
            X[y == 1], y[y == 1])
        forest.trees_[2] = DecisionTreeClassifier(max_depth=0).fit(X, y)
        forest.compile()
        probe = self._adversarial_probe(forest, X)[:rows]
        reference = predict_proba_reference(forest, probe)
        row_wise, level_wise = _both_walks(forest._compiled_forest(),
                                           probe, monkeypatch)
        assert row_wise.tobytes() == reference.tobytes()
        assert level_wise.tobytes() == reference.tobytes()

    def test_the_crossover_is_live_on_both_sides(self):
        # The dispatch must actually pick each walk: a constant at 0 or
        # at infinity would pass every equality above with one engine.
        from repro.learning.compiled import _ROW_WISE_MAX_ROWS

        assert 1 <= _ROW_WISE_MAX_ROWS <= 16


class TestLifecycle:
    def test_fit_autocompiles_and_refit_invalidates(self):
        X, y, rng = _random_problem(2)
        forest = EnsembleRandomForest(n_trees=3, random_state=2).fit(X, y)
        first = forest._compiled
        assert isinstance(first, CompiledForest)
        # Refit on different data must rebuild the arena (a stale arena
        # would silently score with the old trees).
        X2 = X + 5.0
        forest.fit(X2, y)
        assert forest._compiled is not first
        _assert_identical(forest, X2)

    def test_stale_arena_guard_on_mutated_trees(self):
        X, y, _ = _random_problem(8)
        forest = EnsembleRandomForest(n_trees=4, random_state=8).fit(X, y)
        forest.trees_ = forest.trees_[:2]
        # No compile(): the tree-count guard must rebuild the arena.
        _assert_identical(forest, X)

    def test_pickle_roundtrip_drops_and_rebuilds_arena(self):
        X, y, _ = _random_problem(5)
        forest = EnsembleRandomForest(n_trees=3, random_state=5).fit(X, y)
        expected = forest.decision_scores(X)
        clone = pickle.loads(pickle.dumps(forest))
        assert clone._compiled is None  # derived data is not shipped
        assert np.array_equal(clone.decision_scores(X), expected)

    def test_compile_unfitted_rejected(self):
        with pytest.raises(LearningError, match="unfitted"):
            compile_forest(EnsembleRandomForest())


class TestPersistence:
    def test_payload_loads_compiled(self):
        X, y, _ = _random_problem(3)
        forest = EnsembleRandomForest(n_trees=3, random_state=3).fit(X, y)
        loaded = forest_from_dict(forest_to_dict(forest))
        assert isinstance(loaded._compiled, CompiledForest)
        assert np.array_equal(loaded.decision_scores(X),
                              forest.decision_scores(X))
        _assert_identical(loaded, X)
