"""Forest decision-path explanations vs a per-tree walk oracle.

``CompiledForest.explain`` / ``EnsembleRandomForest.explain_row`` power
alert provenance; they must report exactly the leaves, votes, scores,
and per-feature split usage an explicit walk of each tree's table finds.
"""

import numpy as np
import pytest

from repro.exceptions import LearningError
from repro.learning.forest import EnsembleRandomForest


def _walk_tree(table, row):
    """Oracle: explicit root-to-leaf walk of one tree's node table.

    Returns ``(leaf_proba, feature_counts_dict)`` using the same IEEE
    comparison as inference (``x <= threshold`` goes left, NaN right).
    """
    counts: dict[int, int] = {}
    node = 0
    while table.feature[node] >= 0:
        feature = int(table.feature[node])
        counts[feature] = counts.get(feature, 0) + 1
        if row[feature] <= table.threshold[node]:
            node = table.left[node]
        else:
            node = table.right[node]
    return table.proba[node], counts


def _oracle_explanation(forest, row):
    n_features = forest.trees_[0].n_features_
    votes, scores = [], []
    totals = np.zeros(n_features, dtype=np.int64)
    positive = np.flatnonzero(forest._classes == 1)
    column_label = None
    if positive.size:
        column_label = 1
    for index, tree in enumerate(forest.trees_):
        proba, counts = _walk_tree(tree.nodes_, row)
        for feature, count in counts.items():
            totals[feature] += count
        # argmax over tree-local classes, ties to the lowest label.
        votes.append(int(tree._classes[int(np.argmax(proba))]))
        if column_label is not None:
            local = np.flatnonzero(tree._classes == column_label)
            scores.append(float(proba[local[0]]) if local.size else 0.0)
        else:
            scores.append(0.0)
    infectious = sum(1 for vote in votes if vote == 1)
    return {
        "tree_votes": tuple(votes),
        "tree_scores": tuple(scores),
        "vote_tally": (len(forest.trees_) - infectious, infectious),
        "feature_path_counts": tuple(int(c) for c in totals),
    }


class TestExplainRow:
    def test_matches_object_tree_oracle(self, trained_model, small_dataset):
        X, _ = small_dataset
        rng = np.random.default_rng(5)
        rows = rng.choice(len(X), size=min(25, len(X)), replace=False)
        for index in rows:
            row = X[index]
            explanation = trained_model.explain_row(row)
            assert explanation == _oracle_explanation(trained_model, row)

    def test_scores_average_to_decision_score(
        self, trained_model, small_dataset
    ):
        X, _ = small_dataset
        for row in X[:10]:
            explanation = trained_model.explain_row(row)
            expected = float(trained_model.decision_scores(row[None, :])[0])
            assert np.isclose(
                float(np.mean(explanation["tree_scores"])), expected
            )

    def test_plain_python_values(self, trained_model, small_dataset):
        """Provenance pickles across worker processes — no numpy
        scalars may leak out of the explanation."""
        X, _ = small_dataset
        explanation = trained_model.explain_row(X[0])
        for vote in explanation["tree_votes"]:
            assert type(vote) is int
        for score in explanation["tree_scores"]:
            assert type(score) is float
        for count in explanation["feature_path_counts"]:
            assert type(count) is int
        assert all(type(v) is int for v in explanation["vote_tally"])

    def test_wrong_width_rejected(self, trained_model):
        with pytest.raises(LearningError):
            trained_model.explain_row(np.zeros(3))

    def test_unfitted_rejected(self):
        with pytest.raises(LearningError):
            EnsembleRandomForest(n_trees=2).explain_row(np.zeros(5))

    def test_nan_row_goes_right(self, small_dataset):
        """NaN compares False on every split — the all-NaN row must
        still land on leaves (the rightmost path), same as inference."""
        X, y = small_dataset
        forest = EnsembleRandomForest(n_trees=3, random_state=11)
        forest.fit(X, y)
        row = np.full(X.shape[1], np.nan)
        explanation = forest.explain_row(row)
        assert explanation == _oracle_explanation(forest, row)

    def test_explain_does_not_touch_scoring_counters(
        self, trained_model, small_dataset
    ):
        from repro.obs import MetricsRegistry, use_registry

        X, y = small_dataset
        registry = MetricsRegistry()
        with use_registry(registry):
            forest = EnsembleRandomForest(n_trees=3, random_state=13)
            forest.fit(X, y)
            forest.explain_row(X[0])
            assert "forest.rows_scored" not in (
                registry.snapshot()["counters"]
            )
            # ...whereas scoring counts exactly the rows it was handed.
            forest.predict_proba(X[:10])
            forest.decision_scores(X[:3])
        snapshot = registry.snapshot()
        assert snapshot["counters"]["forest.rows_scored"] == 13
        batch_rows = snapshot["histograms"]["forest.batch_rows"]
        assert (batch_rows["count"], batch_rows["max"]) == (2, 10)
