"""Unit tests for model serialization."""

import numpy as np
import pytest

from repro.exceptions import LearningError
from repro.learning.forest import EnsembleRandomForest
from repro.learning.persistence import (
    forest_from_dict,
    forest_to_dict,
    load_forest,
    save_forest,
)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(-1, 1, (40, 4)), rng.normal(1, 1, (40, 4))])
    y = np.array([0] * 40 + [1] * 40)
    forest = EnsembleRandomForest(n_trees=7, random_state=1).fit(X, y)
    return forest, X, y


class TestRoundTrip:
    def test_dict_roundtrip_preserves_scores(self, fitted):
        forest, X, _ = fitted
        rebuilt = forest_from_dict(forest_to_dict(forest))
        assert np.array_equal(
            rebuilt.decision_scores(X), forest.decision_scores(X)
        )

    def test_file_roundtrip(self, fitted, tmp_path):
        forest, X, _ = fitted
        path = str(tmp_path / "model.json")
        save_forest(forest, path)
        loaded = load_forest(path)
        assert np.array_equal(
            loaded.decision_scores(X), forest.decision_scores(X)
        )
        assert np.array_equal(loaded.predict(X), forest.predict(X))

    def test_voting_mode_preserved(self, fitted, tmp_path):
        _, X, y = fitted
        forest = EnsembleRandomForest(n_trees=3, voting="majority",
                                      random_state=2).fit(X, y)
        path = str(tmp_path / "m.json")
        save_forest(forest, path)
        assert load_forest(path).voting == "majority"

    def test_loaded_model_drives_detector(self, fitted, tmp_path,
                                          trained_model, small_corpus):
        from repro.detection.detector import OnTheWireDetector
        from repro.learning.persistence import save_forest, load_forest

        path = str(tmp_path / "det.json")
        save_forest(trained_model, path)
        detector = OnTheWireDetector(load_forest(path))
        infection = next(
            t for t in small_corpus.infections if not t.meta.get("stealth")
        )
        detector.process_batch(infection.transactions)
        detector.finalize()
        assert detector.alerts


class TestValidation:
    def test_unfitted_forest_rejected(self):
        with pytest.raises(LearningError, match="unfitted"):
            forest_to_dict(EnsembleRandomForest())

    def test_wrong_model_type(self):
        with pytest.raises(LearningError, match="not a forest"):
            forest_from_dict({"model": "SVM"})

    def test_wrong_version(self, fitted):
        forest, _, _ = fitted
        payload = forest_to_dict(forest)
        payload["format_version"] = 99
        with pytest.raises(LearningError, match="version"):
            forest_from_dict(payload)


class TestPayloadIntegrity:
    def test_tree_count_mismatch_rejected(self, fitted):
        # Regression: a payload whose trees list diverged from its
        # n_trees field used to load silently and skew probabilities.
        forest, _, _ = fitted
        payload = forest_to_dict(forest)
        payload["trees"] = payload["trees"][:-1]
        with pytest.raises(LearningError, match="trees"):
            forest_from_dict(payload)

    def test_hyperparameters_roundtrip(self, fitted):
        # Regression: max_features / criterion / max_depth (and friends)
        # used to be dropped on load.
        _, X, y = fitted
        forest = EnsembleRandomForest(
            n_trees=3, max_features=2, max_depth=4, min_samples_split=3,
            min_samples_leaf=2, criterion="entropy", bootstrap=False,
            random_state=9,
        ).fit(X, y)
        rebuilt = forest_from_dict(forest_to_dict(forest))
        assert rebuilt.max_features == 2
        assert rebuilt.max_depth == 4
        assert rebuilt.min_samples_split == 3
        assert rebuilt.min_samples_leaf == 2
        assert rebuilt.criterion == "entropy"
        assert rebuilt.bootstrap is False
        assert rebuilt.random_state == 9

    def test_version1_nested_payload_rejected_actionably(self, fitted):
        """Format version 1 (nested trees) is no longer readable; the
        error must say how to get a loadable model."""
        forest, _, _ = fitted

        def nest(nodes, index):
            node = dict(nodes[index])
            if "proba" in node:
                return node
            node["left"] = nest(nodes, node["left"])
            node["right"] = nest(nodes, node["right"])
            return node

        payload = forest_to_dict(forest)
        payload["format_version"] = 1
        for tree in payload["trees"]:
            tree["root"] = nest(tree.pop("nodes"), 0)
        with pytest.raises(
            LearningError, match=r"version: 1 .*dynaminer train"
        ):
            forest_from_dict(payload)
