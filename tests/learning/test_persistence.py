"""Unit + property tests for model serialization."""

import functools
import hashlib
import json
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import LearningError
from repro.learning.forest import EnsembleRandomForest
from repro.learning.persistence import (
    forest_from_dict,
    forest_to_dict,
    load_forest,
    save_forest,
)
from tests.learning.model_payloads import (
    MALFORMED_EDITS,
    malformed_model,
    tiny_model,
)
from tests.learning.test_grower import _mixed_data


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


class TestBytesOnDisk:
    def test_payload_bytes_pinned(self, fitted):
        """"Same bytes on disk" as a test: the digest was computed from
        this fit at the commit before trees became node tables (numpy
        2.4; it moves only if the grower, the seeding protocol or the
        format does)."""
        forest, _, _ = fitted
        text = json.dumps(forest_to_dict(forest))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8411bfb3c02711b445b27d319b4bf68a0aa7ff2de47a536ff5b2783d927ea122"
        )

    def test_hand_written_payload_loads_and_scores(self):
        forest = forest_from_dict(tiny_model())
        X = np.array([[0.0, 0.0], [1.0, -2.0], [1.0, 0.0], [1.0, 3.0]])
        assert forest.decision_scores(X).tolist() == [0.25, 0.625, 0.75, 1.0]
        assert [tree.depth for tree in forest.trees_] == [2, 1]
        assert forest_to_dict(forest) == tiny_model()

    def test_tree_pickles_without_state_hooks(self, fitted):
        from repro.learning.tree import DecisionTreeClassifier

        assert "__getstate__" not in vars(DecisionTreeClassifier)
        assert "__setstate__" not in vars(DecisionTreeClassifier)
        forest, X, _ = fitted
        tree = forest.trees_[0]
        clone = pickle.loads(pickle.dumps(tree))
        assert np.array_equal(clone.predict_proba(X), tree.predict_proba(X))


class TestMalformedModels:
    """Each minimal edit of a valid file is refused — as a
    ``LearningError``, before anything walks the tree, at once."""

    @pytest.mark.parametrize("defect", sorted(MALFORMED_EDITS))
    def test_refused_at_load(self, defect):
        payload = malformed_model(defect)
        started = time.perf_counter()
        with pytest.raises(LearningError, match="malformed"):
            forest_from_dict(payload)
        assert time.perf_counter() - started < 1.0

    def test_trees_must_agree_with_their_forest(self):
        payload = tiny_model()
        payload["trees"][1]["n_features"] = 5
        with pytest.raises(LearningError, match="disagrees"):
            forest_from_dict(payload)
        payload = tiny_model()
        payload["trees"][1]["classes"] = [0.0, 2.0]
        with pytest.raises(LearningError, match="disagrees"):
            forest_from_dict(payload)


_GRID = [
    {},
    {"criterion": "entropy", "max_features": 6},
    {"max_features": 1, "max_depth": 3},
    {"min_samples_leaf": 7, "min_samples_split": 10},
]

_FIELD_VALUES = st.one_of(
    st.integers(-3, 40),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.one_of(st.integers(-3, 10), st.floats()), max_size=4),
    st.none(),
    st.booleans(),
    st.text(max_size=3),
)


def _grid_forest(seed, grid, n_classes):
    X, y = _mixed_data(seed, n_classes=n_classes)
    forest = EnsembleRandomForest(
        n_trees=3, random_state=seed, **grid
    ).fit(X, y)
    return forest, X


@functools.lru_cache(maxsize=None)
def _mutation_subject(index):
    """One fitted forest per grid entry (the property mutates fresh
    payloads of these four, not the forests)."""
    return _grid_forest(index, _GRID[index], 2 + index % 2)


class TestRoundTripProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 200), grid=st.sampled_from(_GRID),
           n_classes=st.sampled_from([2, 3]))
    def test_load_of_save_is_the_same_model_and_the_same_bytes(
            self, seed, grid, n_classes):
        forest, X = _grid_forest(seed, grid, n_classes)
        text = json.dumps(forest_to_dict(forest))
        rebuilt = forest_from_dict(json.loads(text))
        assert np.array_equal(rebuilt.predict_proba(X),
                              forest.predict_proba(X))
        assert json.dumps(forest_to_dict(rebuilt)) == text

    @settings(max_examples=200, deadline=2000)
    @given(data=st.data())
    def test_one_mutated_field_loads_soundly_or_is_refused(self, data):
        """A payload one field away from a fitted forest either still
        describes a forest — and then every walker terminates — or is a
        ``LearningError``: no other exception, no hang (the deadline)."""
        forest, X = _mutation_subject(data.draw(st.integers(0, 3)))
        payload = forest_to_dict(forest)
        tree = data.draw(st.sampled_from(payload["trees"]))
        field = data.draw(st.sampled_from(
            ["feature", "threshold", "left", "right", "proba",
             "classes", "n_features"]))
        target = (tree if field in ("classes", "n_features")
                  else data.draw(st.sampled_from(tree["nodes"])))
        target[field] = data.draw(_FIELD_VALUES)
        try:
            loaded = forest_from_dict(payload)
        except LearningError:
            return
        assert loaded.decision_scores(X).shape == (len(X),)
        assert len(loaded.explain_row(X[0])["tree_votes"]) == 3
        assert all(t.depth < len(t.nodes_.feature) for t in loaded.trees_)
        json.dumps(forest_to_dict(loaded))
