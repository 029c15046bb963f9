"""A hand-written model payload and the minimal edits that break it.

The model file is the one artefact that crosses a trust boundary
(trained offline, shipped to the tap), so each way a file can describe
something that is not a forest is kept here as data: one valid payload,
small enough to read, and one ``(tree, node, field, value)`` edit per
defect.  ``tests/learning/test_persistence.py`` loads them through
``forest_from_dict`` and ``tests/test_cli.py`` through ``dynaminer
detect --model``.
"""


def tiny_model() -> dict:
    """Two trees over two features, valid as it stands."""
    return {
        "format_version": 2, "model": "EnsembleRandomForest", "n_trees": 2,
        "voting": "average", "max_features": 2, "max_depth": None,
        "min_samples_split": 2, "min_samples_leaf": 1, "criterion": "gini",
        "bootstrap": True, "random_state": 0, "classes": [0.0, 1.0],
        "trees": [
            {"classes": [0.0, 1.0], "n_features": 2, "nodes": [
                {"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
                {"proba": [1.0, 0.0]},
                {"feature": 1, "threshold": -1.0, "left": 3, "right": 4},
                {"proba": [0.25, 0.75]},
                {"proba": [0.0, 1.0]},
            ]},
            {"classes": [0.0, 1.0], "n_features": 2, "nodes": [
                {"feature": 1, "threshold": 2.0, "left": 1, "right": 2},
                {"proba": [0.5, 0.5]},
                {"proba": [0.0, 1.0]},
            ]},
        ],
    }


#: defect -> (tree, node, field, value).  At the commit before the node
#: table, the first hung ``forest_from_dict`` (``flatten_nodes`` walked
#: the cycle forever), the second loaded through Python's negative
#: indexing and scored a different model, the third loaded and raised
#: ``IndexError`` out of ``decision_scores`` at the first clue, the
#: fourth was an uncaught ``IndexError`` traceback in ``dynaminer
#: detect``, and the last three loaded without a word.
MALFORMED_EDITS = {
    "cycle": (0, 0, "left", 0),
    "negative-child": (0, 0, "left", -1),
    "feature-out-of-range": (0, 0, "feature", 999),
    "child-out-of-range": (0, 0, "left", 10**6),
    "shared-child": (0, 2, "left", 4),
    "proba-wrong-length": (1, 1, "proba", [1.0]),
    "nan-threshold": (1, 0, "threshold", float("nan")),
}


def malformed_model(defect: str) -> dict:
    tree, node, field, value = MALFORMED_EDITS[defect]
    payload = tiny_model()
    payload["trees"][tree]["nodes"][node][field] = value
    return payload
