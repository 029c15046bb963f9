"""Model persistence: save/load trained classifiers as JSON.

A deployed DynaMiner trains offline (Stage 1) and classifies on the
wire (Stage 2), usually in a different process or on a different box —
so the trained ERF must serialize.  The format is plain JSON (no
pickle: model files routinely cross trust boundaries) and versioned for
forward compatibility.

Format version 2 stores each tree as its node table
(:class:`repro.learning.tree.NodeTable`), one JSON object per row: a
leaf carries ``proba``, a split carries ``feature`` / ``threshold`` and
the row indices of its ``left`` / ``right`` children.  The version-1
nested encoding mirrored the tree shape, so a fully-grown tree (default
``max_depth=None``) could exceed the recursion limit of the stdlib
``json`` encoder/decoder; version-1 payloads are rejected (re-save the
model with ``dynaminer train``).

Nothing read from a file is trusted: :func:`forest_from_dict` turns
every structural surprise into :class:`LearningError` and has each tree
:meth:`~repro.learning.tree.DecisionTreeClassifier.validate` itself
before anything walks it, so a model that loads cannot hang, index out
of range or raise while scoring because of its own contents.
"""

from __future__ import annotations

import json

import numpy as np

from repro.exceptions import LearningError
from repro.learning.forest import EnsembleRandomForest
from repro.learning.tree import DecisionTreeClassifier, NodeTable

__all__ = ["forest_to_dict", "forest_from_dict", "save_forest",
           "load_forest"]

_FORMAT_VERSION = 2


def _tree_to_dict(tree: DecisionTreeClassifier) -> dict:
    feature, threshold, left, right, proba = (
        column.tolist() for column in tree._fitted()
    )
    return {
        "classes": [float(c) for c in tree._classes],
        "n_features": tree.n_features_,
        "nodes": [
            {"proba": proba[row]} if split < 0 else
            {"feature": split, "threshold": threshold[row],
             "left": left[row], "right": right[row]}
            for row, split in enumerate(feature)
        ],
    }


def _tree_from_dict(data: dict) -> DecisionTreeClassifier:
    """One tree's payload as a node table (the caller validates it)."""
    tree = DecisionTreeClassifier()
    tree._classes = np.array(data["classes"], dtype=np.float64)
    tree.n_features_ = int(data["n_features"])
    nodes = data["nodes"]
    leaves = [row for row, node in enumerate(nodes) if "proba" in node]
    splits = [row for row, node in enumerate(nodes) if "proba" not in node]
    links = [[nodes[row][key] for key in ("feature", "left", "right")]
             for row in splits]
    columns = np.array(links, dtype=np.intp).reshape(-1, 3)
    posteriors = np.array([nodes[row]["proba"] for row in leaves],
                          dtype=np.float64)
    if columns.tolist() != links:  # numpy truncates 2.5 without complaint
        raise LearningError("node index that is not an integer")
    count = len(nodes)
    feature = np.full(count, -1, dtype=np.intp)
    left = np.arange(count)  # a leaf points at itself
    right = np.arange(count)
    threshold = np.zeros(count)
    # Posteriors of the wrong rank (scalars, nested lists, no leaf at
    # all) either fail to assign or give a table validate() refuses.
    proba = np.zeros((count, *posteriors.shape[1:]))
    feature[splits], left[splits], right[splits] = columns.T
    threshold[splits] = [nodes[row]["threshold"] for row in splits]
    proba[leaves] = posteriors
    tree.nodes_ = NodeTable(feature, threshold, left, right, proba)
    return tree


def forest_to_dict(forest: EnsembleRandomForest) -> dict:
    """Serialize a fitted forest to a JSON-compatible dict."""
    if not forest.trees_:
        raise LearningError("cannot serialize an unfitted forest")
    return {
        "format_version": _FORMAT_VERSION,
        "model": "EnsembleRandomForest",
        "n_trees": forest.n_trees,
        "voting": forest.voting,
        "max_features": forest.max_features,
        "max_depth": forest.max_depth,
        "min_samples_split": forest.min_samples_split,
        "min_samples_leaf": forest.min_samples_leaf,
        "criterion": forest.criterion,
        "bootstrap": forest.bootstrap,
        "random_state": forest.random_state,
        "classes": [float(c) for c in forest._classes],
        "trees": [_tree_to_dict(t) for t in forest.trees_],
    }


def _read_forest(data: dict) -> EnsembleRandomForest:
    if data.get("model") != "EnsembleRandomForest":
        raise LearningError(f"not a forest payload: {data.get('model')!r}")
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise LearningError(
            f"unsupported model format version: {version} "
            "(re-save the model with `dynaminer train`)"
        )
    n_trees = int(data["n_trees"])
    trees = data["trees"]
    if len(trees) != n_trees:
        raise LearningError(
            f"payload declares {n_trees} trees but carries {len(trees)}"
        )
    max_features = data.get("max_features")
    max_depth = data.get("max_depth")
    random_state = data.get("random_state")
    forest = EnsembleRandomForest(
        n_trees=n_trees,
        max_features=None if max_features is None else int(max_features),
        max_depth=None if max_depth is None else int(max_depth),
        min_samples_split=int(data.get("min_samples_split", 2)),
        min_samples_leaf=int(data.get("min_samples_leaf", 1)),
        criterion=str(data.get("criterion", "gini")),
        voting=str(data["voting"]),
        bootstrap=bool(data.get("bootstrap", True)),
        random_state=None if random_state is None else int(random_state),
    )
    forest._classes = np.array(data["classes"], dtype=np.float64)
    forest.trees_ = [_tree_from_dict(t) for t in trees]
    return forest


def forest_from_dict(data: dict) -> EnsembleRandomForest:
    """Rebuild a forest from :func:`forest_to_dict` output; raises
    :class:`LearningError`, and nothing else, for any other payload."""
    try:
        forest = _read_forest(data)
    except (AttributeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise LearningError(f"malformed model payload: {exc!r}") from exc
    if not np.array_equal(forest._classes, np.unique(forest._classes)):
        raise LearningError("forest classes are not sorted and distinct")
    for tree in forest.trees_:
        tree.validate()
        if (tree.n_features_ != forest.trees_[0].n_features_
                or not np.isin(tree._classes, forest._classes).all()):
            raise LearningError(
                "a tree disagrees with its forest on features or classes")
    # A loaded model is about to serve the wire: build the vectorized
    # inference arena now rather than on the first live classification.
    forest.compile()
    return forest


def save_forest(forest: EnsembleRandomForest, path: str) -> None:
    """Write a fitted forest to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(forest_to_dict(forest), handle)


def load_forest(path: str) -> EnsembleRandomForest:
    """Load a forest previously written by :func:`save_forest`."""
    with open(path, "r", encoding="utf-8") as handle:
        return forest_from_dict(json.load(handle))
