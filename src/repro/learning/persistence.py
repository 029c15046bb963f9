"""Model persistence: save/load trained classifiers as JSON.

A deployed DynaMiner trains offline (Stage 1) and classifies on the
wire (Stage 2), usually in a different process or on a different box —
so the trained ERF must serialize.  The format is plain JSON (no
pickle: model files routinely cross trust boundaries) and versioned for
forward compatibility.

Format version 2 stores each tree as a *flat* preorder node list with
child indices (see :func:`repro.learning.tree.flatten_nodes`).  The
version-1 nested encoding mirrored the tree shape, so a fully-grown
tree (default ``max_depth=None``) could exceed the recursion limit of
the stdlib ``json`` encoder/decoder; version-1 payloads are rejected
(re-save the model with ``dynaminer train``).
"""

from __future__ import annotations

import json

import numpy as np

from repro.exceptions import LearningError
from repro.learning.forest import EnsembleRandomForest
from repro.learning.tree import (
    DecisionTreeClassifier,
    flatten_nodes,
    unflatten_nodes,
)

__all__ = ["forest_to_dict", "forest_from_dict", "save_forest",
           "load_forest"]

_FORMAT_VERSION = 2


def _tree_to_dict(tree: DecisionTreeClassifier) -> dict:
    if tree._root is None:
        raise LearningError("cannot serialize an unfitted tree")
    return {
        "classes": [float(c) for c in tree._classes],
        "n_features": tree.n_features_,
        "nodes": flatten_nodes(tree._root),
    }


def _tree_from_dict(data: dict) -> DecisionTreeClassifier:
    tree = DecisionTreeClassifier()
    tree._classes = np.array(data["classes"])
    tree._n_classes = len(tree._classes)
    tree.n_features_ = int(data["n_features"])
    tree._root = unflatten_nodes(data["nodes"])
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


def forest_from_dict(data: dict) -> EnsembleRandomForest:
    """Rebuild a forest from :func:`forest_to_dict` output."""
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
    forest._classes = np.array(data["classes"])
    forest.trees_ = [_tree_from_dict(t) for t in trees]
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
