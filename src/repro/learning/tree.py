"""CART decision tree (from scratch; sklearn is unavailable offline).

Binary classification tree over numeric features with Gini or entropy
impurity, random feature subsetting per split (the random-forest
ingredient), and probabilistic leaf predictions (class frequency at the
leaf) — the ERF in the paper averages these probabilities across trees
rather than majority-voting (Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import LearningError, NotFittedError

if TYPE_CHECKING:  # grower imports from this module; keep one-way at runtime
    from repro.learning.grower import ColumnRanks

__all__ = [
    "DecisionTreeClassifier",
    "flatten_nodes",
    "unflatten_nodes",
]


@dataclass
class _Node:
    """One tree node; leaves carry a class-probability vector."""

    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    proba: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.proba is not None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    fractions = counts / total
    return float(1.0 - np.sum(fractions**2))


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    fractions = counts / total
    nonzero = fractions[fractions > 0]
    return float(-np.sum(nonzero * np.log2(nonzero)))


_CRITERIA = {"gini": _gini, "entropy": _entropy}


def flatten_nodes(root: _Node) -> list[dict]:
    """Flatten a node chain to a preorder list with child indices.

    The nested ``_Node`` structure nests as deep as the tree, so both
    ``pickle`` and ``json`` blow the interpreter recursion limit on
    fully-grown trees; this flat encoding (leaves carry ``proba``,
    internal nodes carry ``left``/``right`` list indices) has constant
    nesting depth whatever the tree shape.
    """
    nodes: list[dict] = []
    stack: list[tuple[_Node, int, str]] = [(root, -1, "")]
    while stack:
        node, parent_pos, side = stack.pop()
        pos = len(nodes)
        if parent_pos >= 0:
            nodes[parent_pos][side] = pos
        if node.is_leaf:
            nodes.append({"proba": [float(p) for p in node.proba]})
        else:
            nodes.append({
                "feature": int(node.feature),
                "threshold": float(node.threshold),
                "left": -1,
                "right": -1,
            })
            stack.append((node.right, pos, "right"))
            stack.append((node.left, pos, "left"))
    return nodes


def unflatten_nodes(nodes: list[dict]) -> _Node:
    """Rebuild a node chain from :func:`flatten_nodes` output."""
    if not nodes:
        raise LearningError("empty node list")
    built = [
        _Node(proba=np.array(data["proba"], dtype=np.float64))
        if "proba" in data
        else _Node(feature=int(data["feature"]),
                   threshold=float(data["threshold"]))
        for data in nodes
    ]
    for data, node in zip(nodes, built):
        if "proba" not in data:
            node.left = built[data["left"]]
            node.right = built[data["right"]]
    return built[0]


class DecisionTreeClassifier:
    """A CART classifier supporting per-split feature subsetting.

    Args:
        max_depth: depth cap (``None`` = unbounded).
        min_samples_split: minimum samples required to attempt a split.
        min_samples_leaf: minimum samples in each child of a split.
        max_features: features examined per split (``None`` = all).
        criterion: ``"gini"`` or ``"entropy"``.
        random_state: seed for the per-split feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        criterion: str = "gini",
        random_state: int | None = None,
    ):
        if criterion not in _CRITERIA:
            raise LearningError(f"unknown criterion {criterion!r}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.random_state = random_state
        self._root: _Node | None = None
        self._n_classes = 0
        self._classes: np.ndarray | None = None
        self.n_features_: int = 0

    # -- fitting -----------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        column_ranks: "ColumnRanks | None" = None,
    ) -> "DecisionTreeClassifier":
        """Grow the tree on ``(X, y)``; returns self.

        ``column_ranks`` optionally supplies a precomputed
        :class:`repro.learning.grower.ColumnRanks` whose codes align
        with ``X``'s rows, letting a caller fitting many trees on
        bootstraps of one matrix (the forest) pay the per-column float
        argsort once instead of per tree.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise LearningError("X must be 2-dimensional")
        if len(X) != len(y):
            raise LearningError(
                f"X has {len(X)} rows but y has {len(y)} labels"
            )
        if len(X) == 0:
            raise LearningError("cannot fit on an empty dataset")
        self._classes, encoded = np.unique(y, return_inverse=True)
        self._n_classes = len(self._classes)
        self.n_features_ = X.shape[1]
        # Imported here: grower imports _Node/_CRITERIA from this
        # module, so the dependency must stay one-way at import time.
        from repro.learning.grower import grow_tree_presorted

        self._root = grow_tree_presorted(
            X,
            encoded,
            self._n_classes,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            criterion=self.criterion,
            rng=np.random.default_rng(self.random_state),
            column_ranks=column_ranks,
        )
        return self

    # -- pickling ------------------------------------------------------------
    # Process pools ship fitted trees between workers; the nested _Node
    # chain would recurse in pickle as deep as the tree, so the state
    # swaps it for the flat encoding.

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        if state.get("_root") is not None:
            state["_root"] = flatten_nodes(state["_root"])
        return state

    def __setstate__(self, state: dict) -> None:
        root = state.pop("_root", None)
        self.__dict__.update(state)
        self._root = unflatten_nodes(root) if root is not None else None

    # -- prediction ----------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix, one row per sample."""
        if self._root is None:
            raise NotFittedError("fit() must be called before predict")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise LearningError(
                f"expected shape (*, {self.n_features_}), got {X.shape}"
            )
        out = np.empty((len(X), self._n_classes))
        for index, row in enumerate(X):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[index] = node.proba
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class labels (argmax ties break to the first index,
        i.e. the lowest label — ``_classes`` is sorted)."""
        return self._classes[self.predict_proba(X).argmax(axis=1)]

    @property
    def depth(self) -> int:
        """Depth of the grown tree (0 for a single leaf)."""
        if self._root is None:
            raise NotFittedError("fit() must be called first")
        deepest = 0
        stack = [(self._root, 0)]
        while stack:
            node, level = stack.pop()
            if node.is_leaf:
                deepest = max(deepest, level)
            else:
                stack.append((node.left, level + 1))
                stack.append((node.right, level + 1))
        return deepest

    @property
    def node_count(self) -> int:
        """Total nodes in the grown tree."""
        if self._root is None:
            raise NotFittedError("fit() must be called first")
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.append(node.left)
                stack.append(node.right)
        return count

    def feature_importances(self) -> np.ndarray:
        """Split-frequency importances (how often each feature splits)."""
        if self._root is None:
            raise NotFittedError("fit() must be called first")
        importances = np.zeros(self.n_features_)
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            importances[node.feature] += 1
            stack.append(node.left)
            stack.append(node.right)
        total = importances.sum()
        return importances / total if total else importances
