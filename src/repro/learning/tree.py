"""CART decision tree (from scratch; sklearn is unavailable offline).

Binary classification tree over numeric features with Gini or entropy
impurity, random feature subsetting per split (the random-forest
ingredient), and probabilistic leaf predictions (class frequency at the
leaf) — the ERF in the paper averages these probabilities across trees
rather than majority-voting (Section V-A).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.exceptions import LearningError, NotFittedError

if TYPE_CHECKING:  # grower imports from this module; keep one-way at runtime
    from repro.learning.grower import ColumnRanks

__all__ = ["DecisionTreeClassifier", "NodeTable"]


class NodeTable(NamedTuple):
    """A fitted tree: one row per node, parents before their children.

    The only form a fitted tree takes in memory — the grower appends
    rows in preorder (root is row 0), the model file lists them in row
    order, the inference arena concatenates them.  Nesting depth is
    constant whatever the tree shape, so a chain deeper than the
    interpreter's recursion limit pickles and serializes like any other.
    """

    #: Split feature per node; ``-1`` marks a leaf.
    feature: np.ndarray
    #: ``x[feature] <= threshold`` steps left (NaN compares false: right).
    threshold: np.ndarray
    #: Child rows; a leaf points at itself.
    left: np.ndarray
    right: np.ndarray
    #: ``(nodes, classes)`` leaf posteriors; zero rows at splits.
    proba: np.ndarray


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
        if criterion not in ("gini", "entropy"):
            raise LearningError(f"unknown criterion {criterion!r}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.random_state = random_state
        #: The fitted tree; ``None`` until :meth:`fit` (or a model load).
        self.nodes_: NodeTable | None = None
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
        self.n_features_ = X.shape[1]
        # Imported here: grower imports NodeTable from this module, so
        # the dependency must stay one-way at import time.
        from repro.learning.grower import grow_tree_presorted

        self.nodes_ = grow_tree_presorted(
            X,
            encoded,
            len(self._classes),
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            criterion=self.criterion,
            rng=np.random.default_rng(self.random_state),
            column_ranks=column_ranks,
        )
        return self

    def _fitted(self) -> NodeTable:
        if self.nodes_ is None:
            raise NotFittedError("fit() must be called first")
        return self.nodes_

    def validate(self) -> None:
        """Reject a table that is not a tree over this tree's features
        and classes; raises :class:`LearningError`.

        The grower's output passes by construction; a table read from a
        model file has been checked by nobody, and every walker below
        (and the inference arena) trusts what this accepts: a split's
        children lie strictly after it and inside the table, a leaf
        points at itself, and every row but the root is some split's
        child exactly once — so the rows form one tree, walks terminate
        and no row is dead; split features index a real column;
        thresholds and posteriors are finite, posteriors non-negative
        rows of the tree's class count.
        """
        feature, threshold, left, right, proba = self._fitted()
        classes = self._classes
        count = len(feature)
        own = np.arange(count)
        is_split = feature >= 0
        if count == 0:
            problem = "no nodes"
        elif not np.where(
            is_split,
            (left > own) & (right > own) & (left < count) & (right < count),
            (left == own) & (right == own),
        ).all():
            problem = "child index: a split's must follow it, a leaf has none"
        elif (np.bincount(
            np.concatenate([left[is_split], right[is_split]]),
            minlength=count,
        )[1:] != 1).any():
            problem = "node not referenced exactly once"
        elif feature.max() >= self.n_features_:
            problem = f"split feature outside [0, {self.n_features_})"
        elif not np.isfinite(threshold).all():
            problem = "non-finite threshold"
        elif classes.ndim != 1 or not (
            len(classes) and np.array_equal(classes, np.unique(classes))
        ):
            problem = "classes not a sorted list of distinct labels"
        elif proba.shape != (count, len(classes)):
            problem = (f"posteriors of shape {proba.shape} for {count} nodes"
                       f" x {len(classes)} classes")
        elif not (np.isfinite(proba).all() and (proba >= 0).all()):
            problem = "negative or non-finite posterior"
        else:
            return
        raise LearningError(f"malformed tree: {problem}")

    # -- prediction ----------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix, one row per sample.

        A plain per-row walk of the table — the reference the compiled
        arena is proven against (``tests/oracles/forest_inference.py``).
        """
        table = self._fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise LearningError(
                f"expected shape (*, {self.n_features_}), got {X.shape}"
            )
        feature, threshold, left, right = (
            column.tolist() for column in table[:4]
        )
        out = np.empty((len(X), table.proba.shape[1]))
        for index, row in enumerate(X.tolist()):
            node = 0
            while feature[node] >= 0:
                go_left = row[feature[node]] <= threshold[node]
                node = left[node] if go_left else right[node]
            out[index] = table.proba[node]
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class labels (argmax ties break to the first index,
        i.e. the lowest label — ``_classes`` is sorted)."""
        return self._classes[self.predict_proba(X).argmax(axis=1)]

    @property
    def depth(self) -> int:
        """Depth of the grown tree (0 for a single leaf)."""
        table = self._fitted()
        left, right = table.left.tolist(), table.right.tolist()
        # Parents precede their children, so one forward sweep over the
        # splits settles every node's level.
        level = [0] * len(left)
        for node in np.flatnonzero(table.feature >= 0).tolist():
            level[left[node]] = level[right[node]] = level[node] + 1
        return max(level)

    def feature_importances(self) -> np.ndarray:
        """Split-frequency importances (how often each feature splits)."""
        feature = self._fitted().feature
        importances = np.bincount(
            feature[feature >= 0], minlength=self.n_features_
        ).astype(np.float64)
        total = importances.sum()
        return importances / total if total else importances
