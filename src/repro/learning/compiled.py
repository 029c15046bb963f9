"""Compiled-forest inference engine: flat arrays, vectorized traversal.

The on-the-wire stage queries the ERF on every meaningful WCG update
(Section VI), so classifier latency sits directly on the live detection
path.  Walking each tree's node table row by row costs O(rows x trees
x depth) Python iterations per call; this module compiles a fitted
forest into a struct-of-arrays *arena* — one node table shared by all
trees —
and traverses it level-wise with vectorized index stepping, so a batch
costs O(depth) numpy operations regardless of how many rows or trees it
covers.  Those operations cost the same for one row as for a hundred,
and the live path asks for one row at a time, so up to
``_ROW_WISE_MAX_ROWS`` rows the same arena is walked row by row in
plain Python instead (:meth:`CompiledForest.predict_proba` picks by row
count; both walks produce the same bytes).

Layout (the per-tree :class:`repro.learning.tree.NodeTable`, widened):

* every tree's table is appended to the arena as it stands; child
  indices are rebased by the tree's node offset, so they index
  straight into the arena;
* ``feature[i] == -1`` marks a leaf; ``gather_feature`` clamps leaves
  to column 0 so the traversal can gather unconditionally;
* children pack into one array addressed ``child[2*i + go_left]``
  (``child[2*i]`` = right, ``child[2*i + 1]`` = left), turning the
  step into a single gather instead of two gathers plus a ``where``;
  leaves self-loop (both slots point back at the leaf) so finished
  (row, tree) lanes idle while deeper lanes keep descending;
* ``leaf_proba[i]`` holds the leaf's class-probability row *already
  scattered* into forest-class columns (the per-tree
  ``searchsorted(forest_classes, tree_classes)`` alignment is baked in
  at compile time, so inference never recomputes it);
* ``leaf_vote[i]`` holds the forest-class column the leaf's argmax
  lands on (ties to the lowest class label), precomputed for the
  majority-voting mode;
* ``depth`` is the deepest root-to-leaf path, measured at compile time,
  so the traversal runs a fixed iteration count with no per-level
  termination scan.

Equivalence contract: every public method is **byte-identical** to
combining the per-tree table walks (the reference combiner lives in
``tests/oracles/forest_inference.py``).  The traversal applies the same
IEEE comparison (``x <= threshold`` goes left; NaN compares false and
goes right), and probability averaging accumulates per tree, in tree
order, exactly like that reference — adding a pre-scattered row is
bytewise the same as scattering then adding, because leaf probabilities
are non-negative (no ``-0.0 + 0.0`` sign flips) and ``x + 0.0 == x``
for every such ``x``.  ``tests/learning/test_compiled.py`` pins the
contract on random, degenerate, and adversarial inputs.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import LearningError
from repro.learning.tree import DecisionTreeClassifier

__all__ = ["CompiledForest", "compile_forest"]

#: Up to this many rows :meth:`CompiledForest.predict_proba` walks the
#: arena row by row; measured crossover in DESIGN.md §10.
_ROW_WISE_MAX_ROWS = 4


class CompiledForest:
    """Arena of every tree in a fitted forest, traversed level-wise.

    Instances are immutable snapshots of the forest they were compiled
    from; refitting or mutating ``trees_`` requires recompilation (the
    forest does this automatically on ``fit`` and on load).
    """

    def __init__(
        self, classes: np.ndarray, trees: list[DecisionTreeClassifier]
    ):
        self.classes = np.asarray(classes)
        self.n_features = trees[0].n_features_
        self.n_trees = len(trees)
        tables = [tree._fitted() for tree in trees]
        sizes = [len(table.feature) for table in tables]
        self.roots = np.cumsum([0] + sizes[:-1], dtype=np.intp)
        self.feature = np.concatenate([t.feature for t in tables])
        self.threshold = np.concatenate([t.threshold for t in tables])
        # child[2*i] = right, child[2*i + 1] = left, rebased into the
        # arena; leaves self-loop in the table already.
        self.child = np.concatenate([
            np.stack((t.right, t.left), axis=1).reshape(-1) + root
            for t, root in zip(tables, self.roots)
        ])
        self.leaf_proba = np.zeros((len(self.feature), len(self.classes)))
        self.leaf_vote = np.zeros(len(self.feature), dtype=np.intp)
        for tree, table, root in zip(trees, tables, self.roots):
            # A tree fitted on a degenerate bootstrap may have seen
            # fewer classes than the forest: its posterior columns are
            # scattered to the forest's here, once.
            columns = np.searchsorted(self.classes, tree._classes)
            rows = slice(root, root + len(table.feature))
            self.leaf_proba[rows, columns] = table.proba
            # argmax ties resolve to the first index — the lowest
            # tree-local class, hence the lowest class label (split
            # rows are never read).
            self.leaf_vote[rows] = columns[table.proba.argmax(axis=1)]
        self.depth = max(tree.depth for tree in trees)
        #: Leaf lanes gather column 0; the comparison outcome is
        #: irrelevant because both child slots self-loop.
        self.gather_feature = np.maximum(self.feature, 0)
        #: The arena as plain lists, for the row-wise walk.
        self._row_arena = (self.roots.tolist(), self.feature.tolist(),
                           self.threshold.tolist(), self.child.tolist(),
                           self.leaf_proba.tolist())

    # -- traversal -----------------------------------------------------------

    def _leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf arena index per (row, tree): level-wise index stepping.

        Each iteration advances every (row, tree) lane one level:
        gather the lane's split feature and threshold, compare, and
        step through the packed child table.  Lanes parked on a leaf
        self-loop, so running exactly ``depth`` iterations (the arena's
        deepest path, measured at compile time) lands every lane on its
        leaf — O(depth) numpy operations for the whole batch, with no
        per-level termination scan.  NaN feature values compare False
        and step right, identical to the table walk's
        ``row[feature] <= threshold`` branch.
        """
        rows = X.shape[0]
        pos = np.repeat(self.roots[None, :], rows, axis=0)
        if rows == 0 or self.depth == 0:
            return pos
        flat = np.ascontiguousarray(X).reshape(-1)
        row_offset = (np.arange(rows, dtype=np.intp)
                      * self.n_features)[:, None]
        gather_feature = self.gather_feature
        threshold, child = self.threshold, self.child
        for _ in range(self.depth):
            values = flat.take(row_offset + gather_feature.take(pos))
            go_left = values <= threshold.take(pos)
            pos = child.take((pos << 1) + go_left)
        return pos

    def _validate(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise LearningError(
                f"expected shape (*, {self.n_features}), got {X.shape}"
            )
        return X

    # -- prediction ----------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability-averaged class matrix (the paper's ERF vote).

        Accumulates per tree in tree order so the result is bytewise
        what the per-tree walks' scatter-and-add produces.
        """
        X = self._validate(X)
        if len(X) <= _ROW_WISE_MAX_ROWS:
            return self._predict_proba_row_wise(X)
        pos = self._leaves(X)
        total = np.zeros((len(X), len(self.classes)))
        for index in range(self.n_trees):
            total += self.leaf_proba[pos[:, index]]
        return total / self.n_trees

    def _predict_proba_row_wise(self, X: np.ndarray) -> np.ndarray:
        """:meth:`predict_proba` for a handful of rows, in plain Python.

        The level-wise walk costs ~``6 * depth`` numpy calls however few
        lanes they move; one row is ``n_trees`` short descents, cheaper
        as list indexing on floats.  Same comparisons (``NaN <= t`` is
        False and steps right) and the same float64 additions in the
        same tree order as the matrix path, so the bytes are equal.
        """
        roots, feature, threshold, child, leaf_proba = self._row_arena
        classes = range(len(self.classes))
        n_trees = self.n_trees
        out = np.empty((len(X), len(self.classes)))
        for index, row in enumerate(X.tolist()):
            total = [0.0] * len(classes)
            for node in roots:
                split = feature[node]
                while split >= 0:
                    node = child[2 * node + (row[split] <= threshold[node])]
                    split = feature[node]
                proba = leaf_proba[node]
                for column in classes:
                    total[column] += proba[column]
            out[index] = [value / n_trees for value in total]
        return out

    def explain(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decision-path explanation of one row, in one vectorized pass.

        Returns ``(leaves, counts)``: the leaf arena index each tree
        lands on (so callers can read per-tree votes from
        ``leaf_vote`` and per-tree probabilities from ``leaf_proba``),
        and the number of split nodes across all trees that tested
        each feature on the row's root-to-leaf paths — the
        per-feature decision-path usage counts of alert provenance.

        Same level-wise stepping as :meth:`_leaves`, with one extra
        ``bincount`` over the still-interior lanes per level; lanes
        parked on leaves (``feature == -1``) are masked out of the
        tally and the walk exits early once every lane has parked.
        """
        row = np.asarray(x, dtype=np.float64).reshape(-1)
        if row.shape[0] != self.n_features:
            raise LearningError(
                f"expected {self.n_features} features, got {row.shape[0]}"
            )
        pos = self.roots.copy()
        counts = np.zeros(self.n_features, dtype=np.int64)
        threshold, child = self.threshold, self.child
        for _ in range(self.depth):
            features = self.feature.take(pos)
            interior = features >= 0
            if not interior.any():
                break
            counts += np.bincount(features[interior],
                                  minlength=self.n_features)
            values = row.take(np.maximum(features, 0))
            go_left = values <= threshold.take(pos)
            pos = child.take((pos << 1) + go_left)
        return pos, counts

    def vote_fractions(self, X: np.ndarray) -> np.ndarray:
        """Hard-vote fractions (the ``voting="majority"`` ablation).

        Per-leaf argmax columns are precomputed with ties resolved to
        the lowest class label.
        """
        X = self._validate(X)
        pos = self._leaves(X)
        votes = np.zeros((len(X), len(self.classes)))
        row_index = np.arange(len(X))
        for index in range(self.n_trees):
            votes[row_index, self.leaf_vote[pos[:, index]]] += 1.0
        return votes / self.n_trees


def compile_forest(forest) -> CompiledForest:
    """Compile a fitted :class:`EnsembleRandomForest` into an arena."""
    if not forest.trees_:
        raise LearningError("cannot compile an unfitted forest")
    return CompiledForest(forest._classes, forest.trees_)
