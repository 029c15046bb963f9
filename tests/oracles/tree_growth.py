"""Reference CART grower: per-node argsort, one-hot cumulative counts.

The original tree-growth formulation, moved here verbatim when
``repro.learning.grower.grow_tree_presorted`` became the only production
grower.  Its arithmetic *is* the byte-identity contract of
``tests/learning/test_grower.py`` and must not drift: same dtype, same
operation order, same RNG draw order (one ``rng.choice`` per attempted
split, in preorder — node, left subtree, right subtree).

It shares nothing with the code under test: it grows linked nodes of
its own (production trees are flat :class:`repro.learning.tree.
NodeTable` rows) and :func:`linked_signature` / :func:`table_signature`
reduce the two shapes to one comparable form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class _Node:
    """One linked tree node; leaves carry a class-probability vector."""

    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    proba: np.ndarray | None = None


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


def linked_signature(root: _Node) -> list[tuple]:
    """Byte-level preorder signature of a linked tree (iterative, so a
    chain deeper than the recursion limit is fine)."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.proba is not None:
            out.append(("leaf", node.proba.tobytes()))
        else:
            out.append(
                ("split", node.feature, np.float64(node.threshold).tobytes())
            )
            stack.append(node.right)
            stack.append(node.left)
    return out


def table_signature(table) -> list[tuple]:
    """The same signature read off a node table by following its child
    links from row 0 — and the links must visit the rows in table order,
    i.e. the table is the preorder the grower promises."""
    out = []
    visited = []
    stack = [0]
    while stack:
        row = stack.pop()
        visited.append(row)
        if table.feature[row] < 0:
            out.append(("leaf", table.proba[row].tobytes()))
        else:
            out.append(("split", int(table.feature[row]),
                        table.threshold[row].tobytes()))
            stack.append(int(table.right[row]))
            stack.append(int(table.left[row]))
    assert visited == list(range(len(table.feature)))
    return out


def grow_tree_reference(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    *,
    max_depth: int | None,
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: int | None,
    criterion: str,
    rng: np.random.Generator,
) -> _Node:
    """Grow a tree with an explicit work stack; same call shape as
    :func:`repro.learning.grower.grow_tree_presorted` minus
    ``column_ranks``.

    Iterative rather than recursive so ``max_depth=None`` can grow trees
    deeper than the interpreter recursion limit.  The stack pops in the
    recursive preorder (node, left subtree, right subtree), so the
    per-split RNG draws — and hence the grown tree — are identical to
    what the recursive formulation produced.
    """
    impurity = _CRITERIA[criterion]

    def leaf_proba(y_part: np.ndarray) -> np.ndarray:
        counts = np.bincount(y_part, minlength=n_classes).astype(np.float64)
        return counts / counts.sum()

    def best_split(X: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
        n_samples, n_features = X.shape
        k = max_features or n_features
        k = min(k, n_features)
        candidates = (
            rng.choice(n_features, size=k, replace=False)
            if k < n_features
            else np.arange(n_features)
        )
        parent_counts = np.bincount(y, minlength=n_classes).astype(float)
        parent_impurity = impurity(parent_counts)
        best_gain = 1e-12
        best: tuple[int, float] | None = None
        min_leaf = min_samples_leaf
        for feature in candidates:
            column = X[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_col = column[order]
            sorted_y = y[order]
            # One-hot cumulative class counts along the sorted column.
            onehot = np.zeros((n_samples, n_classes))
            onehot[np.arange(n_samples), sorted_y] = 1.0
            cum = np.cumsum(onehot, axis=0)
            # Valid split positions: between distinct consecutive values.
            diffs = np.nonzero(np.diff(sorted_col) > 0)[0]
            if diffs.size == 0:
                continue
            positions = diffs[
                (diffs + 1 >= min_leaf) & (n_samples - diffs - 1 >= min_leaf)
            ]
            if positions.size == 0:
                continue
            left_counts = cum[positions]
            right_counts = parent_counts - left_counts
            left_sizes = (positions + 1).astype(float)
            right_sizes = n_samples - left_sizes
            # Vectorized impurity for all positions.
            if criterion == "gini":
                left_imp = 1.0 - np.sum(
                    (left_counts / left_sizes[:, None]) ** 2, axis=1
                )
                right_imp = 1.0 - np.sum(
                    (right_counts / right_sizes[:, None]) ** 2, axis=1
                )
            else:
                left_frac = left_counts / left_sizes[:, None]
                right_frac = right_counts / right_sizes[:, None]
                with np.errstate(divide="ignore", invalid="ignore"):
                    left_imp = -np.nansum(
                        np.where(left_frac > 0,
                                 left_frac * np.log2(left_frac), 0.0),
                        axis=1,
                    )
                    right_imp = -np.nansum(
                        np.where(right_frac > 0,
                                 right_frac * np.log2(right_frac), 0.0),
                        axis=1,
                    )
            weighted = (
                left_sizes * left_imp + right_sizes * right_imp
            ) / n_samples
            gains = parent_impurity - weighted
            top = int(np.argmax(gains))
            if gains[top] > best_gain:
                best_gain = float(gains[top])
                position = positions[top]
                threshold = (
                    sorted_col[position] + sorted_col[position + 1]
                ) / 2.0
                # Adjacent floats can make the midpoint round up to the
                # upper value; clamp so `<= threshold` keeps the split
                # non-degenerate.
                if threshold >= sorted_col[position + 1]:
                    threshold = sorted_col[position]
                best = (int(feature), float(threshold))
        return best

    root = _Node()
    stack: list[tuple[np.ndarray, np.ndarray, int, _Node]] = [
        (X, y, 0, root)
    ]
    while stack:
        X_part, y_part, node_depth, node = stack.pop()
        n_samples = len(y_part)
        if (
            n_samples < min_samples_split
            or (max_depth is not None and node_depth >= max_depth)
            or len(np.unique(y_part)) == 1
        ):
            node.proba = leaf_proba(y_part)
            continue
        split = best_split(X_part, y_part)
        if split is None:
            node.proba = leaf_proba(y_part)
            continue
        feature, threshold = split
        mask = X_part[:, feature] <= threshold
        if not mask.any() or mask.all():
            # Degenerate split (can only stem from float pathology).
            node.proba = leaf_proba(y_part)
            continue
        node.feature = feature
        node.threshold = threshold
        node.left = _Node()
        node.right = _Node()
        # Right first so the left child pops (and draws RNG) first.
        stack.append(
            (X_part[~mask], y_part[~mask], node_depth + 1, node.right)
        )
        stack.append(
            (X_part[mask], y_part[mask], node_depth + 1, node.left)
        )
    return root
