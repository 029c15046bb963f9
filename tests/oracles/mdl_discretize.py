"""Entropy/MDL discretization (Fayyad & Irani, 1993).

The paper ranks features with the *gain ratio* metric, which it most
likely computed in Weka — whose attribute evaluators discretize numeric
attributes with the Fayyad-Irani MDL method before computing information
measures.  ``repro.learning.ranking`` uses a single best binary split;
this is the full recursive MDL discretization, kept as the reference
that ``tests/learning/test_discretize.py`` checks the shortcut's top
features against (it was ``repro.learning.discretize`` and a
``rank_features`` option until no caller outside the tests chose it).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["mdl_cut_points", "discretize", "mdl_gain_ratio"]


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    fractions = counts[counts > 0] / total
    return float(-np.sum(fractions * np.log2(fractions)))


def _class_counts(y: np.ndarray, n_classes: int) -> np.ndarray:
    return np.bincount(y, minlength=n_classes).astype(float)


def _best_cut(sorted_col: np.ndarray, sorted_y: np.ndarray,
              n_classes: int) -> tuple[int, float] | None:
    """Best boundary index by information gain; None if no valid cut."""
    n = len(sorted_y)
    boundaries = np.nonzero(np.diff(sorted_col) > 0)[0]
    if boundaries.size == 0:
        return None
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), sorted_y] = 1.0
    cum = np.cumsum(onehot, axis=0)
    totals = cum[-1]
    left = cum[boundaries]
    right = totals - left
    left_sizes = (boundaries + 1).astype(float)
    right_sizes = n - left_sizes

    def _ent(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        fractions = counts / sizes[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(fractions > 0,
                             fractions * np.log2(fractions), 0.0)
        return -terms.sum(axis=1)

    weighted = (left_sizes * _ent(left, left_sizes)
                + right_sizes * _ent(right, right_sizes)) / n
    best = int(np.argmin(weighted))
    parent = _entropy(totals)
    gain = parent - float(weighted[best])
    if gain <= 0:
        return None
    return int(boundaries[best]), gain


def _mdl_accepts(sorted_y: np.ndarray, cut: int, gain: float,
                 n_classes: int) -> bool:
    """Fayyad-Irani MDL stopping criterion."""
    n = len(sorted_y)
    left, right = sorted_y[:cut + 1], sorted_y[cut + 1:]
    k = len(np.unique(sorted_y))
    k1 = len(np.unique(left))
    k2 = len(np.unique(right))
    ent = _entropy(_class_counts(sorted_y, n_classes))
    ent1 = _entropy(_class_counts(left, n_classes))
    ent2 = _entropy(_class_counts(right, n_classes))
    delta = math.log2(3**k - 2) - (k * ent - k1 * ent1 - k2 * ent2)
    threshold = (math.log2(n - 1) + delta) / n
    return gain > threshold


def mdl_cut_points(column: np.ndarray, y: np.ndarray) -> list[float]:
    """Recursive-partition MDL discretization; sorted cut thresholds.

    The partition runs on an explicit work stack rather than Python
    recursion (popping left-segment first keeps the original preorder
    cut sequence), so adversarial columns accepting thousands of nested
    cuts cannot hit the interpreter recursion limit — consistent with
    the tree growers, which are iterative for the same reason.
    """
    column = np.asarray(column, dtype=np.float64)
    y = np.asarray(y)
    classes, encoded = np.unique(y, return_inverse=True)
    n_classes = len(classes)
    order = np.argsort(column, kind="stable")
    sorted_col = column[order]
    sorted_y = encoded[order]
    cuts: list[float] = []

    stack: list[tuple[int, int]] = [(0, len(sorted_y))]
    while stack:
        lo, hi = stack.pop()
        segment_col = sorted_col[lo:hi]
        segment_y = sorted_y[lo:hi]
        if len(segment_y) < 4 or len(np.unique(segment_y)) < 2:
            continue
        found = _best_cut(segment_col, segment_y, n_classes)
        if found is None:
            continue
        cut, gain = found
        if not _mdl_accepts(segment_y, cut, gain, n_classes):
            continue
        threshold = (segment_col[cut] + segment_col[cut + 1]) / 2.0
        cuts.append(float(threshold))
        stack.append((lo + cut + 1, hi))
        stack.append((lo, lo + cut + 1))
    return sorted(cuts)


def discretize(column: np.ndarray, cuts: list[float]) -> np.ndarray:
    """Map a numeric column to bin indices given cut thresholds."""
    return np.searchsorted(np.asarray(cuts), np.asarray(column),
                           side="right")


def mdl_gain_ratio(column: np.ndarray, y: np.ndarray) -> float:
    """Gain ratio of the MDL-discretized column (Weka-style).

    Returns 0 for columns the MDL criterion refuses to cut at all —
    Weka's convention for "no information".
    """
    column = np.asarray(column, dtype=np.float64)
    y = np.asarray(y)
    if len(y) == 0:
        return 0.0
    cuts = mdl_cut_points(column, y)
    if not cuts:
        return 0.0
    bins = discretize(column, cuts)
    classes, encoded = np.unique(y, return_inverse=True)
    n_classes = len(classes)
    parent = _entropy(_class_counts(encoded, n_classes))
    n = len(y)
    weighted = 0.0
    split_info = 0.0
    for value in np.unique(bins):
        mask = bins == value
        weight = mask.sum() / n
        weighted += weight * _entropy(_class_counts(encoded[mask],
                                                    n_classes))
        split_info -= weight * math.log2(weight)
    gain = parent - weighted
    if split_info <= 0:
        return 0.0
    return max(0.0, gain / split_info)
