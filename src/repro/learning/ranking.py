"""Gain-ratio feature ranking with k-fold averaging (Table IV).

The paper ranks features by the *gain ratio* metric under 10-fold cross
validation and reports, per feature, the gain ratio (mean ± std across
folds) and the average rank (mean ± std).  For continuous features we
use the standard binary-discretization gain ratio: information gain of
the best threshold split, normalized by that split's intrinsic (split)
information — the same criterion Weka's ``GainRatioAttributeEval``
applies after MDL discretization collapses to a single cut point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.learning.crossval import stratified_kfold
from repro.learning.grower import (
    class_cumulative_counts,
    presort_columns,
    restrict_sorted,
)

__all__ = ["RankedFeature", "rank_features"]


def _entropy_of(labels: np.ndarray) -> float:
    if len(labels) == 0:
        return 0.0
    _, counts = np.unique(labels, return_counts=True)
    fractions = counts / counts.sum()
    return float(-np.sum(fractions * np.log2(fractions)))


def _split_entropy(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    fractions = counts / sizes[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(fractions > 0, fractions * np.log2(fractions), 0.0)
    return -terms.sum(axis=1)


def _ratios_from_boundaries(
    sorted_col: np.ndarray,
    cum: np.ndarray,
    parent_entropy: float,
) -> float:
    """Best gain ratio given a sorted column and its cumulative counts.

    The split-scan arithmetic of the presorted CV path; the one-column
    reference in ``tests/oracles/gain_ratio.py`` calls it too, so the
    two are identical by construction.
    """
    n = len(sorted_col)
    boundaries = np.nonzero(np.diff(sorted_col) > 0)[0]
    if boundaries.size == 0:
        return 0.0
    totals = cum[-1]
    left_counts = cum[boundaries]
    right_counts = totals - left_counts
    left_sizes = (boundaries + 1).astype(float)
    right_sizes = n - left_sizes
    weighted = (
        left_sizes * _split_entropy(left_counts, left_sizes)
        + right_sizes * _split_entropy(right_counts, right_sizes)
    ) / n
    gains = parent_entropy - weighted
    left_frac = left_sizes / n
    right_frac = right_sizes / n
    split_info = -(
        left_frac * np.log2(left_frac) + right_frac * np.log2(right_frac)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(split_info > 0, gains / split_info, 0.0)
    best = float(np.max(ratios))
    return max(0.0, best)


def _fold_gain_ratios(
    X: np.ndarray,
    sorted_idx: np.ndarray,
    y: np.ndarray,
    train_idx: np.ndarray,
) -> np.ndarray:
    """Gain ratios of every column on one CV train fold.

    Rides the grower's presorted split-scan kernel: the full matrix is
    argsorted once per :func:`rank_features` call, each fold restricts
    the presorted index columns with a linear stable pass
    (:func:`restrict_sorted`), and cumulative class counts come from
    :func:`class_cumulative_counts` — no per-fold per-column re-argsort.
    Within-tie row order may differ from a direct argsort of the fold's
    column, but the scan only reads cumulative counts at tie-class
    boundaries, so every ratio is bit-identical to scoring the fold's
    column alone after a fresh argsort (``gain_ratio`` in
    ``tests/oracles/gain_ratio.py``).
    """
    n, n_features = X.shape
    out = np.zeros(n_features)
    keep = np.zeros(n, dtype=bool)
    keep[train_idx] = True
    sub = restrict_sorted(sorted_idx, keep)
    m = sub.shape[0]
    if m == 0:
        return out
    y_train = y[keep]
    classes, enc_train = np.unique(y_train, return_inverse=True)
    n_classes = len(classes)
    enc_row = np.zeros(n, dtype=enc_train.dtype)
    enc_row[keep] = enc_train
    parent_entropy = _entropy_of(y_train)
    cum_buf = np.empty((m, n_classes))
    for j in range(n_features):
        ids = sub[:, j]
        sorted_col = X[ids, j]
        if not np.any(np.diff(sorted_col) > 0):
            continue
        cum = class_cumulative_counts(enc_row[ids], n_classes, out=cum_buf)
        out[j] = _ratios_from_boundaries(sorted_col, cum, parent_entropy)
    return out


@dataclass(frozen=True)
class RankedFeature:
    """One Table IV row."""

    name: str
    gain_ratio_mean: float
    gain_ratio_std: float
    rank_mean: float
    rank_std: float


def rank_features(
    X: np.ndarray,
    y: np.ndarray,
    names: list[str],
    k: int = 10,
    seed: int = 0,
) -> list[RankedFeature]:
    """Rank all feature columns by gain ratio under k-fold CV.

    Per fold, gain ratios are computed on the training portion and
    features ranked (1 = best).  Returns features ordered by mean rank,
    each carrying ``mean ± std`` for both the gain ratio and the rank —
    exactly the Table IV columns.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n_features = X.shape[1]
    if len(names) != n_features:
        raise ValueError("names length must match feature count")
    sorted_idx = presort_columns(X)
    ratios = np.zeros((k, n_features))
    ranks = np.zeros((k, n_features))
    for fold_index, (train_idx, _) in enumerate(
        stratified_kfold(y, k=k, seed=seed)
    ):
        fold_ratios = _fold_gain_ratios(X, sorted_idx, y, train_idx)
        ratios[fold_index] = fold_ratios
        # Rank 1 = highest gain ratio; ties broken by column order.
        order = np.argsort(-fold_ratios, kind="stable")
        fold_ranks = np.empty(n_features)
        fold_ranks[order] = np.arange(1, n_features + 1)
        ranks[fold_index] = fold_ranks
    results = [
        RankedFeature(
            name=names[j],
            gain_ratio_mean=float(ratios[:, j].mean()),
            gain_ratio_std=float(ratios[:, j].std()),
            rank_mean=float(ranks[:, j].mean()),
            rank_std=float(ranks[:, j].std()),
        )
        for j in range(n_features)
    ]
    results.sort(key=lambda r: r.rank_mean)
    return results
