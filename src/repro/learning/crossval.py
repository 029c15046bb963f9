"""Stratified k-fold cross-validation (the paper evaluates with 10-fold)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

import numpy as np

from repro.exceptions import LearningError
from repro.learning.forest import EnsembleRandomForest
from repro.learning.metrics import evaluate_scores
from repro.parallel import parallel_map

__all__ = ["stratified_kfold", "cross_validate", "CrossValResult"]


def stratified_kfold(
    y: np.ndarray, k: int = 10, seed: int = 0
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(train_idx, test_idx)`` pairs with per-class stratification.

    Each class's indices are shuffled deterministically and dealt
    round-robin across the ``k`` folds, so every fold preserves the class
    ratio to within one sample.
    """
    y = np.asarray(y)
    if k < 2:
        raise LearningError("k must be >= 2")
    classes = np.unique(y)
    smallest = min(int(np.sum(y == c)) for c in classes)
    if smallest < k:
        raise LearningError(
            f"smallest class has {smallest} samples; cannot make {k} folds"
        )
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in classes:
        indices = np.where(y == cls)[0]
        rng.shuffle(indices)
        for position, index in enumerate(indices):
            folds[position % k].append(int(index))
    all_indices = np.arange(len(y))
    for fold in folds:
        test_idx = np.array(sorted(fold))
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[test_idx] = False
        yield all_indices[train_mask], test_idx


@dataclass
class CrossValResult:
    """Aggregated cross-validation metrics (mean ± std per metric)."""

    per_fold: list[dict[str, float]] = field(default_factory=list)

    def mean(self, metric: str) -> float:
        """Mean of ``metric`` across folds."""
        return float(np.mean([fold[metric] for fold in self.per_fold]))

    def std(self, metric: str) -> float:
        """Standard deviation of ``metric`` across folds."""
        return float(np.std([fold[metric] for fold in self.per_fold]))

    def summary(self) -> dict[str, float]:
        """Mean of every recorded metric."""
        if not self.per_fold:
            return {}
        return {key: self.mean(key) for key in self.per_fold[0]}


def _run_fold(job: tuple) -> dict[str, float]:
    """Pool worker: fit on one fold's train split, score its test split."""
    X, y, train_idx, test_idx, factory, threshold = job
    model = factory()
    model.fit(X[train_idx], y[train_idx])
    scores = model.decision_scores(X[test_idx])
    return evaluate_scores(y[test_idx], scores, threshold=threshold)


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    model_factory: Callable[[], EnsembleRandomForest] | None = None,
    k: int = 10,
    seed: int = 0,
    threshold: float = 0.5,
    feature_indices: list[int] | None = None,
    n_jobs: int | None = None,
) -> CrossValResult:
    """Run stratified k-fold CV and collect Table III-style metrics.

    Args:
        model_factory: builds a fresh classifier per fold (defaults to a
            paper-configured :class:`EnsembleRandomForest`).
        feature_indices: optional column subset (the Table III ablation
            trains on feature groups).
        n_jobs: folds run in a process pool (``None`` = serial, ``-1`` =
            all cores).  Fold membership and every model seed derive from
            ``seed`` alone, so the metrics are byte-identical for any
            value; with ``n_jobs > 1`` the factory must be picklable —
            a module-level callable or ``functools.partial``, not a
            lambda or closure.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if feature_indices is not None:
        X = X[:, feature_indices]
    factory = model_factory or partial(EnsembleRandomForest,
                                       random_state=seed)
    jobs = [
        (X, y, train_idx, test_idx, factory, threshold)
        for train_idx, test_idx in stratified_kfold(y, k=k, seed=seed)
    ]
    result = CrossValResult()
    result.per_fold = parallel_map(_run_fold, jobs, n_jobs=n_jobs)
    return result
