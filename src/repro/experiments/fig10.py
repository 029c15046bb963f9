"""Experiment fig10: ROC curve of the ERF on all features (Figure 10).

The paper draws the ROC of the classifier used for the independent test:
trained on the ground truth, scored on held-out folds.  We pool
out-of-fold decision scores across a stratified 10-fold split and sweep
the threshold.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.context import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    cached_features,
    default_n_jobs,
)
from repro.learning.crossval import stratified_kfold
from repro.learning.forest import EnsembleRandomForest
from repro.learning.metrics import auc, roc_curve

__all__ = ["run", "operating_points", "report"]


def run(seed: int = DEFAULT_SEED, scale: float = DEFAULT_SCALE,
        k: int = 10) -> dict:
    """Compute pooled out-of-fold ROC points and the area under them."""
    X, y = cached_features(seed, scale)
    scores = np.zeros(len(y))
    for train_idx, test_idx in stratified_kfold(y, k=k, seed=seed):
        model = EnsembleRandomForest(n_trees=20, random_state=seed)
        model.fit(X[train_idx], y[train_idx], n_jobs=default_n_jobs())
        scores[test_idx] = model.decision_scores(X[test_idx])
    fpr, tpr, thresholds = roc_curve(y, scores)
    return {
        "fpr": fpr,
        "tpr": tpr,
        "thresholds": thresholds,
        "auc": auc(fpr, tpr),
    }


def operating_points(
    seed: int = DEFAULT_SEED,
    scale: float = DEFAULT_SCALE,
    thresholds: tuple[float, ...] = (0.3, 0.5, 0.7, 0.9),
) -> dict[float, dict[str, float]]:
    """TPR/FPR at concrete alert thresholds — the deployment dial.

    The ROC curve shows what is *achievable*; a deployment must pick a
    threshold.  Returns the operating point for each candidate.
    """
    data = run(seed, scale)
    points = {}
    for threshold in thresholds:
        # Last curve point whose threshold is still >= the candidate.
        mask = data["thresholds"] >= threshold
        index = int(np.sum(mask)) - 1
        index = max(0, min(index, len(data["fpr"]) - 1))
        points[threshold] = {
            "tpr": float(data["tpr"][index]),
            "fpr": float(data["fpr"][index]),
        }
    return points


def report(seed: int = DEFAULT_SEED, scale: float = DEFAULT_SCALE) -> str:
    """ASCII rendition of the Figure 10 ROC curve."""
    data = run(seed, scale)
    lines = [f"Fig. 10 (reproduced): ROC curve, AUC = {data['auc']:.4f}"]
    # Sample ~12 evenly spaced curve points for the log.
    fpr, tpr = data["fpr"], data["tpr"]
    picks = np.unique(
        np.linspace(0, len(fpr) - 1, num=min(12, len(fpr))).astype(int)
    )
    lines.append("FPR     TPR")
    for index in picks:
        lines.append(f"{fpr[index]:.4f}  {tpr[index]:.4f}")
    lines.append("operating points (threshold: TPR @ FPR):")
    for threshold, point in operating_points(seed, scale).items():
        lines.append(
            f"  {threshold:.1f}: TPR {point['tpr']:.3f} @ "
            f"FPR {point['fpr']:.3f}"
        )
    return "\n".join(lines)
