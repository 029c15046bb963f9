"""Experiment families: per-exploit-kit detection breakdown.

The paper reports corpus-level rates; a deployment wants to know *which
kits* the detector is strong or weak against.  This experiment holds
out each family's traces in turn (train on the rest + benign, test on
the held-out family) — leave-one-family-out generalization, the
sternest version of "can it catch a kit it never saw".
"""

from __future__ import annotations

import numpy as np

from repro.analytics.report import format_table
from repro.experiments.context import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    cached_features,
    cached_ground_truth,
    default_n_jobs,
)
from repro.learning.forest import EnsembleRandomForest

__all__ = ["run", "report"]


def run(seed: int = DEFAULT_SEED, scale: float = DEFAULT_SCALE,
        threshold: float = 0.5) -> dict[str, dict[str, float]]:
    """Leave-one-family-out detection rates."""
    corpus = cached_ground_truth(seed, scale)
    X, y = cached_features(seed, scale)  # row i is corpus.traces[i]

    results: dict[str, dict[str, float]] = {}
    for family in corpus.families:
        held_out = [i for i, t in enumerate(corpus.traces)
                    if t.family == family]
        train_idx = [i for i, t in enumerate(corpus.traces)
                     if t.family != family]
        if len(held_out) < 2:
            continue
        model = EnsembleRandomForest(n_trees=20, random_state=seed)
        model.fit(X[train_idx], y[train_idx], n_jobs=default_n_jobs())
        scores = model.decision_scores(X[held_out])
        detected = int(np.sum(scores >= threshold))
        results[family] = {
            "episodes": float(len(held_out)),
            "detected": float(detected),
            "tpr": detected / len(held_out),
            "mean_score": float(scores.mean()),
        }
    return results


def report(seed: int = DEFAULT_SEED, scale: float = DEFAULT_SCALE) -> str:
    """Printable leave-one-family-out table."""
    results = run(seed, scale)
    rows = [
        [family, int(m["episodes"]), int(m["detected"]),
         f"{m['tpr']:.1%}", f"{m['mean_score']:.2f}"]
        for family, m in sorted(results.items(),
                                key=lambda kv: -kv[1]["tpr"])
    ]
    return format_table(
        ["Family (held out)", "Episodes", "Detected", "TPR", "Mean score"],
        rows,
        title="Extension: leave-one-family-out generalization",
    )
