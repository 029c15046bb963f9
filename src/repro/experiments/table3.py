"""Experiment table3: feature-group ablation (Table III).

10-fold cross-validation of the ERF on three feature subsets: all 37
features, graph features only (f7-f25), and everything except graph
features (HLFs+HFs+TFs).
"""

from __future__ import annotations

from repro.analytics.report import format_table
from repro.experiments.context import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    cached_features,
    default_n_jobs,
)
from repro.features.registry import FeatureGroup, indices_of_groups
from repro.learning.crossval import cross_validate

__all__ = ["SUBSETS", "run", "report"]

_G = FeatureGroup

#: Table III rows: label -> feature-index subset (None = all).
SUBSETS: dict[str, list[int] | None] = {
    "All": None,
    "GFs": indices_of_groups({_G.GRAPH}),
    "HLFs+HFs+TFs": indices_of_groups({_G.HIGH_LEVEL, _G.HEADER, _G.TEMPORAL}),
}


def run(seed: int = DEFAULT_SEED, scale: float = DEFAULT_SCALE,
        k: int = 10) -> dict[str, dict[str, float]]:
    """Run the three-row ablation; returns metrics per subset."""
    X, y = cached_features(seed, scale)
    results: dict[str, dict[str, float]] = {}
    for label, indices in SUBSETS.items():
        cv = cross_validate(X, y, k=k, seed=seed, feature_indices=indices,
                            n_jobs=default_n_jobs())
        results[label] = cv.summary()
    return results


def report(seed: int = DEFAULT_SEED, scale: float = DEFAULT_SCALE,
           k: int = 10) -> str:
    """Printable Table III reproduction."""
    results = run(seed, scale, k)
    rows = [
        [label, m["tpr"], m["fpr"], m["f_score"], m["roc_area"]]
        for label, m in results.items()
    ]
    return format_table(
        ["Features", "TPR", "FPR", "F-score", "ROC Area"], rows,
        title="Table III (reproduced): impact of features on accuracy",
    )
