"""Experiment baselines: DynaMiner vs prior-work abstractions.

Section VIII claims DynaMiner "differs from this body of work in its
richer abstraction and comprehensive analytics of WCGs".  This
experiment quantifies that: the same 10-fold-CV ERF is trained on
(a) the full 37 WCG features, (b) Kwon-style downloader-graph features
[12], and (c) SpiderWeb/Mekky-style redirection-chain features [25, 14].
"""

from __future__ import annotations

from repro.analytics.report import format_table
from repro.baselines import downloader_graph, redirect_chain
from repro.experiments.context import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    cached_features,
    cached_ground_truth,
    default_n_jobs,
)
from repro.learning.crossval import cross_validate

__all__ = ["run", "report"]


def run(seed: int = DEFAULT_SEED, scale: float = DEFAULT_SCALE,
        k: int = 10) -> dict[str, dict[str, float]]:
    """10-fold CV per abstraction; returns metrics keyed by system."""
    jobs = default_n_jobs()
    corpus = cached_ground_truth(seed, scale)
    results: dict[str, dict[str, float]] = {}

    X_wcg, y = cached_features(seed, scale)
    results["DynaMiner (WCG, 37 features)"] = cross_validate(
        X_wcg, y, k=k, seed=seed, n_jobs=jobs
    ).summary()

    X_dg, y_dg = downloader_graph.extract_matrix(corpus.traces)
    results["Downloader graph [12]"] = cross_validate(
        X_dg, y_dg, k=k, seed=seed, n_jobs=jobs
    ).summary()

    X_rc, y_rc = redirect_chain.extract_matrix(corpus.traces)
    results["Redirection chains [25,14]"] = cross_validate(
        X_rc, y_rc, k=k, seed=seed, n_jobs=jobs
    ).summary()
    return results


def report(seed: int = DEFAULT_SEED, scale: float = DEFAULT_SCALE) -> str:
    """Printable abstraction comparison."""
    results = run(seed, scale)
    rows = [
        [system, m["tpr"], m["fpr"], m["f_score"], m["roc_area"]]
        for system, m in results.items()
    ]
    return format_table(
        ["Abstraction", "TPR", "FPR", "F-score", "ROC Area"], rows,
        title="Baselines (Section VIII, quantified): abstraction"
              " comparison under the same ERF",
    )
