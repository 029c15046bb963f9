"""Ablation experiments for the design choices DESIGN.md calls out.

* voting: probability averaging vs majority vote (Section V-A's claim);
* forest: N_t / N_f sweep around the paper's tuned point;
* threshold: redirect-threshold l sweep for clue inference;
* whitelist: trusted-vendor weeding on vs off.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.analytics.report import format_table
from repro.detection.clues import CluePolicy
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.experiments.context import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    cached_features,
    default_n_jobs,
    trained_classifier,
)
from repro.learning.crossval import cross_validate
from repro.learning.forest import EnsembleRandomForest, default_max_features
from repro.synthesis.casestudy import forensic_streaming_session

__all__ = ["run_voting", "run_forest_sweep", "run_threshold_sweep",
           "run_whitelist", "report_voting", "report_forest_sweep"]


def run_voting(seed: int = DEFAULT_SEED,
               scale: float = DEFAULT_SCALE, k: int = 10) -> dict:
    """Probability averaging vs majority voting, 10-fold CV.

    With fully-grown trees every leaf is pure and the two voting rules
    coincide; the comparison is run at ``min_samples_leaf=5`` (impure
    leaves carry calibrated probabilities) — the regime where the
    paper's Section V-A variance argument applies.
    """
    X, y = cached_features(seed, scale)
    results = {}
    for mode in ("average", "majority"):
        # partial, not a lambda: the factory crosses process boundaries.
        cv = cross_validate(
            X, y, k=k, seed=seed, n_jobs=default_n_jobs(),
            model_factory=partial(
                EnsembleRandomForest, voting=mode,
                min_samples_leaf=5, random_state=seed,
            ),
        )
        summary = cv.summary()
        summary["fpr_std"] = cv.std("fpr")
        summary["tpr_std"] = cv.std("tpr")
        results[mode] = summary
    return results


def run_forest_sweep(
    seed: int = DEFAULT_SEED,
    scale: float = DEFAULT_SCALE,
    tree_counts: tuple[int, ...] = (5, 10, 20, 40),
    k: int = 5,
) -> dict:
    """Sweep N_t and N_f around the paper's tuned configuration."""
    X, y = cached_features(seed, scale)
    n_features = X.shape[1]
    paper_nf = default_max_features(n_features)
    results: dict[str, dict[str, float]] = {}
    for n_trees in tree_counts:
        for max_features in (paper_nf, n_features):
            label = (
                f"Nt={n_trees},"
                f"Nf={'log2+1' if max_features == paper_nf else 'all'}"
            )
            cv = cross_validate(
                X, y, k=k, seed=seed, n_jobs=default_n_jobs(),
                model_factory=partial(
                    EnsembleRandomForest, n_trees=n_trees,
                    max_features=max_features, random_state=seed,
                ),
            )
            results[label] = cv.summary()
    return results


def run_threshold_sweep(
    seed: int = DEFAULT_SEED,
    scale: float = DEFAULT_SCALE,
    thresholds: tuple[int, ...] = (1, 2, 3, 5, 8),
) -> dict:
    """Redirect-threshold sweep on the forensic replay stream.

    Lower l means clues (and hence classifier consultations) fire more
    eagerly; the alert set should stay stable while classification work
    grows — the threshold is a noise valve, not a verdict.
    """
    session = forensic_streaming_session(seed=2016)
    classifier = trained_classifier(seed, scale)
    results = {}
    for threshold in thresholds:
        detector = OnTheWireDetector(
            classifier,
            policy=CluePolicy(redirect_threshold=threshold),
        )
        alerts = detector.replay(session.trace.transactions)
        results[threshold] = {
            "alerts": len(alerts),
            "classifications": detector.classifications,
            "watches": detector.watch_count(),
        }
    return results


def run_whitelist(seed: int = DEFAULT_SEED,
                  scale: float = DEFAULT_SCALE) -> dict:
    """Trusted-vendor weeding on vs off over a mixed stream.

    The stream adds trusted-vendor software downloads on top of the
    forensic session; with weeding off, those transactions reach the
    session table and inflate the work done (and potentially alerts).
    """
    from repro.core.model import (
        Headers, HttpMethod, HttpRequest, HttpResponse, HttpTransaction,
    )
    from repro.synthesis.entities import TRUSTED_VENDORS

    session = forensic_streaming_session(seed=2016)
    base = list(session.trace.transactions)
    start = base[0].timestamp
    rng = np.random.default_rng(5)
    extra = []
    for index in range(60):
        vendor = TRUSTED_VENDORS[index % len(TRUSTED_VENDORS)]
        ts = start + float(rng.uniform(0, 4000))
        request = HttpRequest(
            method=HttpMethod.GET,
            uri=f"/updates/package-{index}.exe",
            host=vendor,
            client="fan-laptop",
            timestamp=ts,
            headers=Headers({"Host": vendor}),
        )
        response = HttpResponse(
            status=200, timestamp=ts + 0.4,
            headers=Headers({
                "Content-Type": "application/x-msdownload",
                "Content-Length": "9000000",
            }),
        )
        extra.append(HttpTransaction(request, response))
    merged = base + extra  # replay() sorts by timestamp

    classifier = trained_classifier(seed, scale)
    results = {}
    for use_whitelist in (True, False):
        detector = OnTheWireDetector(
            classifier,
            policy=CluePolicy(redirect_threshold=3),
            config=DetectorConfig(use_whitelist=use_whitelist),
        )
        alerts = detector.replay(merged)
        results["on" if use_whitelist else "off"] = {
            "alerts": len(alerts),
            "weeded": detector.transactions_weeded,
            "classifications": detector.classifications,
        }
    return results


def report_voting(seed: int = DEFAULT_SEED,
                  scale: float = DEFAULT_SCALE) -> str:
    """Printable voting-mode ablation."""
    results = run_voting(seed, scale)
    rows = [
        [mode, m["tpr"], m["fpr"], m["f_score"], m["fpr_std"]]
        for mode, m in results.items()
    ]
    return format_table(
        ["Voting", "TPR", "FPR", "F-score", "FPR std (variance proxy)"],
        rows,
        title="Ablation: probability averaging vs majority vote",
    )


def report_forest_sweep(seed: int = DEFAULT_SEED,
                        scale: float = DEFAULT_SCALE) -> str:
    """Printable N_t/N_f sweep."""
    results = run_forest_sweep(seed, scale)
    rows = [
        [label, m["tpr"], m["fpr"], m["f_score"]]
        for label, m in results.items()
    ]
    return format_table(
        ["Config", "TPR", "FPR", "F-score"], rows,
        title="Ablation: forest hyper-parameter sweep",
    )
