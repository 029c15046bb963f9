#!/usr/bin/env python3
"""Quickstart: train DynaMiner and stream traffic through it.

Builds a (reduced-scale) ground-truth corpus, trains the paper's
Ensemble Random Forest on the 37 payload-agnostic WCG features, and
deploys the on-the-wire detector over a few previously unseen episodes.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import quick_detector
from repro.detection.detector import OnTheWireDetector
from repro.features.extractor import extract_matrix
from repro.learning.metrics import evaluate_scores
from repro.synthesis.corpus import ground_truth_corpus


def main() -> None:
    print("== 1. Train on a ground-truth corpus (Table I composition) ==")
    detector, training_corpus = quick_detector(seed=7, scale=0.2)
    print(f"   corpus: {len(training_corpus.benign)} benign, "
          f"{len(training_corpus.infections)} infections "
          f"across {len(training_corpus.families)} exploit-kit families")
    print(f"   classifier: {len(detector.classifier.trees_)} trees, "
          f"probability-averaging vote")

    print("\n== 2. Offline accuracy on an unseen draw ==")
    unseen = ground_truth_corpus(seed=99, scale=0.05)
    X, y = extract_matrix(unseen.traces)
    metrics = evaluate_scores(y, detector.classifier.decision_scores(X))
    print(f"   TPR={metrics['tpr']:.3f}  FPR={metrics['fpr']:.3f}  "
          f"F-score={metrics['f_score']:.3f}  "
          f"ROC area={metrics['roc_area']:.3f}")
    print("   (paper: TPR 0.973, FPR 0.015, F 0.972, ROC 0.978)")

    print("\n== 3. On-the-wire detection, transaction by transaction ==")
    for trace in unseen.infections[:3]:
        live = OnTheWireDetector(detector.classifier)
        alerts = live.replay(trace.transactions)
        verdict = "ALERT" if alerts else "missed"
        stealth = " (stealth episode)" if trace.meta.get("stealth") else ""
        print(f"   {trace.family:12s} {len(trace.transactions):3d} txns "
              f"-> {verdict}{stealth}")
    for trace in unseen.benign[:3]:
        live = OnTheWireDetector(detector.classifier)
        alerts = live.replay(trace.transactions)
        verdict = "false alert!" if alerts else "clean"
        print(f"   benign/{trace.meta.get('scenario', '?'):10s} "
              f"{len(trace.transactions):3d} txns -> {verdict}")


if __name__ == "__main__":
    main()
