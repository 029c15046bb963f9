"""DynaMiner reproduction: payload-agnostic web-conversation-graph
analytics for on-the-wire malware detection (Eshete & Venkatakrishnan,
DSN 2017).

Public API tour:

* :mod:`repro.core` — the WCG abstraction: HTTP domain model, graph
  construction, redirect inference, stage labeling, session grouping.
* :mod:`repro.net` — pcap/TCP/HTTP wire substrate (round-trips synthetic
  traces through real packet bytes).
* :mod:`repro.synthesis` — calibrated corpus generators standing in for
  the paper's PCAP datasets (see DESIGN.md §2).
* :mod:`repro.features` — the 37 payload-agnostic features of Table II.
* :mod:`repro.learning` — from-scratch CART + probability-averaging
  Ensemble Random Forest, metrics, CV, gain-ratio ranking.
* :mod:`repro.detection` — the on-the-wire detector (clues, session
  watches, vendor weeding, alerts, the live packet engine).
* :mod:`repro.obs` — pipeline observability: metrics registry, timing
  spans, structured logging, JSON-lines stats snapshots (DESIGN.md §11).
* :mod:`repro.vtsim` — simulated VirusTotal baseline with signature lag.
* :mod:`repro.analytics` / :mod:`repro.experiments` — the offline study
  and one runner per paper table/figure.

Quickstart::

    from repro import quick_detector
    detector, corpus = quick_detector(scale=0.2)
    for trace in corpus.infections[:3]:
        alerts = detector.replay(trace.transactions)
        print(trace.family, "->", len(alerts), "alert(s)")
"""

from repro.core import Trace, WebConversationGraph, build_wcg
from repro.detection import CluePolicy, DetectorConfig, OnTheWireDetector
from repro.features import FeatureExtractor, extract_matrix
from repro.learning import EnsembleRandomForest
from repro.synthesis import Corpus, ground_truth_corpus, validation_corpus

__version__ = "1.0.0"

__all__ = [
    "Corpus",
    "CluePolicy",
    "DetectorConfig",
    "EnsembleRandomForest",
    "FeatureExtractor",
    "OnTheWireDetector",
    "Trace",
    "WebConversationGraph",
    "build_wcg",
    "extract_matrix",
    "ground_truth_corpus",
    "quick_detector",
    "validation_corpus",
]


def quick_detector(
    seed: int = 7, scale: float = 0.25
) -> tuple[OnTheWireDetector, Corpus]:
    """Train a paper-configured detector on a ground-truth corpus.

    Returns the ready-to-stream detector together with the corpus it was
    trained on.  Intended for quickstarts and demos; real deployments
    should train at ``scale=1.0``.
    """
    from repro.detection.training import training_matrix

    corpus = ground_truth_corpus(seed=seed, scale=scale)
    X, y = training_matrix(corpus.traces)
    classifier = EnsembleRandomForest(n_trees=20, random_state=seed)
    classifier.fit(X, y)
    return OnTheWireDetector(classifier), corpus
