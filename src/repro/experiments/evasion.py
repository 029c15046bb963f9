"""Experiment evasion: the Section VII adversarial analysis, measured.

The paper *argues* about three evasion strategies a determined
adversary may employ (cloaked download dynamics, cloaked redirection
dynamics, post-download tweaks) and predicts how DynaMiner degrades
under each.  This experiment turns those arguments into measurements:
generate episodes per evasion mode and record the trained classifier's
detection rate.

Expected shape (the paper's predictions):

* baseline episodes are detected near the headline TPR;
* dropping any *single* dynamic (redirects, post-download, exploit
  payload type) costs little — "it will still be classified as
  infectious due to the prediction score averaging" (Section VII);
* combining all cloaks (our *stealth* mode, approximating fileless
  infection) defeats the detector — "DynaMiner may not be able to
  detect as the resulting WCG will miss the most revealing features."
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

from repro.analytics.report import format_table
from repro.detection.training import training_matrix
from repro.experiments.context import DEFAULT_SCALE, DEFAULT_SEED
from repro.features.extractor import FeatureExtractor
from repro.learning.forest import EnsembleRandomForest
from repro.synthesis.corpus import ground_truth_corpus
from repro.synthesis.families import EXPLOIT_KIT_FAMILIES
from repro.synthesis.infection import EpisodeConfig, InfectionGenerator

__all__ = ["EVASION_MODES", "run", "report"]

#: Evasion mode -> EpisodeConfig factory.
EVASION_MODES: dict[str, EpisodeConfig] = {
    "baseline": EpisodeConfig(redirectless=False, with_post_download=True),
    "cloaked-redirects": EpisodeConfig(redirectless=True,
                                       with_post_download=True),
    "no-post-download": EpisodeConfig(redirectless=False,
                                      with_post_download=False),
    "compressed-payload": EpisodeConfig(redirectless=False,
                                        with_post_download=True,
                                        compressed_payload=True),
    "full-stealth": EpisodeConfig(stealth=True),
}


@lru_cache(maxsize=2)
def _zero_day_classifier(seed: int, scale: float) -> EnsembleRandomForest:
    """An ERF trained on a corpus with NO stealth episodes.

    The Section VII analysis is about an adversary adapting *after* the
    defender trained — so the training corpus must not contain the
    evasive behaviour being measured.
    """
    corpus = ground_truth_corpus(seed=seed, scale=scale,
                                 stealth_fraction=0.0)
    X, y = training_matrix(corpus.traces)
    model = EnsembleRandomForest(n_trees=20, random_state=seed)
    model.fit(X, y)
    return model


def run(
    seed: int = DEFAULT_SEED,
    scale: float = DEFAULT_SCALE,
    episodes_per_mode: int = 60,
    threshold: float = 0.5,
) -> dict[str, dict[str, float]]:
    """Per-mode detection rate and mean classifier score.

    The *mean score* is the robust signal: thresholded rates swing when
    a mode's scores cluster near the cut, while the score itself moves
    smoothly with how much evidence the evasion removed.
    """
    classifier = _zero_day_classifier(seed, scale)
    extractor = FeatureExtractor()
    results: dict[str, dict[str, float]] = {}
    families = EXPLOIT_KIT_FAMILIES[:4]  # the four largest
    for mode, config in EVASION_MODES.items():
        rng = np.random.default_rng(
            seed * 1000 + zlib.crc32(mode.encode()) % 997
        )
        vectors = []
        for index in range(episodes_per_mode):
            profile = families[index % len(families)]
            generator = InfectionGenerator(profile, rng)
            trace = generator.generate(config)
            vectors.append(extractor.extract_trace(trace))
        # One matrix call per mode: classifier rows are independent, so
        # the per-episode scores are identical to single-row calls.
        scores_arr = classifier.decision_scores(np.stack(vectors))
        results[mode] = {
            "detection_rate": float((scores_arr >= threshold).mean()),
            "mean_score": float(scores_arr.mean()),
        }
    return results


def report(seed: int = DEFAULT_SEED, scale: float = DEFAULT_SCALE) -> str:
    """Printable evasion-resilience table."""
    results = run(seed, scale)
    rows = [
        [mode, f"{m['detection_rate']:.1%}", f"{m['mean_score']:.2f}"]
        for mode, m in results.items()
    ]
    table = format_table(
        ["Evasion strategy", "Detection rate", "Mean score"], rows,
        title="Section VII (measured): detection under evasion",
    )
    return (
        table
        + "\n(The paper predicts single-dynamic cloaks survive the ERF's"
        "\n probability averaging while full cloaking evades detection.)"
    )
