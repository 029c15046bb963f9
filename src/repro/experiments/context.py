"""Shared experiment context with per-process caching.

Corpus generation and feature extraction dominate experiment runtime, so
the runners share them through ``functools.lru_cache``d builders keyed by
``(seed, scale)``.  ``DEFAULT_SCALE`` trades fidelity for wall-clock time
— ``1.0`` regenerates the paper's full corpus sizes, while benches
default to a reduced-but-faithful scale.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from repro.features.extractor import extract_matrix
from repro.learning.forest import EnsembleRandomForest
from repro.synthesis.corpus import Corpus, ground_truth_corpus, validation_corpus

__all__ = [
    "DEFAULT_SCALE",
    "DEFAULT_SEED",
    "default_n_jobs",
    "set_default_n_jobs",
    "cached_ground_truth",
    "cached_validation",
    "cached_features",
    "cached_validation_features",
    "trained_classifier",
]

#: Default corpus scale for benches; override with REPRO_SCALE=1.0 for
#: full-fidelity runs.
DEFAULT_SCALE = float(os.environ.get("REPRO_SCALE", "0.35"))
DEFAULT_SEED = 7

#: Process count for the offline pipeline (extraction / fitting / CV);
#: seeded via REPRO_N_JOBS, overridable with `dynaminer run --n-jobs`.
#: Results are byte-identical for any value (see repro.parallel).
_DEFAULT_N_JOBS = int(os.environ.get("REPRO_N_JOBS", "1"))


def default_n_jobs() -> int:
    """The process count experiment drivers use when not told otherwise."""
    return _DEFAULT_N_JOBS


def set_default_n_jobs(n_jobs: int) -> None:
    """Override the experiment drivers' process count (the CLI hook)."""
    global _DEFAULT_N_JOBS
    _DEFAULT_N_JOBS = n_jobs


@lru_cache(maxsize=4)
def cached_ground_truth(seed: int = DEFAULT_SEED,
                        scale: float = DEFAULT_SCALE) -> Corpus:
    """The Table I ground-truth corpus (memoized)."""
    return ground_truth_corpus(seed=seed, scale=scale)


@lru_cache(maxsize=2)
def cached_validation(seed: int = 1301,
                      scale: float = DEFAULT_SCALE) -> Corpus:
    """The Section VI-B validation corpus (memoized).

    Note: the validation corpus is ~5x the ground truth; its scale knob
    is shared so both shrink proportionally.
    """
    return validation_corpus(seed=seed, scale=scale)


@lru_cache(maxsize=4)
def cached_features(
    seed: int = DEFAULT_SEED, scale: float = DEFAULT_SCALE
) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) over the ground-truth corpus (memoized).

    ``default_n_jobs()`` is read at call time rather than being a cache
    key: the extracted matrix is identical for any worker count.
    """
    corpus = cached_ground_truth(seed, scale)
    return extract_matrix(corpus.traces, n_jobs=default_n_jobs())


@lru_cache(maxsize=2)
def cached_validation_features(
    seed: int = 1301, scale: float = DEFAULT_SCALE
) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) over the validation corpus (memoized)."""
    corpus = cached_validation(seed, scale)
    return extract_matrix(corpus.traces, n_jobs=default_n_jobs())


@lru_cache(maxsize=4)
def trained_classifier(
    seed: int = DEFAULT_SEED,
    scale: float = DEFAULT_SCALE,
    n_trees: int = 20,
) -> EnsembleRandomForest:
    """The paper-configured ERF for on-the-wire deployment.

    Trained on the ground truth *plus clue-time prefix WCGs* (see
    :mod:`repro.detection.training`), so the classifier has seen the
    partially-observed graphs it will be consulted on mid-stream.
    """
    from repro.detection.training import training_matrix

    corpus = cached_ground_truth(seed, scale)
    X, y = training_matrix(corpus.traces, n_jobs=default_n_jobs())
    model = EnsembleRandomForest(n_trees=n_trees, random_state=seed)
    model.fit(X, y, n_jobs=default_n_jobs())
    return model
