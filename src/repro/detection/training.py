"""Training-set construction for the on-the-wire detector.

The detector classifies *growing* WCGs: the first consultation happens
right after an infection clue (typically a risky download), when the
conversation is only partially observed.  Training exclusively on
complete sessions creates a distribution shift at that moment — a benign
webmail attachment's prefix WCG looks unlike any complete benign session.
``training_matrix`` therefore augments each labelled trace with its
*clue-time prefix*: the transactions up to and including the first risky
download, labelled like the full trace.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import Trace
from repro.core.payloads import is_downloadable
from repro.features.extractor import extract_matrix

__all__ = ["clue_time_prefix", "training_matrix"]


def clue_time_prefix(trace: Trace) -> Trace | None:
    """The prefix of ``trace`` as the detector would first score it.

    Cuts at the first risky download (the usual clue trigger); traces
    with no risky download — most benign browsing — are cut mid-session
    instead, so both classes contribute partially-observed graphs and
    the augmentation stays class-balanced.  Returns ``None`` when the
    prefix would equal the full trace (nothing new to learn).
    """
    transactions = sorted(trace.transactions, key=lambda t: t.timestamp)
    cut = None
    for index, txn in enumerate(transactions):
        if txn.status == 200 and is_downloadable(txn.payload_type):
            cut = index + 1
            break
    if cut is None:
        cut = max(2, (3 * len(transactions)) // 5)
    if cut >= len(transactions):
        return None
    return Trace(
        transactions=transactions[:cut],
        label=trace.label,
        family=trace.family,
        origin=trace.origin,
        meta=dict(trace.meta),
    )


def training_matrix(
    traces: list[Trace], n_jobs: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) over full traces plus their clue-time prefixes.

    Unlabelled traces are skipped; ``n_jobs`` is
    :func:`repro.features.extractor.extract_matrix`'s.
    """
    expanded: list[Trace] = []
    for trace in traces:
        if trace.label is None:
            continue
        expanded.append(trace)
        prefix = clue_time_prefix(trace)
        if prefix is not None:
            expanded.append(prefix)
    return extract_matrix(expanded, n_jobs=n_jobs)
