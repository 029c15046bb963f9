"""Differential tests: incremental WCG maintenance vs. from-scratch builds.

The live path (one long-lived :class:`WCGBuilder` fed per transaction,
one :class:`FeatureExtractor` with warm topology caches) must produce,
after *every* prefix of the stream, exactly the graph and exactly the
feature vector a cold :func:`build_wcg` + fresh extraction produces for
that prefix — byte-identical, not approximately equal (DESIGN.md §9).

Streams come from the synthesis corpus (realistic infections and benign
browsing) plus randomized shuffles, so both the in-order fast path and
the out-of-order replay path are exercised.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.builder import WCGBuilder, build_wcg
from repro.core.wcg import WebConversationGraph
from repro.features.extractor import FeatureExtractor
from repro.synthesis.corpus import ground_truth_corpus

_PREFIX_CAP = 28  # transactions per stream (keeps the O(n^2) check fast)


def _fingerprint(wcg: WebConversationGraph):
    """Order-independent but otherwise complete content snapshot."""
    nodes = sorted(
        (
            host,
            wcg.node_data(host).kind.value,
            tuple(sorted(wcg.node_data(host).uris)),
        )
        for host in wcg.hosts()
    )
    edges = sorted(
        (source, target, data.kind.value, data.timestamp)
        for source, target, data in wcg.edges()
    )
    return (
        wcg.victim, wcg.origin, wcg.dnt, wcg.x_flash_version,
        nodes, edges,
    )


def _streams():
    corpus = ground_truth_corpus(seed=97, scale=0.02)
    picked = corpus.infections[:3] + corpus.benign[:3]
    rng = random.Random(41)
    streams = []
    for trace in picked:
        txns = list(trace.transactions)[:_PREFIX_CAP]
        streams.append(("in-order", sorted(txns, key=lambda t: t.timestamp)))
        shuffled = list(txns)
        rng.shuffle(shuffled)
        streams.append(("shuffled", shuffled))
    return streams


@pytest.mark.parametrize(
    "label, txns", _streams(),
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_every_prefix_matches_cold_build(label, txns):
    builder = WCGBuilder()
    live_extractor = FeatureExtractor()
    for count in range(1, len(txns) + 1):
        builder.add(txns[count - 1])
        live = builder.build()
        cold = build_wcg(txns[:count])

        assert _fingerprint(live) == _fingerprint(cold), (
            f"graph divergence after prefix of {count} ({label})"
        )
        assert live.counters == cold.counters
        assert live.edge_timestamps == cold.edge_timestamps
        assert live.request_timestamps == cold.request_timestamps

        live_vector = live_extractor.extract(live)
        cold_vector = FeatureExtractor().extract(cold)
        # Byte-identity, not approx: the live path reads topology from
        # structure-keyed caches and the classifier must see exactly
        # what a from-scratch extraction would produce.
        assert np.array_equal(live_vector, cold_vector), (
            f"feature divergence after prefix of {count} ({label}): "
            f"{live_vector - cold_vector}"
        )

