"""Columnar extraction differentials (DESIGN.md §14).

Three byte-identity properties over the same corpus-derived streams the
live/batch differential uses:

* **reference parity** — the structural topology kernels equal the
  networkx walk (``tests.oracles.topology``) on every construction
  prefix, in-order and shuffled, and on random digraphs;
* **batch parity** — ``extract_batch`` / ``extract_matrix_batch`` rows
  equal per-graph ``extract`` rows and the vectorised assembly they
  replaced (``tests.oracles.feature_assembly``), bit for bit;
* **pair-sample sharing** — the connectivity pair sample is one seeded
  stream shared with the reference, and an explicit seed reproduces it.

Plus bounding regressions: the structural topology LRU must hold at
most ``_STRUCTURE_CACHE_SIZE`` entries no matter how many distinct
graphs a long-running extractor sees.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import WCGBuilder, build_wcg
from repro.core.wcg import (
    KIND_REQUEST,
    KIND_RESPONSE,
    WebConversationGraph,
)
from repro.features import extractor as extractor_module
from repro.features.extractor import (
    FeatureExtractor,
    extract_matrix_batch,
)
from repro.features.registry import feature_names
from repro.features.topology import (
    sample_connectivity_pairs,
    structural_topology_features,
    structure_key,
)
from repro.synthesis.corpus import ground_truth_corpus
from tests.oracles.feature_assembly import assemble_rows
from tests.oracles.topology import (
    average_node_connectivity_sampled,
    topology_features,
)

_PREFIX_CAP = 24  # transactions per stream (keeps the O(n^2) walk fast)


def _streams():
    corpus = ground_truth_corpus(seed=131, scale=0.02)
    picked = corpus.infections[:3] + corpus.benign[:3]
    rng = random.Random(53)
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
def test_kernels_match_networkx_reference_per_prefix(label, txns):
    """The extracted topology values equal the networkx reference after
    every construction prefix — including out-of-order replays (the
    live graph grows incrementally; the reference sees a fresh batch
    build of the same prefix)."""
    builder = WCGBuilder()
    extractor = FeatureExtractor()
    for count in range(1, len(txns) + 1):
        builder.add(txns[count - 1])
        by_name = dict(zip(feature_names(), extractor.extract(builder.build())))
        reference = topology_features(build_wcg(txns[:count]))
        extracted = {name: by_name[name] for name in reference}
        assert _bits(extracted) == _bits(reference), (
            f"divergence after prefix of {count} ({label}): "
            f"{extracted} != {reference}"
        )


def _bits(features):
    return {name: np.float64(value).tobytes()
            for name, value in features.items()}


@settings(max_examples=60, deadline=None)
@given(
    n_hosts=st.integers(1, 9),
    pairs=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=30
    ),
)
def test_kernels_match_networkx_reference_on_random_digraphs(n_hosts, pairs):
    """Shapes the corpus never produces: disconnected components,
    isolated hosts, dense reciprocal cliques, repeated pairs."""
    wcg = WebConversationGraph(victim="h0")
    for host in range(n_hosts):
        wcg.add_node(f"h{host}")
    for step, (a, b) in enumerate(pairs):
        a, b = a % n_hosts, b % n_hosts
        if a != b:
            wcg.append_edge(f"h{a}", f"h{b}", kind=KIND_REQUEST,
                            timestamp=float(step))
    assert _bits(structural_topology_features(*structure_key(wcg))) == (
        _bits(topology_features(wcg))
    )


def _corpus_graphs(scale=0.05, seed=173):
    corpus = ground_truth_corpus(seed=seed, scale=scale)
    return [build_wcg(trace) for trace in corpus.traces]


def _assembled(graphs):
    """The vectorised oracle's matrix for ``graphs``."""
    return assemble_rows(
        graphs,
        [structural_topology_features(*structure_key(g)) for g in graphs],
    )


@settings(max_examples=60, deadline=None)
@given(
    n_hosts=st.integers(1, 9),
    pairs=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8),
                  st.sampled_from([0, 200, 302, 404, 503])),
        max_size=30,
    ),
    origin=st.sampled_from(["", "h0", "search.example"]),
)
def test_rows_match_vectorised_oracle_on_random_digraphs(n_hosts, pairs,
                                                         origin):
    """Row routine vs the matrix oracle where the corpus does not go:
    edgeless graphs, a victim that is its own origin, zero denominators
    in every guarded ratio."""
    wcg = WebConversationGraph(victim="h0", origin=origin)
    for host in range(n_hosts):
        wcg.add_node(f"h{host}")
    for step, (a, b, status) in enumerate(pairs):
        a, b = a % n_hosts, b % n_hosts
        if a == b:
            continue
        if status:
            wcg.append_edge(f"h{a}", f"h{b}", kind=KIND_RESPONSE,
                            timestamp=step * 0.37, status=status)
        else:
            wcg.record_uri(f"h{b}", f"/p{step}")
            wcg.append_edge(f"h{a}", f"h{b}", kind=KIND_REQUEST,
                            timestamp=step * 0.37, method="GET",
                            referrer="r" * (step % 2))
    extractor = FeatureExtractor()
    batch = extractor.extract_batch([wcg, wcg])
    assert batch[0].tobytes() == batch[1].tobytes()
    assert batch[:1].tobytes() == _assembled([wcg]).tobytes()
    assert extractor.extract(wcg).tobytes() == batch[0].tobytes()


class TestBatchParity:
    def test_batch_rows_equal_scalar_rows(self):
        graphs = _corpus_graphs()
        matrix = FeatureExtractor().extract_batch(graphs)
        reference = np.vstack(
            [FeatureExtractor().extract(wcg) for wcg in graphs]
        )
        assert matrix.shape == reference.shape
        assert matrix.tobytes() == reference.tobytes()
        assert matrix.tobytes() == _assembled(graphs).tobytes()

    def test_live_prefix_rows_equal_the_oracle(self):
        """The detector's shape: one growing graph, re-extracted after
        every transaction, in order and shuffled."""
        extractor = FeatureExtractor()
        for _, txns in _streams():
            builder = WCGBuilder()
            for txn in txns:
                builder.add(txn)
                wcg = builder.build()
                assert (extractor.extract_batch([wcg]).tobytes()
                        == _assembled([wcg]).tobytes())

    def test_module_level_batch_matches(self):
        graphs = _corpus_graphs(scale=0.02)
        assert np.array_equal(
            extract_matrix_batch(graphs),
            np.vstack([FeatureExtractor().extract(g) for g in graphs]),
        )

    def test_batch_serves_and_fills_the_vector_cache(self):
        graphs = _corpus_graphs(scale=0.02)
        extractor = FeatureExtractor()
        first = extractor.extract_batch(graphs)
        # Second pass: every row comes from the per-graph cache.
        second = extractor.extract_batch(graphs)
        assert first.tobytes() == second.tobytes()
        # And scalar extraction reuses the rows the batch cached.
        row = extractor.extract(graphs[0])
        assert row.tobytes() == first[0].tobytes()

    def test_empty_batch(self):
        matrix = FeatureExtractor().extract_batch([])
        assert matrix.shape == (0, 37)


class TestPairSampling:
    def test_explicit_seed_is_deterministic(self):
        assert (sample_connectivity_pairs(40, pair_cap=50, seed=7)
                == sample_connectivity_pairs(40, pair_cap=50, seed=7))
        assert (sample_connectivity_pairs(40, pair_cap=50, seed=7)
                != sample_connectivity_pairs(40, pair_cap=50, seed=8))

    def test_default_seed_derives_from_count(self):
        # The order-derived default is what kernel and reference share.
        assert (sample_connectivity_pairs(40, pair_cap=50)
                == sample_connectivity_pairs(
                    40, pair_cap=50, seed=40 * 2654435761 % (2**32)))

    def test_small_graphs_enumerate_every_pair(self):
        assert sample_connectivity_pairs(4) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]
        assert sample_connectivity_pairs(1) == []

    def test_connectivity_accepts_explicit_seed(self):
        import networkx as nx
        graph = nx.gnm_random_graph(30, 70, seed=3)
        a = average_node_connectivity_sampled(graph, pair_cap=20, seed=5)
        b = average_node_connectivity_sampled(graph, pair_cap=20, seed=5)
        assert a == b


class TestStructuralCacheBounds:
    def test_lru_never_exceeds_its_cap(self, monkeypatch):
        monkeypatch.setattr(extractor_module, "_STRUCTURE_CACHE_SIZE", 8)
        extractor = FeatureExtractor()
        graphs = _corpus_graphs(scale=0.03)
        assert len(graphs) > 8
        for wcg in graphs:
            extractor.extract(wcg)
            assert extractor.structure_cache_len <= 8
        # Eviction must not corrupt results: re-extraction of an
        # already-seen (possibly evicted) structure still matches a
        # fresh extractor bit for bit.
        for wcg in graphs[:4]:
            wcg.dnt = not wcg.dnt  # force a vector recompute
            assert np.array_equal(
                extractor.extract(wcg), FeatureExtractor().extract(wcg)
            )

    def test_shared_structures_hit_across_graphs(self):
        from repro.obs import MetricsRegistry, use_registry
        from tests.conftest import make_txn

        registry = MetricsRegistry()
        with use_registry(registry):
            extractor = FeatureExtractor()
            # Two distinct graph objects, same conversation shape.
            extractor.extract(build_wcg([make_txn(ts=1.0)]))
            extractor.extract(build_wcg([make_txn(ts=2.0)]))
        counters = registry.snapshot()["counters"]
        assert counters["features.topology_cache_misses"] == 1
        assert counters["features.topology_cache_hits"] == 1


class TestBatchCounters:
    def test_batch_counters_track_rows(self):
        from repro.obs import MetricsRegistry, use_registry

        graphs = _corpus_graphs(scale=0.02)
        registry = MetricsRegistry()
        with use_registry(registry):
            extractor = FeatureExtractor()
            extractor.extract_batch(graphs)
            extractor.extract_batch(graphs[:3])
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["features.batch_extracts"] == 2
        assert counters["features.batch_rows"] == len(graphs) + 3
        # The extraction-latency histogram feeds PipelineStatsReporter.
        assert snapshot["histograms"]["span.features.extract_batch"][
            "count"] == 2
