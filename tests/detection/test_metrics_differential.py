"""Metrics must observe the pipeline, never steer it.

The contract of the observability layer (DESIGN.md §11): running the
exact same capture with metrics enabled and disabled produces
byte-identical transactions, graphs, feature vectors, and alerts — the
instruments only count.  And when enabled, the counters must agree with
the pipeline's own ground truth (alert totals, cache versions), or the
telemetry is lying.
"""

import numpy as np

from repro.core.builder import build_wcg
from repro.core.model import Trace
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.detection.live import LiveDecoder, LiveDetector
from repro.features.extractor import FeatureExtractor
from repro.net.flows import packets_from_trace
from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    PipelineStatsReporter,
    use_registry,
)
from tests.conftest import make_txn
from tests.oracles.topology import simple_graph


def _merged_capture(small_corpus):
    infection = next(
        t for t in small_corpus.infections if not t.meta.get("stealth")
    )
    benign = small_corpus.benign[0]
    merged = Trace(transactions=sorted(
        infection.transactions + benign.transactions,
        key=lambda t: t.timestamp,
    ))
    packets, book = packets_from_trace(merged)
    packets.sort(key=lambda p: p.timestamp)
    return packets, book


def _run_live(trained_model, packets, book, reporter=None):
    """One full LiveDetector pass under the currently active registry."""
    detector = OnTheWireDetector(
        trained_model, config=DetectorConfig(alert_threshold=0.5)
    )
    live = LiveDetector(detector, book=book, reporter=reporter)
    for packet in packets:
        live.feed(packet)
    live.finish()
    return detector, live


def _alert_tuples(detector):
    return [
        (a.client, a.clue, a.score, a.wcg_order, a.wcg_size)
        for a in detector.alerts
    ]


class TestMetricsAreInert:
    def test_live_run_is_byte_identical_on_and_off(
        self, trained_model, small_corpus
    ):
        packets, book = _merged_capture(small_corpus)

        with use_registry(NULL_REGISTRY):
            base_detector, base_live = _run_live(trained_model, packets, book)
        registry = MetricsRegistry()
        with use_registry(registry):
            obs_detector, obs_live = _run_live(trained_model, packets, book)

        # Same transactions surfaced, same watches, same classifier work,
        # same alerts down to the float scores.
        assert obs_live.transactions_emitted == base_live.transactions_emitted
        assert obs_detector.transactions_seen == base_detector.transactions_seen
        assert obs_detector.classifications == base_detector.classifications
        assert obs_detector.watch_count() == base_detector.watch_count()
        assert _alert_tuples(obs_detector) == _alert_tuples(base_detector)
        assert base_detector.alerts  # the capture does alert

        # The counters agree with the pipeline's own ground truth.
        counters = registry.snapshot()["counters"]
        assert counters["detector.alerts"] == len(obs_detector.alerts)
        assert (counters["detector.transactions"]
                == obs_detector.transactions_seen)
        assert (counters["detector.scores_requested"]
                == obs_detector.classifications)
        assert counters["session.watches_opened"] == obs_detector.watch_count()

    def test_decoder_graphs_and_vectors_identical(self, small_corpus):
        packets, book = _merged_capture(small_corpus)

        def decode():
            decoder = LiveDecoder(book=book)
            transactions = []
            for packet in packets:
                transactions.extend(decoder.feed(packet))
            transactions.extend(decoder.flush())
            return transactions

        with use_registry(NULL_REGISTRY):
            base_txns = decode()
            base_wcg = build_wcg(base_txns)
            base_vector = FeatureExtractor().extract(base_wcg)
        with use_registry():
            obs_txns = decode()
            obs_wcg = build_wcg(obs_txns)
            obs_vector = FeatureExtractor().extract(obs_wcg)

        assert len(obs_txns) == len(base_txns)
        for ours, theirs in zip(obs_txns, base_txns):
            assert ours.request == theirs.request
            assert ours.response == theirs.response
        base_graph = simple_graph(base_wcg)
        obs_graph = simple_graph(obs_wcg)
        assert set(obs_graph.nodes) == set(base_graph.nodes)
        assert set(obs_graph.edges) == set(base_graph.edges)
        assert np.array_equal(obs_vector, base_vector)


class TestCountersMatchGroundTruth:
    def test_extractor_cache_counters_track_versions(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            extractor = FeatureExtractor()
            wcg = build_wcg([make_txn(ts=1.0)])
            extractor.extract(wcg)  # cold: vector + topology miss
            extractor.extract(wcg)  # warm: vector hit, topology untouched
        counters = registry.snapshot()["counters"]
        assert counters["features.vector_cache_misses"] == 1
        assert counters["features.vector_cache_hits"] == 1
        assert counters["features.topology_cache_misses"] == 1
        assert counters["features.topology_cache_hits"] == 0

        with use_registry(registry):
            # A feature-bearing mutation without new structure: re-uses
            # the topology tier, recomputes the vector.
            structure_before = wcg.structure_version
            wcg.dnt = True
            assert wcg.structure_version == structure_before
            extractor.extract(wcg)
        counters = registry.snapshot()["counters"]
        assert counters["features.vector_cache_misses"] == 2
        assert counters["features.topology_cache_hits"] == 1
        assert counters["features.topology_cache_misses"] == 1

        with use_registry(registry):
            # New structure (a new host pair) invalidates both tiers.
            builder_txns = [make_txn(ts=1.0),
                            make_txn(host="other.com", ts=2.0)]
            wcg2 = build_wcg(builder_txns)
            assert wcg2.structure_version > 0
            extractor.extract(wcg2)
        counters = registry.snapshot()["counters"]
        assert counters["features.topology_cache_misses"] == 2

    def test_enabled_run_emits_complete_snapshot(
        self, trained_model, small_corpus
    ):
        """The acceptance snapshot: nonzero stage counters, span
        timings, and a populated score-latency histogram."""
        packets, book = _merged_capture(small_corpus)
        registry = MetricsRegistry()
        with use_registry(registry):
            reporter = PipelineStatsReporter(registry=registry)
            detector, live = _run_live(
                trained_model, packets, book, reporter=reporter
            )

        assert reporter.emitted >= 1  # finish() emitted the finalize line
        snapshot = reporter.snapshot("final")
        counters = snapshot["counters"]
        for name in (
            "decode.packets",
            "decode.bytes",
            "http.transactions",
            "detector.transactions",
            "detection.clues_fired",
            "detector.scores_requested",
            "detector.alerts",
            "session.watches_opened",
            "wcg.edges_appended",
            "features.vector_cache_misses",
        ):
            assert counters[name] > 0, name
        assert counters["decode.packets"] == len(packets)
        assert counters["http.transactions"] == live.transactions_emitted
        assert counters["http.requests"] >= live.transactions_emitted
        assert counters["reassembly.segments"] > 0

        histograms = snapshot["histograms"]
        for name in (
            "span.decode.feed",
            "span.detector.process_batch",
            "span.detector.finalize",
            "detector.score_latency_seconds",
            "detector.score_batch_size",
        ):
            assert histograms[name]["count"] > 0, name
            assert histograms[name]["p50"] is not None, name
        assert (histograms["detector.score_latency_seconds"]["min"] or 0) >= 0
        assert histograms["span.decode.feed"]["count"] == len(packets)

        # The forest counter matches the scoring volume.
        assert counters["forest.rows_scored"] >= detector.classifications
