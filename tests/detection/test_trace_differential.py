"""Tracing must observe the detection path, never steer it.

The tracing contract (DESIGN.md §16) mirrors the metrics one: running
the exact same capture with tracing enabled and disabled produces
byte-identical transactions, alerts (modulo the ``provenance`` field,
which only exists when traced), scores, and metrics snapshots.  And
when enabled, every alert must carry a provenance record whose fields
agree with the pipeline's own ground truth.
"""

import numpy as np

from repro.core.model import Trace
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.detection.live import LiveDetector
from repro.net.flows import packets_from_trace
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    canonical_events,
    use_registry,
    use_tracer,
)


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


def _run_live(trained_model, packets, book):
    """One full LiveDetector pass under the currently active tracer."""
    detector = OnTheWireDetector(
        trained_model, config=DetectorConfig(alert_threshold=0.5)
    )
    live = LiveDetector(detector, book=book)
    for packet in packets:
        live.feed(packet)
    live.finish()
    return detector, live


def _alert_tuples(detector):
    """Every Alert field except provenance (absent when untraced)."""
    return [
        (a.client, a.score, a.clue, a.timestamp, a.wcg_order,
         a.wcg_size, a.session_key)
        for a in detector.alerts
    ]


class TestTracingIsInert:
    def test_outputs_identical_on_and_off(self, trained_model, small_corpus):
        packets, book = _merged_capture(small_corpus)

        with use_tracer(NULL_TRACER):
            base_detector, base_live = _run_live(trained_model, packets, book)
        with use_tracer(Tracer()) as tracer:
            obs_detector, obs_live = _run_live(trained_model, packets, book)

        assert obs_live.transactions_emitted == base_live.transactions_emitted
        assert obs_detector.transactions_seen == base_detector.transactions_seen
        assert obs_detector.classifications == base_detector.classifications
        assert obs_detector.watch_count() == base_detector.watch_count()
        assert _alert_tuples(obs_detector) == _alert_tuples(base_detector)
        assert base_detector.alerts  # the capture does alert
        # Untraced alerts carry no provenance; traced ones all do.
        assert all(a.provenance is None for a in base_detector.alerts)
        assert all(a.provenance is not None for a in obs_detector.alerts)
        assert tracer.event_count > 0

    def test_metrics_identical_on_and_off(self, trained_model, small_corpus):
        """The metrics stream must not notice tracing — in particular
        the WCG replay counters (edge events are emitted from the
        detector's own growth diff, never by forcing extra builds)."""
        packets, book = _merged_capture(small_corpus)

        def run():
            registry = MetricsRegistry()
            with use_registry(registry):
                _run_live(trained_model, packets, book)
            snap = registry.snapshot()
            # Wall-clock histograms differ run to run by construction;
            # counts are deterministic, timings are not.
            for hist in snap["histograms"].values():
                for key in ("sum", "min", "max", "mean",
                            "p50", "p90", "p99", "samples"):
                    hist.pop(key, None)
            return snap

        with use_tracer(NULL_TRACER):
            base = run()
        with use_tracer(Tracer()):
            traced = run()
        base_counters = {
            name: value for name, value in base["counters"].items()
            if not name.startswith("forest.arena_rebuilds")
        }
        traced_counters = {
            name: value for name, value in traced["counters"].items()
            if not name.startswith("forest.arena_rebuilds")
        }
        assert traced_counters == base_counters
        assert traced["histograms"] == base["histograms"]

    def test_same_capture_same_canonical_trace(
        self, trained_model, small_corpus
    ):
        """Two traced runs of the same packets produce the identical
        canonical event stream (wall-clock fields stripped)."""
        packets, book = _merged_capture(small_corpus)
        streams = []
        for _ in range(2):
            with use_tracer(Tracer()) as tracer:
                _run_live(trained_model, packets, book)
                streams.append(canonical_events(tracer.drain()))
        assert streams[0] == streams[1]
        kinds = {event["kind"] for event in streams[0]}
        assert {"watch", "clue", "edge", "wcg", "score",
                "verdict"} <= kinds


class TestProvenanceGroundTruth:
    def test_provenance_fields_agree_with_alert(
        self, trained_model, small_corpus
    ):
        packets, book = _merged_capture(small_corpus)
        with use_tracer(Tracer()) as tracer:
            detector, _ = _run_live(trained_model, packets, book)
        assert detector.alerts
        n_trees = len(trained_model.trees_)
        for alert in detector.alerts:
            prov = alert.provenance
            assert prov.wcg_order == alert.wcg_order
            assert prov.wcg_size == alert.wcg_size
            # The clue chain starts at (or before) the alerting clue.
            assert prov.clue_chain
            assert prov.clues_total >= len(prov.clue_chain) > 0
            assert prov.first_clue_ts <= alert.clue.timestamp
            assert prov.time_to_detection == (
                alert.timestamp - prov.first_clue_ts
            )
            assert prov.time_from_first_edge == (
                alert.timestamp - prov.first_edge_ts
            )
            assert prov.first_edge_ts <= alert.timestamp
            # Forest explanation is complete and self-consistent.
            assert len(prov.tree_votes) == n_trees
            assert len(prov.tree_scores) == n_trees
            assert sum(prov.vote_tally) == n_trees
            assert prov.vote_tally[1] == sum(
                1 for vote in prov.tree_votes if vote == 1
            )
            assert len(prov.feature_path_counts) == 37
            assert sum(prov.feature_path_counts) > 0
            # The mean positive-class probability IS the alert score.
            assert np.isclose(float(np.mean(prov.tree_scores)), alert.score)

    def test_alert_verdict_events_embed_provenance(
        self, trained_model, small_corpus
    ):
        packets, book = _merged_capture(small_corpus)
        with use_tracer(Tracer()) as tracer:
            detector, _ = _run_live(trained_model, packets, book)
            events = tracer.drain()
        verdicts = [
            e for e in events
            if e.kind == "verdict" and e.data["decision"] == "alert"
        ]
        assert len(verdicts) == len(detector.alerts)
        for event, alert in zip(verdicts, detector.alerts):
            assert event.data["provenance"] == alert.provenance.to_dict()
            assert event.data["score"] == alert.score

    def test_provenance_dict_is_json_primitives(
        self, trained_model, small_corpus
    ):
        import json

        packets, book = _merged_capture(small_corpus)
        with use_tracer(Tracer()):
            detector, _ = _run_live(trained_model, packets, book)
        payload = detector.alerts[0].provenance.to_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestAlertsSampling:
    def test_alerts_mode_keeps_only_alerting_timelines(
        self, trained_model, small_corpus
    ):
        packets, book = _merged_capture(small_corpus)
        with use_tracer(Tracer(sample="alerts")) as tracer:
            detector, _ = _run_live(trained_model, packets, book)
            events = tracer.drain()
        assert detector.alerts
        alerted = {a.session_key for a in detector.alerts}
        watched = {e.watch for e in events if e.watch}
        # Every retained timeline belongs to an alerting watch (or a
        # cooldown-suppressed fragment of the same incident).
        clients = {a.client for a in detector.alerts}
        for event in events:
            if event.watch:
                assert event.watch in alerted or event.client in clients
        assert alerted <= watched
