"""Tracing must observe the detection path, never steer it.

The tracing contract (DESIGN.md §16) mirrors the metrics one: running
the exact same capture with tracing enabled and disabled produces
byte-identical transactions, alerts, scores, and metrics snapshots.
And when enabled, every alert's ``verdict`` event must carry a
provenance record whose fields agree with the pipeline's own ground
truth.
"""

import numpy as np

from repro.core.model import Trace
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.detection.live import LiveDetector
from repro.net.flows import packets_from_trace
from repro.obs import MetricsRegistry, NullRegistry, use_registry

#: Registries that trace every watch, and none.
TRACED, UNTRACED = NullRegistry(trace="full"), NullRegistry(trace=None)


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
    """One full LiveDetector pass under the active registry."""
    detector = OnTheWireDetector(
        trained_model, config=DetectorConfig(alert_threshold=0.5)
    )
    live = LiveDetector(detector, book=book)
    for packet in packets:
        live.feed(packet)
    live.finish()
    return detector, live


def _alert_verdicts(events):
    """The alerts' ``verdict`` events in emission order, which is the
    order of ``detector.alerts``."""
    return sorted((e for e in events if e.kind == "verdict"
                   and e.data["decision"] == "alert"), key=lambda e: e.seq)


class TestTracingIsInert:
    def test_outputs_identical_on_and_off(self, trained_model, small_corpus):
        packets, book = _merged_capture(small_corpus)

        with use_registry(UNTRACED):
            base_detector, base_live = _run_live(trained_model, packets, book)
        with use_registry(TRACED):
            obs_detector, obs_live = _run_live(trained_model, packets, book)
        tracer = obs_detector.tracer

        assert obs_live.transactions_emitted == base_live.transactions_emitted
        assert obs_detector.transactions_seen == base_detector.transactions_seen
        assert obs_detector.classifications == base_detector.classifications
        assert obs_detector.watch_count() == base_detector.watch_count()
        assert obs_detector.alerts == base_detector.alerts
        assert base_detector.alerts  # the capture does alert
        verdicts = _alert_verdicts(tracer.events())
        assert len(verdicts) == len(obs_detector.alerts)
        assert all(event.data["provenance"] for event in verdicts)
        assert tracer.event_count > 0

    def test_metrics_identical_on_and_off(self, trained_model, small_corpus):
        """The metrics stream must not notice tracing — in particular
        the WCG replay counters (edge events are emitted from the
        detector's own growth diff, never by forcing extra builds)."""
        packets, book = _merged_capture(small_corpus)

        def run(trace):
            registry = MetricsRegistry(trace=trace)
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

        base = run(None)
        traced = run("full")
        base_counters = {
            name: value for name, value in base["counters"].items()
            if not name.startswith("forest.arena_rebuilds")
        }
        traced_counters = {
            name: value for name, value in traced["counters"].items()
            if not name.startswith("forest.arena_rebuilds")
        }
        # The tracer's own drop counters exist from its construction;
        # nothing else differs, and nothing was dropped.
        assert traced_counters == {**base_counters,
                                   "trace.dropped_events": 0,
                                   "trace.dropped_watches": 0}
        assert traced["histograms"] == base["histograms"]

    def test_same_capture_same_canonical_trace(
        self, trained_model, small_corpus
    ):
        """Two traced runs of the same packets produce the identical
        canonical event stream (wall-clock fields stripped)."""
        packets, book = _merged_capture(small_corpus)
        streams = []
        for _ in range(2):
            with use_registry(TRACED):
                detector, _ = _run_live(trained_model, packets, book)
            streams.append([event.canonical()
                            for event in detector.tracer.drain()])
        assert streams[0] == streams[1]
        kinds = {event["kind"] for event in streams[0]}
        assert {"watch", "clue", "edge", "wcg", "score",
                "verdict"} <= kinds


class TestProvenanceGroundTruth:
    def test_provenance_fields_agree_with_alert(
        self, trained_model, small_corpus
    ):
        packets, book = _merged_capture(small_corpus)
        with use_registry(TRACED):
            detector, _ = _run_live(trained_model, packets, book)
        tracer = detector.tracer
        assert detector.alerts
        n_trees = len(trained_model.trees_)
        verdicts = _alert_verdicts(tracer.events())
        for event, alert in zip(verdicts, detector.alerts, strict=True):
            prov = event.data["provenance"]
            assert prov["wcg_order"] == alert.wcg_order
            assert prov["wcg_size"] == alert.wcg_size
            # The clue chain starts at (or before) the alerting clue.
            chain = prov["clue_chain"]
            assert chain
            assert prov["clues_total"] >= len(chain) > 0
            assert prov["first_clue_ts"] <= alert.clue.timestamp
            assert prov["time_to_detection"] == (
                alert.timestamp - prov["first_clue_ts"]
            )
            assert prov["time_from_first_edge"] == (
                alert.timestamp - prov["first_edge_ts"]
            )
            assert prov["first_edge_ts"] <= alert.timestamp
            # Forest explanation is complete and self-consistent.
            assert len(prov["tree_votes"]) == n_trees
            assert len(prov["tree_scores"]) == n_trees
            assert sum(prov["vote_tally"]) == n_trees
            assert prov["vote_tally"][1] == sum(
                1 for vote in prov["tree_votes"] if vote == 1
            )
            assert len(prov["feature_path_counts"]) == 37
            assert sum(prov["feature_path_counts"]) > 0
            # The mean positive-class probability IS the alert score.
            assert np.isclose(float(np.mean(prov["tree_scores"])),
                              alert.score)

    def test_alert_verdict_events_embed_provenance(
        self, trained_model, small_corpus
    ):
        packets, book = _merged_capture(small_corpus)
        with use_registry(TRACED):
            detector, _ = _run_live(trained_model, packets, book)
        events = detector.tracer.drain()
        verdicts = _alert_verdicts(events)
        assert len(verdicts) == len(detector.alerts)
        for event, alert in zip(verdicts, detector.alerts):
            assert (event.ts, event.watch) == (alert.timestamp,
                                               alert.session_key)
            assert event.data["score"] == alert.score
            assert event.data["provenance"]["wcg_size"] == alert.wcg_size

    def test_provenance_dict_is_json_primitives(
        self, trained_model, small_corpus
    ):
        import json

        packets, book = _merged_capture(small_corpus)
        with use_registry(TRACED):
            detector, _ = _run_live(trained_model, packets, book)
        payload = _alert_verdicts(detector.tracer.events())[0].data["provenance"]
        assert json.loads(json.dumps(payload)) == payload


class TestAlertsSampling:
    def test_alerts_mode_keeps_only_alerting_timelines(
        self, trained_model, small_corpus
    ):
        packets, book = _merged_capture(small_corpus)
        with use_registry(NullRegistry(trace="alerts")):
            detector, _ = _run_live(trained_model, packets, book)
        events = detector.tracer.drain()
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


class TestTraceOwnership:
    def test_a_pipelines_trace_is_its_own(self):
        """Two pipelines built in turn under a tracing registry (what
        ``REPRO_TRACE=1`` gives every pipeline) trace apart: the second
        one's ``trace_out`` holds its own events only, the same stream
        the first one recorded over the same capture."""
        import io
        import json

        from repro.experiments.context import trained_classifier
        from repro.loadgen import MIXED, LoadGenerator

        model = trained_classifier(11, 0.1)
        generator = LoadGenerator(seed=11, mix=MIXED)
        packets = generator.capture(8000)
        out = io.StringIO()
        runs = []
        for sink in (None, out):
            with use_registry(TRACED):
                live = LiveDetector(OnTheWireDetector(model),
                                    book=generator.book, trace_out=sink)
            for packet in packets:
                live.feed(packet)
            live.finish()
            runs.append(live.detector)
        first = [event.canonical() for event in runs[0].tracer.events()]
        written = [json.loads(line) for line in out.getvalue().splitlines()]
        for line in written:
            del line["mono"]
            for key in ("latency_s", "batch"):
                line["data"].pop(key, None)
        assert len(written) == len(first) == 1007
        assert written == first
