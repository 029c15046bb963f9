"""Tests for ``OnTheWireDetector.replay`` — the forensic / proxy driver."""

import numpy as np

from repro.core.model import HttpMethod, Trace
from repro.detection.clues import CluePolicy
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.features.registry import feature_names
from tests.conftest import make_txn
from tests.detection.test_bounded_state import _infection_burst


class _AlertsPastTenEdges:
    """A stand-in classifier that scores a WCG by its edge count alone."""

    trees_ = (object(),)
    _SIZE = feature_names().index("size")

    def decision_scores(self, rows):
        return (rows[:, self._SIZE] > 10).astype(float)

    def explain_row(self, row):  # alert provenance, with tracing on
        return {"tree_votes": (1,), "tree_scores": (1.0,),
                "vote_tally": (0, 1), "feature_path_counts": (0,) * 37}


class TestTrafficReplay:
    """One capture, replayed to its end."""

    def test_replays_whole_trace(self, trained_model, small_corpus):
        detector = OnTheWireDetector(trained_model)
        trace = small_corpus.benign[0]
        detector.replay(trace.transactions)
        assert detector.transactions_seen == len(trace.transactions)

    def test_accepts_transaction_list(self, trained_model):
        detector = OnTheWireDetector(trained_model)
        detector.replay([make_txn()])
        assert detector.transactions_seen == 1

    def test_alerts_on_infection(self, trained_model, small_corpus):
        infections = [
            t for t in small_corpus.infections if not t.meta.get("stealth")
        ][:5]
        alert_total = 0
        for trace in infections:
            detector = OnTheWireDetector(
                trained_model, policy=CluePolicy(redirect_threshold=3))
            alert_total += len(detector.replay(trace.transactions))
        assert alert_total >= 4  # nearly all non-stealth episodes alert

    def test_empty_stream(self, trained_model):
        detector = OnTheWireDetector(trained_model)
        assert detector.replay([]) == []
        assert detector.transactions_seen == 0

    def test_report_shape(self, trained_model):
        detector = OnTheWireDetector(trained_model)
        assert detector.replay([make_txn()]) == []
        assert detector.watch_count() >= 1
        assert detector.tracked_state_size() == (0, 0)  # finalized

    def test_sorts_by_timestamp_stably(self, trained_model):
        burst = _infection_burst("one", 10.0, "victim")
        config = DetectorConfig(alert_threshold=0.2)
        in_order = OnTheWireDetector(trained_model, config=config)
        shuffled = OnTheWireDetector(trained_model, config=config)
        expected = in_order.replay(burst)
        assert expected
        assert shuffled.replay(burst[::-1]) == expected

    def test_end_of_capture_verdict_is_returned(self):
        # The stream's only alert is the verdict finalize() requests:
        # the clue-time score (8 edges) and the new-host score (10) stay
        # quiet, the C&C beats that follow trigger no re-score before the
        # (unreachable) interval, and the grown graph (20 edges) alerts
        # at end of capture.  TrafficReplay / ProxySimulator reported
        # only the in-stream alerts, i.e. none.
        config = DetectorConfig(reclassify_interval=10_000)
        stream = _infection_burst("one", 10.0, "victim") + [
            make_txn(host="one-cnc.xyz", uri=f"/p.php?beat={beat}",
                     ts=14.0 + beat, client="victim",
                     method=HttpMethod.POST, content_type="text/plain")
            for beat in range(5)
        ]
        detector = OnTheWireDetector(_AlertsPastTenEdges(), config=config)
        assert detector.process_batch(stream) == []
        at_finalize = detector.finalize()
        assert len(at_finalize) == 1 and at_finalize[0].wcg_size == 20
        replayed = OnTheWireDetector(_AlertsPastTenEdges(), config=config)
        assert replayed.replay(stream) == at_finalize
        assert replayed.alerts == at_finalize


class TestProxySimulator:
    """The proxy position: several hosts\' captures, one merged stream."""

    def test_merges_multiple_hosts(self, trained_model):
        detector = OnTheWireDetector(trained_model)
        traces = [
            Trace(transactions=[make_txn(client="h1", ts=1.0)]),
            Trace(transactions=[make_txn(client="h2", ts=0.5)]),
        ]
        detector.replay(t for trace in traces for t in trace.transactions)
        assert detector.transactions_seen == 2
        assert detector.watch_count() == 2

    def test_alerts_attributed_to_client(self, trained_model, small_corpus):
        detector = OnTheWireDetector(trained_model)
        infection = next(
            t for t in small_corpus.infections if not t.meta.get("stealth")
        )
        client = infection.transactions[0].client
        alerts = detector.replay(infection.transactions)
        assert alerts
        assert all(alert.client == client for alert in alerts)
