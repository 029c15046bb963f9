"""Integration-style tests for the on-the-wire detector."""

import pytest

from repro.detection.alerts import Alert, ListSink
from repro.detection.clues import CluePolicy
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.exceptions import DetectionError
from repro.learning.forest import EnsembleRandomForest
from tests.conftest import make_txn


@pytest.fixture()
def detector(trained_model):
    return OnTheWireDetector(
        trained_model,
        policy=CluePolicy(redirect_threshold=3),
    )


class TestConstruction:
    def test_requires_fitted_classifier(self):
        with pytest.raises(DetectionError, match="fitted"):
            OnTheWireDetector(EnsembleRandomForest())

    def test_alerts_requires_list_sink(self, trained_model):
        class NullSink:
            def emit(self, alert):
                pass

        detector = OnTheWireDetector(trained_model, sink=NullSink())
        detector.sink.emit(None)  # interface works
        with pytest.raises(DetectionError, match="ListSink"):
            _ = detector.alerts


class TestStreaming:
    def test_detects_infection_episode(self, detector, small_corpus):
        infection = next(
            t for t in small_corpus.infections if not t.meta.get("stealth")
        )
        alerts = detector.process_batch(infection.transactions)
        detector.finalize()
        assert len(detector.alerts) >= 1 or len(alerts) >= 1

    def test_benign_streams_mostly_clean(self, trained_model, small_corpus):
        detector = OnTheWireDetector(trained_model)
        false_alerts = 0
        scenarios = [
            t for t in small_corpus.benign
            if t.meta.get("scenario") in ("search", "social", "alexa")
        ][:15]
        for trace in scenarios:
            false_alerts += len(detector.process_batch(trace.transactions))
        assert false_alerts <= 1

    def test_whitelisted_traffic_weeded(self, detector):
        txn = make_txn(host="download.microsoft.com", uri="/x.exe",
                       content_type="application/x-msdownload")
        assert detector.process_batch([txn]) == []
        assert detector.transactions_weeded == 1
        assert detector.watch_count() == 0

    def test_whitelist_disabled(self, trained_model):
        detector = OnTheWireDetector(
            trained_model, config=DetectorConfig(use_whitelist=False)
        )
        txn = make_txn(host="download.microsoft.com")
        detector.process_batch([txn])
        assert detector.transactions_weeded == 0
        assert detector.watch_count() == 1

    def test_no_clue_no_classification(self, detector):
        detector.process_batch([make_txn(host="ok.com")])
        detector.process_batch([make_txn(host="ok.com", uri="/style.css",
                                         ts=101.0, content_type="text/css")])
        assert detector.classifications == 0

    def test_alert_terminates_session(self, detector, small_corpus):
        infection = next(
            t for t in small_corpus.infections if not t.meta.get("stealth")
        )
        alerts = detector.process_batch(infection.transactions)
        detector.finalize()
        all_alerts = detector.alerts
        if all_alerts:
            # After the alert, the session is terminated: at most one
            # alert per session key.
            keys = [a.session_key for a in all_alerts]
            assert len(keys) == len(set(keys))

    def test_alert_fields(self, detector, small_corpus):
        infection = next(
            t for t in small_corpus.infections if not t.meta.get("stealth")
        )
        detector.process_batch(infection.transactions)
        detector.finalize()
        assert detector.alerts, "expected at least one alert"
        alert = detector.alerts[0]
        assert isinstance(alert, Alert)
        assert alert.score >= 0.5
        assert alert.wcg_order >= 2
        assert alert.clue is not None

    def test_transactions_seen_counter(self, detector, small_corpus):
        trace = small_corpus.benign[0]
        detector.process_batch(trace.transactions)
        assert detector.transactions_seen == len(trace.transactions)

    def test_interleaved_clients_separate_watches(self, detector):
        detector.process_batch([make_txn(host="a.com", client="alice", ts=1.0)])
        detector.process_batch([make_txn(host="a.com", client="bob", ts=1.5)])
        assert detector.watch_count() == 2


class TestListSink:
    def test_collects_and_filters(self):
        sink = ListSink()
        alert = Alert(client="c", score=0.9, clue=None, timestamp=0.0,
                      wcg_order=3, wcg_size=5, session_key="c#1")
        sink.emit(alert)
        assert len(sink) == 1
        assert sink.alerts == [alert]
