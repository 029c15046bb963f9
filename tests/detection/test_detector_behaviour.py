"""Behavioural tests for detector policies: cooldown, thresholds, scoring."""

import pytest

from repro.detection.clues import CluePolicy
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from tests.conftest import make_txn


def _infection_burst(host_prefix: str, base_ts: float, client="victim"):
    """A minimal alert-worthy burst: redirects + exploit drop + callback."""
    from repro.core.model import HttpMethod

    return [
        make_txn(host=f"{host_prefix}-hop.com", ts=base_ts, status=302,
                 content_type="", client=client,
                 extra_res_headers={"Location":
                                    f"http://{host_prefix}-ek.pw/g"}),
        make_txn(host=f"{host_prefix}-ek.pw", uri="/g", ts=base_ts + 1,
                 client=client,
                 referrer=f"http://{host_prefix}-hop.com/"),
        make_txn(host=f"{host_prefix}-ek.pw", uri="/drop.exe",
                 ts=base_ts + 2, client=client,
                 content_type="application/x-msdownload",
                 referrer=f"http://{host_prefix}-ek.pw/g"),
        make_txn(host=f"{host_prefix}-cnc.xyz", uri="/p.php",
                 ts=base_ts + 3, client=client,
                 method=HttpMethod.POST, content_type="text/plain"),
    ]


class TestAlertCooldown:
    def test_same_incident_suppressed(self, trained_model):
        detector = OnTheWireDetector(
            trained_model,
            config=DetectorConfig(alert_cooldown=300.0, alert_threshold=0.2),
        )
        stream = _infection_burst("one", 10.0)
        # A second, unrelated burst 60 s later (same client).
        stream += _infection_burst("two", 70.0)
        alerts = detector.replay(stream)
        assert len(alerts) == 1  # second burst inside cooldown
        assert detector.alerts == alerts

    def test_separated_incidents_both_alert(self, trained_model):
        detector = OnTheWireDetector(
            trained_model,
            config=DetectorConfig(alert_cooldown=60.0, alert_threshold=0.2),
        )
        stream = _infection_burst("one", 10.0)
        stream += _infection_burst("two", 500.0)
        alerts = detector.replay(stream)
        assert len(alerts) == 2
        assert detector.alerts == alerts

    def test_skewed_clock_stays_in_cooldown(self, trained_model):
        # A second fragment of the same incident arriving with *earlier*
        # timestamps (skewed capture clock / out-of-order delivery) must
        # not page twice: the old `0 <= now - last` guard silently
        # disabled the cooldown whenever the delta went negative.
        detector = OnTheWireDetector(
            trained_model,
            config=DetectorConfig(alert_cooldown=300.0, alert_threshold=0.2),
        )
        stream = _infection_burst("one", 1000.0)
        # Same client, second burst stamped 10 minutes in the past.
        stream += _infection_burst("two", 400.0)
        detector.process_batch(stream)  # delivery order, not time order
        detector.finalize()
        assert len(detector.alerts) == 1

    def test_skewed_clock_keeps_monotonic_window(self, trained_model):
        # After a skewed fragment is suppressed, the cooldown window
        # still anchors at the *latest* alert time: a third burst well
        # past the original alert pages again.
        detector = OnTheWireDetector(
            trained_model,
            config=DetectorConfig(alert_cooldown=300.0, alert_threshold=0.2),
        )
        stream = _infection_burst("one", 1000.0)
        stream += _infection_burst("two", 400.0)     # suppressed
        stream += _infection_burst("three", 1500.0)  # new incident
        detector.process_batch(stream)
        detector.finalize()
        assert len(detector.alerts) == 2

    def test_cooldown_is_per_client(self, trained_model):
        detector = OnTheWireDetector(
            trained_model,
            config=DetectorConfig(alert_cooldown=600.0, alert_threshold=0.2),
        )
        stream = _infection_burst("one", 10.0, client="alice")
        stream += _infection_burst("two", 20.0, client="bob")
        detector.process_batch(sorted(stream, key=lambda t: t.timestamp))
        detector.finalize()
        clients = {a.client for a in detector.alerts}
        assert clients == {"alice", "bob"}


class TestThreshold:
    def test_impossible_threshold_silences(self, trained_model):
        detector = OnTheWireDetector(
            trained_model,
            config=DetectorConfig(alert_threshold=1.01),
        )
        detector.process_batch(_infection_burst("x", 1.0))
        detector.finalize()
        assert detector.alerts == []

    def test_zero_threshold_alerts_on_first_clue(self, trained_model):
        detector = OnTheWireDetector(
            trained_model,
            config=DetectorConfig(alert_threshold=0.0),
        )
        alerts = detector.process_batch(_infection_burst("x", 1.0))
        assert alerts  # first scored WCG trips a zero threshold


class TestScoringEconomy:
    def test_classifications_bounded_by_updates(self, trained_model,
                                                small_corpus):
        detector = OnTheWireDetector(trained_model)
        trace = small_corpus.infections[0]
        detector.process_batch(trace.transactions)
        detector.finalize()
        assert detector.classifications <= len(trace.transactions) + \
            detector.watch_count()
