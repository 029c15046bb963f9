"""Detection latency: how far into an infection the alert fires.

The on-the-wire claim is that the session is terminated while the
infection unfolds, not after.  Time-to-alert needs no harness of its
own: ``replay()`` returns every alert with the stream time it fired
at, so the seconds since the episode began and the share of the episode
already seen fall out of the timestamps.
"""

import numpy as np
import pytest

from tests.conftest import first_alert


def _episodes(small_corpus, count):
    return [
        t for t in small_corpus.infections if not t.meta.get("stealth")
    ][:count]


class TestMeasureLatency:
    @pytest.fixture(scope="class")
    def latencies(self, trained_model, small_corpus):
        return [first_alert(trained_model, trace)
                for trace in _episodes(small_corpus, 20)]

    def test_one_record_per_episode(self, latencies):
        assert len(latencies) == 20

    def test_high_detection_rate(self, latencies):
        detected = sum(1 for l in latencies if l is not None)
        assert detected / len(latencies) > 0.85

    def test_latency_fields_consistent(self, latencies):
        for seconds, progress in filter(None, latencies):
            assert seconds >= 0.0
            assert 0.0 < progress <= 1.0

    def test_mostly_mid_stream(self, latencies):
        # The point of on-the-wire detection: alerts fire before the
        # conversation ends for a meaningful share of episodes.
        detected = [l for l in latencies if l is not None]
        mid_stream = sum(1 for _, progress in detected if progress < 1.0)
        assert mid_stream / len(detected) > 0.5


class TestLatencySummary:
    def test_summary_fields(self, trained_model, small_corpus):
        detected = list(filter(None, (
            first_alert(trained_model, trace)
            for trace in _episodes(small_corpus, 10)
        )))
        assert detected
        seconds, progress = zip(*detected)
        assert np.median(seconds) >= 0.0
        assert 0.0 < np.median(progress) <= 1.0

    def test_all_missed(self, trained_model, small_corpus):
        # An unreachable threshold: neither the stream nor the
        # end-of-capture verdict alerts.
        assert all(
            first_alert(trained_model, trace, threshold=1.01) is None
            for trace in _episodes(small_corpus, 3)
        )
