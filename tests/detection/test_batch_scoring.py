"""Differential tests: micro-batched vs. per-transaction detection.

``process_batch`` defers classifier calls so the watches dirtied within
a decoder batch score as one matrix call.  The contract is that nothing
observable changes: alerts (every field, scores bytewise), counters,
traces and retained state must match a detector fed the same stream one
transaction at a time, as ``process_batch([txn])`` — the sequential
path (every score is requested, extracted and dispatched before the
next transaction routes).
"""

import numpy as np
import pytest

from repro.detection.clues import CluePolicy
from repro.detection.detector import DetectorConfig, OnTheWireDetector


def _fresh(trained_model, **config_kwargs):
    config = DetectorConfig(**config_kwargs) if config_kwargs else None
    return OnTheWireDetector(
        trained_model,
        policy=CluePolicy(redirect_threshold=3),
        config=config,
    )


def _batched_replay(detector, stream, chunk):
    alerts = []
    for start in range(0, len(stream), chunk):
        alerts.extend(detector.process_batch(stream[start:start + chunk]))
    alerts.extend(detector.finalize())
    return alerts


def _sequential_replay(detector, stream):
    return _batched_replay(detector, stream, 1)


def _assert_same_outcome(sequential, batched, alerts_a, alerts_b):
    assert len(alerts_a) == len(alerts_b)
    for left, right in zip(alerts_a, alerts_b):
        assert left == right  # dataclass equality: every field
        assert left.score == right.score  # bytewise, not approx
    assert sequential.transactions_seen == batched.transactions_seen
    assert sequential.transactions_weeded == batched.transactions_weeded
    assert sequential.classifications == batched.classifications
    assert sequential.watch_count() == batched.watch_count()
    assert sequential.alerts == batched.alerts  # sink contents too


@pytest.fixture(scope="module")
def streams(small_corpus):
    """Single-client infection streams plus a multi-client interleave."""
    infections = [
        t for t in small_corpus.infections if not t.meta.get("stealth")
    ][:6]
    merged = []
    for trace in infections:
        merged.extend(trace.transactions)
    merged.sort(key=lambda t: t.timestamp)
    benign = small_corpus.benign[0].transactions
    return {
        "single": infections[0].transactions,
        "interleaved": merged,
        "benign": benign,
    }


class TestBatchedEqualsSequential:
    @pytest.mark.parametrize("kind", ["single", "interleaved", "benign"])
    @pytest.mark.parametrize("chunk", [1, 2, 7, 64, 10_000])
    def test_alerts_and_counters_match(self, trained_model, streams,
                                       kind, chunk):
        stream = streams[kind]
        sequential = _fresh(trained_model)
        batched = _fresh(trained_model)
        alerts_a = _sequential_replay(sequential, stream)
        alerts_b = _batched_replay(batched, stream, chunk)
        _assert_same_outcome(sequential, batched, alerts_a, alerts_b)

    def test_interleaved_alerts_fire(self, trained_model, streams):
        # The differential above is vacuous unless alerts actually fire.
        detector = _fresh(trained_model)
        alerts = _batched_replay(detector, streams["interleaved"], 10_000)
        assert alerts
        assert detector.classifications > 0

    def test_cooldown_semantics_preserved(self, trained_model, streams):
        # A tight threshold plus a huge cooldown exercises the
        # suppression branch; batched dispatch must suppress the same
        # fragments the sequential walk does.
        stream = streams["interleaved"]
        sequential = _fresh(trained_model, alert_threshold=0.5,
                            alert_cooldown=1e9)
        batched = _fresh(trained_model, alert_threshold=0.5,
                         alert_cooldown=1e9)
        alerts_a = _sequential_replay(sequential, stream)
        alerts_b = _batched_replay(batched, stream, 10_000)
        _assert_same_outcome(sequential, batched, alerts_a, alerts_b)
        assert sequential._last_alert_ts == batched._last_alert_ts

    def test_replay_is_the_whole_stream_as_one_batch(self, trained_model,
                                                     streams):
        stream = streams["single"]
        replayed = _fresh(trained_model)
        alerts_a = replayed.replay(reversed(stream))  # it sorts, stably
        sequential = _fresh(trained_model)
        alerts_b = _sequential_replay(
            sequential, sorted(stream, key=lambda t: t.timestamp))
        _assert_same_outcome(sequential, replayed, alerts_b, alerts_a)


class TestProxyShape:
    """What a proxy delivers — one transaction per ``process_batch`` —
    is the shape the scoring and extraction paths are sized for; pin
    that it really scores a row or two at a time, and changes nothing."""

    @staticmethod
    def _run(trained_model, feed):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry(trace="full")
        with use_registry(registry):
            detector = _fresh(trained_model)
            feed(detector)
            detector.finalize()
            alerts = list(detector.alerts)
        events = detector.tracer.events()
        scores = sorted((e.seq, e.watch, e.data["score"])
                        for e in events if e.kind == "score")
        # Canonical trace form: minus the wall clock and the two data
        # keys that record how scores happened to coalesce.
        canonical = [
            (e.kind, e.ts, e.client, e.watch,
             {k: v for k, v in e.data.items()
              if k not in ("latency_s", "batch")})
            for e in events
        ]
        return alerts, scores, registry.snapshot(), canonical

    @pytest.mark.parametrize("kind", ["single", "interleaved"])
    def test_batch_of_one_feed_scores_a_row_or_two(self, trained_model,
                                                   streams, kind):
        stream = streams[kind]

        def per_transaction(detector):
            for txn in stream:
                detector.process_batch([txn])

        alerts, scores, snapshot, trace = self._run(trained_model,
                                                    per_transaction)
        stream_alerts, stream_scores, stream_snapshot, stream_trace = \
            self._run(trained_model,
                      lambda detector: detector.process_batch(stream))
        assert alerts and scores  # the episode does clue and score
        rows = snapshot["histograms"]["forest.batch_rows"]
        assert rows["count"] >= len(scores) / 2
        assert rows["max"] <= 2
        assert ([a.score for a in alerts]
                == [a.score for a in stream_alerts])
        assert ([(a.client, a.timestamp, a.session_key) for a in alerts]
                == [(a.client, a.timestamp, a.session_key)
                    for a in stream_alerts])
        # Every score ever requested, not only the alerting ones.
        assert ([score for _, _, score in scores]
                == [score for _, _, score in stream_scores])
        assert alerts == stream_alerts
        assert trace == stream_trace
        # Same work, however it coalesced: every counter but the number
        # of classifier calls.
        coalescing = {"detector.score_batches_flushed"}
        assert ({k: v for k, v in snapshot["counters"].items()
                 if k not in coalescing}
                == {k: v for k, v in stream_snapshot["counters"].items()
                    if k not in coalescing})


class TestScoreBatchUnit:
    def test_empty_batch_is_noop(self, trained_model):
        detector = _fresh(trained_model)
        assert detector.score_batch([]) == []
        assert detector.classifications == 0

    def test_batch_rows_score_like_single_rows(self, trained_model,
                                               small_dataset):
        # The batched matrix call must be bytewise the per-row calls.
        X, _ = small_dataset
        batch = trained_model.decision_scores(X[:32])
        singles = np.array([
            trained_model.decision_scores(X[i:i + 1])[0] for i in range(32)
        ])
        assert np.array_equal(batch, singles)
