"""Sharded-vs-single differential: the fleet IS the detector.

The headline acceptance criterion for the sharded service: over the
same workload, the merged fleet alert stream must be **byte-identical**
to the single-process :class:`~repro.detection.live.LiveDetector` at
any worker count.  Alerts are frozen dataclasses, so ``==`` compares
every field — client, score, clue, timestamp, WCG dimensions, session
key.  Nothing is sorted before comparison on the fleet side beyond the
service's own deterministic merge; if the merge contract or the client
affinity ever regresses, these tests fail on the first divergent field.
"""

import itertools
import multiprocessing as mp
import os
import signal
import threading
import time

import pytest

from repro.detection.detector import OnTheWireDetector
from repro.detection.live import LiveDetector
from repro.loadgen import MIXED, LoadGenerator, WorkloadMix
from repro.learning.forest import EnsembleRandomForest
from repro.service import EngineSpec, ShardedDetectionService, merge_alerts
from repro.service import daemon
from repro.service.daemon import _INBOX_BATCHES, ShardError
from repro.service.worker import ShardAlert, run_shard
from tests.conftest import shard_records


def _canonical(alerts):
    """The single-process stream in fleet-canonical order.

    ``detector.alerts`` is in *emission* order: alerts raised during
    ``finalize()`` append at the end even when their timestamps are
    earlier (a watch can outlive the packet that armed it).  The fleet
    merge orders by ``(timestamp, shard_id, seq)``, so the reference
    stream must pass through the identical merge — as a single shard —
    before a positional comparison is meaningful.  The *set* of alerts
    is compared exactly either way.
    """
    return merge_alerts(
        ShardAlert(0, i, alert) for i, alert in enumerate(alerts)
    )

#: Enough MIXED traffic for several exploit-kit episodes to complete
#: (so the reference run actually alerts) while staying test-sized.
PACKETS = 6000


@pytest.fixture(scope="module")
def workload():
    """Pre-captured MIXED stream + its fully populated address book.

    Capturing up front matters: the book fills lazily as episodes are
    generated, and both pipelines must see the identical final book.
    """
    generator = LoadGenerator(seed=61, mix=MIXED, concurrency=6)
    packets = generator.capture(PACKETS)
    return packets, generator.book


@pytest.fixture(scope="module")
def reference(workload, trained_model):
    """Single-process alert stream over the workload."""
    packets, book = workload
    live = LiveDetector(OnTheWireDetector(trained_model), book=book)
    for packet in packets:
        live.feed(packet)
    live.finish()
    return live.detector.alerts, live.transactions_emitted


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fleet_alerts_byte_identical(workload, reference, trained_model,
                                     workers):
    packets, book = workload
    ref_alerts, ref_transactions = reference
    spec = EngineSpec(classifier=trained_model, book=book)
    service = ShardedDetectionService(spec, workers=workers)
    with service:
        for packet in packets:
            service.feed(packet)
        fleet = service.drain()
    assert fleet.packets_routed == len(packets)
    assert fleet.transactions == ref_transactions
    # Frozen dataclasses: == compares every field of every alert.
    assert fleet.alerts == _canonical(ref_alerts)
    assert len(fleet.shards) == workers


def test_feed_outside_a_running_pool_raises(workload, trained_model):
    """Before ``start()`` and after ``drain()`` there is no worker to
    take a packet: ``feed`` says so at once instead of buffering it."""
    packets, book = workload
    service = ShardedDetectionService(
        EngineSpec(classifier=trained_model, book=book), workers=1)
    with pytest.raises(RuntimeError, match="not started"):
        service.feed(packets[0])
    with service:
        for packet in packets[:50]:
            service.feed(packet)
        service.drain()
    with pytest.raises(RuntimeError, match="not started"):
        service.feed(packets[0])
    assert service.packets_routed == 50


def test_dead_shard_fails_the_drain_not_the_feed(workload, monkeypatch):
    """The inboxes are bounded, so ``feed`` blocks on a full one: a
    shard that died has to keep taking its batches, or the coordinator
    would wait forever instead of raising the shard's error."""
    packets, _ = workload
    monkeypatch.setattr(daemon, "_BATCH_SIZE", 1)
    # Unfitted classifier: the engine fails to build inside the worker.
    service = ShardedDetectionService(
        EngineSpec(classifier=EnsembleRandomForest()), workers=1)
    service.start()
    raised = []

    def run():
        try:
            for packet in packets[:20 * _INBOX_BATCHES]:
                service.feed(packet)
            service.drain()
        except ShardError as exc:
            raised.append(str(exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=60)
    try:
        assert not thread.is_alive(), "feed() blocked on a dead shard"
        assert raised and "must be fitted" in raised[0]
    finally:
        service.close()


def _killed_worker_raises(service, shard_id, action):
    """Run ``action(kill)`` and require a ``ShardError`` naming
    ``shard_id`` within 2 s of ``kill()`` sending its worker
    ``SIGKILL``, and no worker left alive."""
    processes = list(service._processes)
    killed_at, raised = [], []

    def kill():
        killed_at.append(time.monotonic())
        os.kill(processes[shard_id].pid, signal.SIGKILL)

    def run():
        try:
            action(kill)
        except ShardError as exc:
            raised.append((time.monotonic(), str(exc)))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=30)
    try:
        assert not thread.is_alive(), "a dead worker blocked the caller"
        [(raised_at, message)] = raised
        assert message.startswith(f"shard {shard_id} died")
        assert raised_at - killed_at[0] < 2.0
    finally:
        service.close()
    assert not any(process.is_alive() for process in processes)


def test_a_worker_killed_mid_feed_fails_the_feed(workload, trained_model,
                                                 monkeypatch):
    packets, book = workload
    monkeypatch.setattr(daemon, "_BATCH_SIZE", 1)
    service = ShardedDetectionService(
        EngineSpec(classifier=trained_model, book=book), workers=2)
    service.start()

    def feed_past_a_kill(kill):
        stream = itertools.islice(itertools.cycle(packets), 100_000)
        for index, packet in enumerate(stream):
            if index == 200:
                kill()
            service.feed(packet)

    _killed_worker_raises(service, 1, feed_past_a_kill)


@pytest.mark.skipif(mp.get_start_method() != "fork",
                    reason="the stalled finish() reaches workers by fork")
def test_a_worker_killed_mid_drain_fails_the_drain(workload, trained_model,
                                                   monkeypatch):
    packets, book = workload
    monkeypatch.setattr(LiveDetector, "finish",
                        lambda self: time.sleep(60) or [])
    service = ShardedDetectionService(
        EngineSpec(classifier=trained_model, book=book), workers=2)
    service.start()
    for packet in packets[:500]:
        service.feed(packet)

    def drain_past_a_kill(kill):
        threading.Timer(0.3, kill).start()
        service.drain()

    _killed_worker_raises(service, 0, drain_past_a_kill)


def test_reference_workload_actually_alerts(reference):
    """Guard against a vacuous differential: the MIXED workload must
    produce a non-trivial alert stream for the parity to mean much."""
    ref_alerts, ref_transactions = reference
    assert len(ref_alerts) > 0
    assert ref_transactions > 0


def test_in_process_shards_also_match(workload, reference, trained_model):
    """Same differential without multiprocessing: route packets through
    the in-process :func:`run_shard` path (what the worker loop runs),
    isolating the parity property from queue/pickling effects."""
    packets, book = workload
    ref_alerts, _ = reference
    n_shards = 3
    spec = EngineSpec(classifier=trained_model, book=book)
    shard_alerts = []
    for shard_id, records in enumerate(shard_records(packets, n_shards)):
        result = run_shard(spec, shard_id, records)
        assert result.error is None
        shard_alerts.extend(result.alerts)
    assert merge_alerts(shard_alerts) == _canonical(ref_alerts)


def test_hostile_noise_does_not_break_parity(trained_model):
    """Parity must survive traffic the router can only fallback-route:
    malformed frames, orphan responses, overflow holes."""
    mix = WorkloadMix(benign=0.3, exploit_kit=0.15, http_flood=0.1,
                      slow_drip=0.05, giant_pipelined=0.1,
                      retrans_storm=0.1, malformed_burst=0.1,
                      orphan_response=0.05, overflow=0.05)
    generator = LoadGenerator(seed=67, mix=mix, concurrency=6)
    packets = generator.capture(5000)
    book = generator.book
    live = LiveDetector(OnTheWireDetector(trained_model), book=book)
    for packet in packets:
        live.feed(packet)
    live.finish()
    spec = EngineSpec(classifier=trained_model, book=book)
    service = ShardedDetectionService(spec, workers=2)
    with service:
        for packet in packets:
            service.feed(packet)
        fleet = service.drain()
    assert fleet.alerts == _canonical(live.detector.alerts)
