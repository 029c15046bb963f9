"""Sharded-vs-single trace differential: the fleet trace IS the trace.

The merge contract extends to tracing (DESIGN.md §16): over the same
workload, the merged fleet trace stream in canonical form (wall-clock
fields stripped) must be byte-identical to the single-process traced
run at any worker count, and every fleet alert must carry the identical
provenance record.  The reference stream passes through the same
``(timestamp, shard_id, seq)`` merge — as a single shard — before the
positional comparison, mirroring the alert differential.
"""

import pytest

from repro.detection.detector import OnTheWireDetector
from repro.detection.live import LiveDetector
from repro.loadgen import MIXED, LoadGenerator
from repro.obs import Tracer, use_tracer
from repro.service import EngineSpec, ShardedDetectionService, merge_alerts
from repro.service.daemon import merge_traces
from repro.service.sharding import PacketRouter
from repro.service.worker import ShardAlert, run_shard

PACKETS = 6000


def _canonical(events):
    return [event.canonical() for event in events]


def _canonical_alerts(alerts):
    return merge_alerts(
        ShardAlert(0, i, alert) for i, alert in enumerate(alerts)
    )


@pytest.fixture(scope="module")
def workload():
    generator = LoadGenerator(seed=61, mix=MIXED, concurrency=6)
    packets = generator.capture(PACKETS)
    return packets, generator.book


@pytest.fixture(scope="module")
def reference(workload, trained_model):
    """Single-process traced run: alerts + canonical trace stream."""
    packets, book = workload
    with use_tracer(Tracer()) as tracer:
        live = LiveDetector(OnTheWireDetector(trained_model), book=book)
        for packet in packets:
            live.feed(packet)
        live.finish()
        trace = merge_traces([(0, tracer.drain())])
    return live.detector.alerts, _canonical(trace)


def test_reference_actually_alerts_with_provenance(reference):
    """Guard against a vacuous differential."""
    ref_alerts, ref_trace = reference
    assert len(ref_alerts) > 0
    assert all(a.provenance is not None for a in ref_alerts)
    assert len(ref_trace) > len(ref_alerts)


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_in_process_shards_trace_byte_identical(
    workload, reference, trained_model, shards
):
    """Route through the in-process shard path at several worker
    counts; the merged canonical trace and the provenance-bearing
    alerts must match the single-process reference exactly."""
    packets, book = workload
    ref_alerts, ref_trace = reference
    router = PacketRouter(shards)
    per_shard = [[] for _ in range(shards)]
    for packet in packets:
        for shard, routed in router.route(packet):
            per_shard[shard].append(routed)
    spec = EngineSpec(classifier=trained_model, book=book, trace=True)
    shard_alerts, shard_traces = [], []
    for shard_id, shard_packets in enumerate(per_shard):
        result = run_shard(spec, shard_id, shard_packets)
        assert result.error is None
        shard_alerts.extend(result.alerts)
        shard_traces.append((shard_id, result.trace))
    fleet_alerts = merge_alerts(shard_alerts)
    # Frozen dataclasses: == compares every field, provenance included.
    assert fleet_alerts == _canonical_alerts(ref_alerts)
    assert _canonical(merge_traces(shard_traces)) == ref_trace


def test_pooled_workers_trace_byte_identical(
    workload, reference, trained_model
):
    """The same differential through real worker processes: trace
    events must survive the queue crossing and merge identically."""
    packets, book = workload
    ref_alerts, ref_trace = reference
    spec = EngineSpec(classifier=trained_model, book=book, trace=True)
    service = ShardedDetectionService(spec, workers=2)
    with service:
        for packet in packets:
            service.feed(packet)
        fleet = service.drain()
    assert fleet.alerts == _canonical_alerts(ref_alerts)
    assert _canonical(fleet.trace) == ref_trace


def test_trace_off_spec_ships_no_events(workload, trained_model):
    packets, book = workload
    spec = EngineSpec(classifier=trained_model, book=book, trace=False)
    result = run_shard(spec, 0, packets)
    assert result.error is None
    assert result.trace == []
    assert all(sa.alert.provenance is None for sa in result.alerts)


def test_alerts_sampling_rides_the_spec(workload, trained_model):
    """``trace_sample="alerts"`` in the spec reaches the shard tracer:
    only alerting timelines (and global events) come back."""
    packets, book = workload
    spec = EngineSpec(classifier=trained_model, book=book, trace=True,
                      trace_sample="alerts")
    result = run_shard(spec, 0, packets)
    assert result.error is None
    assert result.trace  # the workload alerts, so timelines survive
    full = run_shard(
        EngineSpec(classifier=trained_model, book=book, trace=True),
        0, packets,
    )
    assert len(result.trace) < len(full.trace)
