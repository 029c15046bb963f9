"""Sharded-vs-single trace differential: the fleet trace IS the trace.

The merge contract extends to tracing (DESIGN.md §16): over the same
workload, the merged fleet trace stream in canonical form (wall-clock
fields stripped) must be byte-identical to the single-process traced
run at any worker count, provenance records (on alert ``verdict``
events) included, and the fleet alerts must equal the reference's.  The reference stream passes through the same
``(timestamp, shard_id, seq)`` merge — as a single shard — before the
positional comparison, mirroring the alert differential.
"""

import pytest

from repro.detection.detector import OnTheWireDetector
from repro.detection.live import LiveDetector
from repro.loadgen import MIXED, LoadGenerator
from repro.obs import NullRegistry, use_registry
from repro.obs import trace as trace_module
from repro.service import EngineSpec, ShardedDetectionService, merge_alerts
from repro.service.daemon import merge_traces
from repro.service.worker import ShardAlert, run_shard
from tests.conftest import shard_records

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
    with use_registry(NullRegistry(trace="full")):
        live = LiveDetector(OnTheWireDetector(trained_model), book=book)
    for packet in packets:
        live.feed(packet)
    live.finish()
    trace = merge_traces([(0, live.detector.tracer.drain())])
    return live.detector.alerts, _canonical(trace)


def test_reference_actually_alerts_with_provenance(reference):
    """Guard against a vacuous differential."""
    ref_alerts, ref_trace = reference
    assert len(ref_alerts) > 0
    verdicts = [event["data"] for event in ref_trace
                if event["kind"] == "verdict"
                and event["data"]["decision"] == "alert"]
    assert len(verdicts) == len(ref_alerts)
    assert all(data["provenance"] for data in verdicts)
    assert len(ref_trace) > len(ref_alerts)


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_in_process_shards_trace_byte_identical(
    workload, reference, trained_model, shards
):
    """Route through the in-process shard path at several worker
    counts; the merged canonical trace (provenance included) and the
    alerts must match the single-process reference exactly."""
    packets, book = workload
    ref_alerts, ref_trace = reference
    spec = EngineSpec(classifier=trained_model, book=book, trace="full")
    shard_alerts, shard_traces = [], []
    for shard_id, records in enumerate(shard_records(packets, shards)):
        result = run_shard(spec, shard_id, records)
        assert result.error is None
        shard_alerts.extend(result.alerts)
        shard_traces.append((shard_id, result.trace))
    fleet_alerts = merge_alerts(shard_alerts)
    assert fleet_alerts == _canonical_alerts(ref_alerts)
    assert _canonical(merge_traces(shard_traces)) == ref_trace


def test_pooled_workers_trace_byte_identical(
    workload, reference, trained_model
):
    """The same differential through real worker processes: trace
    events must survive the queue crossing and merge identically."""
    packets, book = workload
    ref_alerts, ref_trace = reference
    spec = EngineSpec(classifier=trained_model, book=book, trace="full")
    service = ShardedDetectionService(spec, workers=2)
    with service:
        for packet in packets:
            service.feed(packet)
        fleet = service.drain()
    assert fleet.alerts == _canonical_alerts(ref_alerts)
    assert _canonical(fleet.trace) == ref_trace


def test_trace_off_spec_ships_no_events(workload, trained_model):
    packets, book = workload
    spec = EngineSpec(classifier=trained_model, book=book, trace=None)
    result = run_shard(spec, 0, shard_records(packets, 1)[0])
    assert result.error is None
    assert result.trace == []


def test_alerts_sampling_rides_the_spec(workload, trained_model):
    """``trace="alerts"`` in the spec reaches the shard tracer: only
    alerting timelines (and global events) come back."""
    packets, book = workload
    spec = EngineSpec(classifier=trained_model, book=book, trace="alerts")
    (records,) = shard_records(packets, 1)
    result = run_shard(spec, 0, records)
    assert result.error is None
    assert result.trace  # the workload alerts, so timelines survive
    full = run_shard(
        EngineSpec(classifier=trained_model, book=book, trace="full"),
        0, records,
    )
    assert len(result.trace) < len(full.trace)


def test_the_default_spec_traces_as_the_coordinator_does(trained_model):
    """Without ``trace=``, a spec takes the trace mode of the registry
    active where it is built, ``None`` when that one traces nothing."""
    with use_registry(NullRegistry(trace="alerts")):
        assert EngineSpec(classifier=trained_model).trace == "alerts"
    with use_registry(NullRegistry(trace=None)):
        assert EngineSpec(classifier=trained_model).trace is None


def test_shard_snapshot_counts_its_tracer_drops(workload, trained_model,
                                                monkeypatch):
    """A shard's tracer counts what its bounds evict into the shard's
    registry, so the drops ride the snapshot to the fleet merge."""
    monkeypatch.setattr(trace_module, "_MAX_EVENTS_PER_WATCH", 4)
    packets, book = workload
    spec = EngineSpec(classifier=trained_model, book=book, trace="full",
                      metrics=True)
    result = run_shard(spec, 0, shard_records(packets, 1)[0])
    assert result.error is None
    assert result.snapshot["counters"]["trace.dropped_events"] > 0
