"""With metrics on, the fleet counts the wire exactly as one process does.

Every ``decode.*``, ``http.*`` and ``reassembly.*`` counter of the merged
fleet snapshot equals the single-process ``LiveDetector``'s: each
record is decoded by exactly one shard, garbage and fragments included,
so the sums cannot drift.  Every shard runs on the fleet's stream clock,
so the ``session.*`` counters add up too.  The counters allowed to
differ are the ones DESIGN §13 explains: each shard sweeps its own
session table, and scores and extracts in its own micro-batches; and,
with tracing on, each shard counts its own tracer's drops.
"""

from __future__ import annotations

import pytest

from repro.detection.detector import OnTheWireDetector
from repro.detection.live import LiveDetector
from repro.exceptions import PcapError
from repro.loadgen import HOSTILE, MIXED, LoadGenerator
from repro.net.flows import decode_segment
from repro.net.pcap import LINKTYPE_ETHERNET
from repro.obs import MetricsRegistry, use_registry
from repro.service import EngineSpec, ShardedDetectionService, merge_alerts
from repro.service.sharding import client_ip_of
from repro.service.worker import ShardAlert
from tests.conftest import pairing_violations

WIRE = ("decode.", "http.", "reassembly.")

#: Per-shard tables (full sweeps every N routed transactions),
#: per-shard micro-batches (batch counts, topology cache traffic) and
#: per-shard tracers (bounded per process; a shard's is built under its
#: registry, a single process's may be the import-time global one).
PER_SHARD = frozenset({
    "session.sweeps",
    "features.topology_cache_hits",
    "features.topology_cache_misses",
    "features.batch_extracts",
    "detector.score_batches_flushed",
    "trace.dropped_events",
    "trace.dropped_watches",
})

CAPTURES = {"mixed": (61, MIXED, 6000), "hostile": (67, HOSTILE, 5000)}


def _single_process(classifier, packets, book):
    """The single process's alerts (fleet order) and counters."""
    registry = MetricsRegistry()
    with use_registry(registry):
        live = LiveDetector(OnTheWireDetector(classifier), book=book)
        for packet in packets:
            live.feed(packet)
        live.finish()
    alerts = merge_alerts(ShardAlert(0, seq, alert)
                          for seq, alert in enumerate(live.detector.alerts))
    return alerts, registry.snapshot()["counters"]


def _fleet(classifier, packets, book, workers):
    spec = EngineSpec(classifier=classifier, book=book, metrics=True)
    with ShardedDetectionService(spec, workers=workers) as service:
        for packet in packets:
            service.feed(packet)
        return service.drain()


@pytest.fixture(scope="module", params=sorted(CAPTURES))
def single(request, trained_model):
    """A capture, its address book and the single process's counters."""
    seed, mix, count = CAPTURES[request.param]
    generator = LoadGenerator(seed=seed, mix=mix, concurrency=6)
    packets = generator.capture(count)
    _, counters = _single_process(trained_model, packets, generator.book)
    return packets, generator.book, counters


@pytest.mark.parametrize("workers", [2, 4])
def test_fleet_wire_counters_equal_the_single_process(single, trained_model,
                                                      workers):
    packets, book, expected = single
    counters = _fleet(trained_model, packets, book, workers).snapshot[
        "counters"]
    wire = {name for name in expected if name.startswith(WIRE)}
    assert wire and {n: counters.get(n) for n in wire} == {
        n: expected[n] for n in wire}
    differ = {name for name in expected.keys() | counters.keys()
              if expected.get(name) != counters.get(name)}
    assert differ <= PER_SHARD
    assert pairing_violations(counters) == []


def _client_of(packet) -> str | None:
    try:
        segment = decode_segment(packet.data, LINKTYPE_ETHERNET,
                                 lambda ip: ip)
    except PcapError:  # the capture's garbage frames
        return None
    if segment is None:
        return None
    src, dst, src_port, dst_port = segment[:4]
    return client_ip_of(src, src_port, dst, dst_port)


@pytest.fixture(scope="module")
def skewed(trained_model):
    """A MIXED capture in which the first alerting client's packets carry
    a clock 150 s (``2.5 * idle_gap``) behind everyone else's, still
    interleaved in wire order; plus the single process's verdicts."""
    generator = LoadGenerator(seed=61, mix=MIXED, concurrency=6)
    packets = generator.capture(6000)
    alerts, _ = _single_process(trained_model, packets, generator.book)
    victim = alerts[0].client
    packets = [packet._replace(timestamp=packet.timestamp - 150.0)
               if _client_of(packet) == victim else packet
               for packet in packets]
    return (packets, generator.book,
            *_single_process(trained_model, packets, generator.book))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_a_skewed_client_clusters_on_the_fleet_clock(skewed, trained_model,
                                                     workers):
    """Pruning, final verdicts and the late test read one watermark, and
    every shard advances to the coordinator's: a client whose clock lags
    by more than ``2 * idle_gap`` is retired, re-clustered and counted
    late exactly as in the single process, whichever shard hosts it."""
    packets, book, alerts, expected = skewed
    assert alerts and expected["session.late_transactions"] > 0
    fleet = _fleet(trained_model, packets, book, workers)
    assert ([a.session_key for a in fleet.alerts]
            == [a.session_key for a in alerts])
    assert fleet.alerts == alerts
    counters = fleet.snapshot["counters"]
    session = {name for name in expected.keys() | counters.keys()
               if name.startswith("session.") and name != "session.sweeps"}
    assert {n: counters.get(n) for n in session} == {
        n: expected.get(n) for n in session}
