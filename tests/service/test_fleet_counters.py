"""With metrics on, the fleet counts the wire exactly as one process does.

Every ``decode.*``, ``http.*`` and ``reassembly.*`` counter of the merged
fleet snapshot equals the single-process ``LiveDetector``'s: each
record is decoded by exactly one shard, garbage and fragments included,
so the sums cannot drift.  The counters allowed to differ are the ones
DESIGN §13 explains: each shard sweeps its session table on its own
stream clock, and scores and extracts in its own micro-batches.
"""

from __future__ import annotations

import pytest

from repro.detection.detector import OnTheWireDetector
from repro.detection.live import LiveDetector
from repro.loadgen import HOSTILE, MIXED, LoadGenerator
from repro.obs import MetricsRegistry, use_registry
from repro.service import EngineSpec, ShardedDetectionService

WIRE = ("decode.", "http.", "reassembly.")

#: Per-shard clocks (sweeps, and which returning transactions are late)
#: and per-shard micro-batches (batch counts, topology cache traffic).
PER_SHARD = frozenset({
    "session.sweeps",
    "session.late_transactions",
    "features.topology_cache_hits",
    "features.topology_cache_misses",
    "features.batch_extracts",
    "detector.score_batches_flushed",
})

CAPTURES = {"mixed": (61, MIXED, 6000), "hostile": (67, HOSTILE, 5000)}


@pytest.fixture(scope="module", params=sorted(CAPTURES))
def single(request, trained_model):
    """A capture, its address book and the single process's counters."""
    seed, mix, count = CAPTURES[request.param]
    generator = LoadGenerator(seed=seed, mix=mix, concurrency=6)
    packets = generator.capture(count)
    registry = MetricsRegistry()
    with use_registry(registry):
        live = LiveDetector(OnTheWireDetector(trained_model),
                            book=generator.book)
        for packet in packets:
            live.feed(packet)
        live.finish()
    return packets, generator.book, registry.snapshot()["counters"]


@pytest.mark.parametrize("workers", [2, 4])
def test_fleet_wire_counters_equal_the_single_process(single, trained_model,
                                                      workers):
    packets, book, expected = single
    spec = EngineSpec(classifier=trained_model, book=book, metrics=True)
    with ShardedDetectionService(spec, workers=workers) as service:
        for packet in packets:
            service.feed(packet)
        counters = service.drain().snapshot["counters"]
    wire = {name for name in expected if name.startswith(WIRE)}
    assert wire and {n: counters.get(n) for n in wire} == {
        n: expected[n] for n in wire}
    differ = {name for name in expected.keys() | counters.keys()
              if expected.get(name) != counters.get(name)}
    assert differ <= PER_SHARD
