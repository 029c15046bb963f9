"""Per-shard watch snapshots: fleet state equals single-process state.

The shard snapshot (DESIGN.md §14) is assembled from WCG counters and
timestamp extrema, and :class:`~repro.detection.live.WatchSnapshot` is a frozen value
object — so the differential here is plain ``==``: the merged fleet
list must equal the single engine's list field for field, at any shard
count.
"""

import numpy as np

from repro.detection.detector import OnTheWireDetector
from repro.detection.live import LiveDetector
from repro.loadgen import MIXED, LoadGenerator
from repro.service.daemon import merge_watch_snapshots
from repro.service.sharding import PacketRouter
from repro.service.worker import EngineSpec, run_shard
from tests.oracles.stages import edge_stages

PACKETS = 4000


def _workload():
    generator = LoadGenerator(seed=79, mix=MIXED, concurrency=6)
    packets = generator.capture(PACKETS)
    return packets, generator.book


def _reference_snapshots(trained_model, packets, book):
    engine = LiveDetector(OnTheWireDetector(trained_model), book=book)
    for packet in packets:
        engine.feed(packet)
    return engine.snapshot_watches()


def test_sharded_snapshots_match_single_engine(trained_model):
    packets, book = _workload()
    reference = _reference_snapshots(trained_model, packets, book)
    assert reference, "vacuous differential: no live watches to snapshot"

    n_shards = 3
    router = PacketRouter(n_shards)
    per_shard = [[] for _ in range(n_shards)]
    for packet in packets:
        for shard, routed in router.route(packet):
            per_shard[shard].append(routed)
    spec = EngineSpec(classifier=trained_model, book=book,
                      snapshot_watches=True)
    shard_watches = []
    for shard_id, shard_packets in enumerate(per_shard):
        result = run_shard(spec, shard_id, shard_packets)
        assert result.error is None
        shard_watches.append(result.watches)

    assert merge_watch_snapshots(shard_watches) == reference


def test_snapshots_off_by_default(trained_model):
    packets, book = _workload()
    spec = EngineSpec(classifier=trained_model, book=book)
    result = run_shard(spec, 0, packets[:500])
    assert result.error is None
    assert result.watches == []


def test_snapshot_fields_agree_with_column_slices(trained_model):
    """Snapshot numbers must equal direct reductions over the edges."""
    packets, book = _workload()
    engine = LiveDetector(OnTheWireDetector(trained_model), book=book)
    for packet in packets:
        engine.feed(packet)
    snapshots = engine.snapshot_watches()
    assert snapshots
    by_key = {watch.key: watch for watch in engine.detector.active_watches()}
    for snap in snapshots:
        watch = by_key[snap.key]
        timestamps = [data.timestamp for _, _, data in watch.wcg().edges()]
        assert snap.size == len(timestamps)
        assert sum(snap.stage_counts) == len(timestamps)
        assert snap.first_edge_ts == min(timestamps)
        assert snap.last_edge_ts == max(timestamps)
        # The histogram is the per-edge rule over the watch's history.
        stages = [stage for _, _, stage in edge_stages(watch.transactions)]
        assert snap.stage_counts == tuple(
            int(np.sum(np.array(stages) == stage)) for stage in (0, 1, 2)
        )
