"""Sharded multi-worker live detection service (ROADMAP item 1).

One :class:`~repro.detection.live.LiveDetector` scales to one core;
DynaMiner's deployment story (paper Section V) needs an edge tap that
keeps up with "millions of users".  This package is the horizontal
layer: a coordinator hashes packets across N worker processes by the
*client* endpoint, each worker runs a private engine (its own
reassembler, pairing state, session table, and WCGs — no cross-worker
state whatsoever), and the coordinator merges the workers' alerts and
metric snapshots into one deterministic fleet view.

The load balancer is :class:`~repro.service.sharding.PacketRouter`
(client-affinity routing — every packet of every connection of a given
client lands on the same shard, which is exactly the state locality the
detector's per-client session clustering needs); the per-process unit
is :mod:`repro.service.worker`; the process pool and the merge contract
live in :mod:`repro.service.daemon`.  The headline property, enforced
by test and CI: the fleet's merged alert stream is byte-identical to a
single-process :class:`~repro.detection.live.LiveDetector` over the
same packets, at any worker count.
"""

from repro.service.daemon import (
    FleetResult,
    ShardedDetectionService,
    merge_alerts,
    merge_snapshots,
)
from repro.service.sharding import PacketRouter, client_ip_of, shard_of
from repro.service.worker import EngineSpec, ShardResult, run_shard

__all__ = [
    "EngineSpec",
    "FleetResult",
    "PacketRouter",
    "ShardResult",
    "ShardedDetectionService",
    "client_ip_of",
    "merge_alerts",
    "merge_snapshots",
    "run_shard",
    "shard_of",
]
