"""Coordinator for the sharded live detection service.

:class:`ShardedDetectionService` is the long-running daemon shape from
ROADMAP item 1: packets stream in, a :class:`~repro.service.sharding.
PacketRouter` hashes each one to its client's shard, N worker processes
each run a private :class:`~repro.detection.live.LiveDetector`, and
the coordinator merges their alert streams and metric snapshots into
one deterministic fleet view.

**Merge contract.**  Per-shard alert streams are each already in
emission order; the fleet stream is their merge sorted by
``(timestamp, shard_id, seq)``.  Timestamp orders across shards the way
a single tap would; ``(shard_id, seq)`` breaks timestamp ties totally
and reproducibly, so *any* worker count yields the identical ordered
alert list — the differential tests assert byte-identity against the
single-process :class:`~repro.detection.live.LiveDetector` at
``workers ∈ {1, 2, 4}``.

Registry snapshots merge structurally: counters and gauges sum across
shards (each counter event happened on exactly one shard); histograms
sum ``count``/``sum``, combine ``min``/``max``, and compute fleet
quantiles from the shards' retained sample buffers — exact whenever
the combined buffer fits under the histogram cap, a deterministic
decimated approximation beyond it.

Trace events merge under the same ``(timestamp, shard_id, seq)`` key
as alerts (:func:`merge_traces`), so the canonical fleet trace stream
is identical for any worker count too.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import time
from dataclasses import dataclass
from typing import Any, Iterable

from repro.detection.alerts import Alert
from repro.net.pcap import PcapPacket
from repro.obs import TraceEvent
from repro.obs.registry import decimate_samples, interpolated_quantile
from repro.parallel import resolve_n_jobs
from repro.service.sharding import PacketRouter
from repro.service.worker import (
    EngineSpec,
    ShardAlert,
    ShardResult,
    pack_frames,
    shard_worker,
)

__all__ = ["FleetResult", "ShardedDetectionService", "merge_alerts",
           "merge_snapshots", "merge_traces"]

#: Packets buffered per shard before a batch crosses the queue; large
#: enough to amortize the transfer, small enough to keep workers busy.
_BATCH_SIZE = 256

#: Batches an inbox holds before ``feed`` blocks.  The router outruns
#: the engines it feeds, so an unbounded inbox ends up holding most of
#: the capture in coordinator memory; a bound turns that into
#: back-pressure on the producer.  Small enough to cap the backlog at a
#: few MiB per shard, large enough that a worker never runs dry.
_INBOX_BATCHES = 16

#: Seconds the coordinator waits for each worker's final result.  The
#: workloads here are bounded captures, so a silent worker means a bug
#: (a crash is ferried back as ``ShardResult.error``), not slowness.
_DRAIN_TIMEOUT = 600.0

#: Seconds a blocked ``put`` / ``get`` waits between checks that the
#: worker is alive, so a killed worker is a ``ShardError`` this soon.
_LIVENESS_POLL = 0.1


class ShardError(RuntimeError):
    """A worker process died, stalled, or raised (with its traceback)."""


@dataclass
class FleetResult:
    """The merged outcome of one sharded run."""

    alerts: list[Alert]
    shards: list[ShardResult]
    snapshot: dict[str, Any]
    packets_routed: int
    #: Merged fleet trace stream (tracing on), in the canonical
    #: ``(timestamp, shard_id, seq)`` order of :func:`merge_traces`.
    trace: list[TraceEvent]

    @property
    def transactions(self) -> int:
        return sum(s.transactions for s in self.shards)

    @property
    def classifications(self) -> int:
        return sum(s.classifications for s in self.shards)

    @property
    def transactions_weeded(self) -> int:
        return sum(s.transactions_weeded for s in self.shards)

    @property
    def watches_opened(self) -> int:
        return sum(s.watches_opened for s in self.shards)


def merge_alerts(shard_alerts: Iterable[ShardAlert]) -> list[Alert]:
    """Deterministic fleet order: ``(timestamp, shard_id, seq)``."""
    ordered = sorted(
        shard_alerts,
        key=lambda sa: (sa.alert.timestamp, sa.shard_id, sa.seq),
    )
    return [sa.alert for sa in ordered]


def merge_traces(
    shard_traces: Iterable[tuple[int, list[TraceEvent]]],
) -> list[TraceEvent]:
    """Deterministic fleet trace: sort by ``(timestamp, shard_id, seq)``.

    The same total order as :func:`merge_alerts` — event timestamps are
    stream-derived, ``shard_id`` breaks cross-shard ties, and each
    tracer's own ``seq`` breaks ties within a shard — so the canonical
    fleet trace (``TraceEvent.canonical``) is identical for any worker
    count.
    """
    stamped = [
        (event.ts, shard_id, event.seq, event)
        for shard_id, events in shard_traces
        for event in events
    ]
    stamped.sort(key=lambda item: item[:3])
    return [item[3] for item in stamped]


def merge_snapshots(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """Combine per-shard registry snapshots into one fleet snapshot."""
    enabled = [s for s in snapshots if s.get("enabled")]
    merged: dict[str, Any] = {
        "enabled": bool(enabled),
        "shards": len(snapshots),
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    for snap in enabled:
        for name, value in snap.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            merged["gauges"][name] = merged["gauges"].get(name, 0) + value
        for name, hist in snap.get("histograms", {}).items():
            into = merged["histograms"].get(name)
            if into is None:
                merged["histograms"][name] = dict(hist)
                continue
            into["count"] += hist["count"]
            into["sum"] += hist["sum"]
            # Empty per-shard histograms report None for min/max; they
            # must not poison shards that observed data.
            for stat, pick in (("min", min), ("max", max)):
                seen = [v for v in (into[stat], hist[stat]) if v is not None]
                into[stat] = pick(seen) if seen else None
            # Pool retained samples for exact fleet quantiles below.
            into["samples"] = into["samples"] + hist["samples"]
    for hist in merged["histograms"].values():
        if hist["count"]:
            hist["mean"] = hist["sum"] / hist["count"]
        samples = hist.pop("samples")
        if samples:
            samples = decimate_samples(sorted(samples))
            for stat, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
                hist[stat] = interpolated_quantile(samples, q)
    # Deterministic key order regardless of shard arrival order.
    for section in ("counters", "gauges", "histograms"):
        merged[section] = dict(sorted(merged[section].items()))
    return merged


class ShardedDetectionService:
    """Long-running sharded detection daemon.

    Usage::

        service = ShardedDetectionService(spec, workers=4)
        with service:
            for packet in tap:
                service.feed(packet)
            fleet = service.drain()

    ``workers`` follows the :func:`repro.parallel.resolve_n_jobs`
    convention (``None`` -> 1, ``-1`` -> all cores).  Each worker gets
    its own inbox queue — per-shard FIFO is what preserves wire order
    within a shard, and wire order within a shard is all the engine
    needs (packets of different clients never interact).
    """

    def __init__(self, spec: EngineSpec, workers: int | None = None):
        self.spec = spec
        self.n_workers = resolve_n_jobs(workers)
        self.router = PacketRouter(self.n_workers, linktype=spec.linktype)
        self.packets_routed = 0
        #: The fleet clock, the largest packet timestamp fed so far; every
        #: record ships with it (see ``worker.run_shard``).
        self._clock = float("-inf")
        self._ctx = mp.get_context()
        self._processes: list[mp.process.BaseProcess] = []
        self._inboxes: list[Any] = []
        self._outbox: Any = None
        #: Per shard: packets routed since its last batch, clock at each.
        self._pending: list[tuple[list[PcapPacket], list[float]]] = []

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        if self._processes:
            raise RuntimeError("service already started")
        self._outbox = self._ctx.Queue()
        self._pending = [([], []) for _ in range(self.n_workers)]
        for shard_id in range(self.n_workers):
            inbox = self._ctx.Queue(maxsize=_INBOX_BATCHES)
            process = self._ctx.Process(
                target=shard_worker,
                args=(self.spec, shard_id, inbox, self._outbox),
                daemon=True,
                name=f"repro-shard-{shard_id}",
            )
            process.start()
            self._inboxes.append(inbox)
            self._processes.append(process)

    def __enter__(self) -> "ShardedDetectionService":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def feed(self, packet: PcapPacket) -> None:
        """Route one pcap record to its shard's inbox; blocks while
        that inbox is full (back-pressure, see ``_INBOX_BATCHES``)."""
        if packet.timestamp > self._clock:
            self._clock = packet.timestamp
        for shard_id, routed in self.router.route(packet):
            try:
                packets, clocks = self._pending[shard_id]
            except IndexError:  # no pool: never started, or drained
                raise RuntimeError("service not started") from None
            self.packets_routed += 1
            packets.append(routed)
            clocks.append(self._clock)
            if len(packets) >= _BATCH_SIZE:
                self._put(shard_id, pack_frames(packets, clocks))
                self._pending[shard_id] = ([], [])

    def _put(self, shard_id: int, batch: Any) -> None:
        """Hand ``batch`` to a shard; one that died or stopped taking (it
        takes until the sentinel even after an error) raises."""
        deadline = time.monotonic() + _DRAIN_TIMEOUT
        while True:
            try:
                return self._inboxes[shard_id].put(
                    batch, timeout=_LIVENESS_POLL)
            except queue.Full:
                if (self._processes[shard_id].exitcode is not None
                        or time.monotonic() > deadline):
                    self._fail(shard_id)

    def _collect(self) -> list[ShardResult]:
        """Every worker's result, in shard order.  A worker flushes its
        result before it exits, so a shard seen exited before an empty
        read of the outbox died without one."""
        results: dict[int, ShardResult] = {}
        exited: set[int] = set()
        deadline = time.monotonic() + _DRAIN_TIMEOUT
        while len(results) < self.n_workers:
            try:
                result = self._outbox.get(timeout=_LIVENESS_POLL)
                results[result.shard_id] = result
            except queue.Empty:
                missing = set(range(self.n_workers)) - results.keys()
                if exited & missing or time.monotonic() > deadline:
                    self._fail(min(exited & missing or missing))
                exited = {shard_id for shard_id in missing
                          if self._processes[shard_id].exitcode is not None}
        return [results[shard_id] for shard_id in range(self.n_workers)]

    def _fail(self, shard_id: int) -> None:
        """Shut every worker down, then raise for ``shard_id``."""
        code = self._processes[shard_id].exitcode
        self.close()
        raise ShardError(f"shard {shard_id} died or stalled (exit {code})")

    def drain(self) -> FleetResult:
        """Flush every shard, collect results, merge, shut the pool."""
        if not self._processes:
            raise RuntimeError("service not started")
        for shard_id, (packets, clocks) in enumerate(self._pending):
            if packets:
                self._put(shard_id, pack_frames(packets, clocks))
            self._put(shard_id, None)
        results = self._collect()
        self.close()
        for result in results:
            if result.error is not None:
                raise ShardError(
                    f"shard {result.shard_id} died:\n{result.error}"
                )
        return FleetResult(
            alerts=merge_alerts(sa for r in results for sa in r.alerts),
            shards=results,
            snapshot=merge_snapshots([r.snapshot for r in results]),
            packets_routed=self.packets_routed,
            trace=merge_traces((r.shard_id, r.trace) for r in results),
        )

    def close(self) -> None:
        """Tear the pool down; idempotent, safe after drain()."""
        for process in self._processes:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)
        # What a dead shard never took must not hold up interpreter exit.
        for inbox in self._inboxes:
            inbox.cancel_join_thread()
        self._processes = []
        self._inboxes = []
        self._pending = []
