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
decimated approximation beyond it.  (Snapshots predating the sample
buffers fall back to the old conservative max-of-quantiles estimate.)

Trace events merge under the same ``(timestamp, shard_id, seq)`` key
as alerts (:func:`merge_traces`), so the canonical fleet trace stream
is identical for any worker count too.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.detection.alerts import Alert
from repro.detection.live import WatchSnapshot
from repro.net.pcap import PcapPacket
from repro.obs import TraceEvent
from repro.obs.registry import decimate_samples, interpolated_quantile
from repro.parallel import resolve_n_jobs
from repro.service.sharding import PacketRouter
from repro.service.worker import (
    EngineSpec,
    ShardAlert,
    ShardResult,
    shard_worker,
)

__all__ = ["FleetResult", "ShardedDetectionService", "merge_alerts",
           "merge_snapshots", "merge_traces", "merge_watch_snapshots"]

#: Packets buffered per shard before a batch crosses the queue; large
#: enough to amortize pickling, small enough to keep workers busy.
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


class ShardError(RuntimeError):
    """A worker process died; carries its traceback."""


@dataclass
class FleetResult:
    """The merged outcome of one sharded run."""

    alerts: list[Alert]
    shards: list[ShardResult]
    snapshot: dict[str, Any]
    packets_routed: int
    #: Merged pre-finalize watch summaries (``EngineSpec.
    #: snapshot_watches`` on), canonical ``(client, key)`` order.
    watches: list[WatchSnapshot] = field(default_factory=list)
    #: Merged fleet trace stream (tracing on), in the canonical
    #: ``(timestamp, shard_id, seq)`` order of :func:`merge_traces`.
    trace: list[TraceEvent] = field(default_factory=list)

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


def merge_watch_snapshots(
    shard_watches: Iterable[list[WatchSnapshot]],
) -> list[WatchSnapshot]:
    """Fleet watch view: concatenate and re-sort by ``(client, key)``.

    Client affinity means each watch lives on exactly one shard, so the
    merged list is a disjoint union; the canonical sort makes it
    identical for any worker count (the sharded differential compares
    it against the single-process engine's
    :meth:`~repro.detection.live.LiveDetector.snapshot_watches`).
    """
    merged = [snap for watches in shard_watches for snap in watches]
    merged.sort(key=lambda s: (s.client, s.key))
    return merged


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
            # Empty per-shard histograms report None for the order
            # statistics; they must not poison shards that observed data.
            for stat, pick in (("min", min), ("max", max),
                               ("p50", max), ("p90", max), ("p99", max)):
                if stat not in into and stat not in hist:
                    continue
                seen = [v for v in (into.get(stat), hist.get(stat))
                        if v is not None]
                into[stat] = pick(seen) if seen else None
            # Pool retained samples for exact fleet quantiles below.
            # One sample-less contributor poisons the pool (None) — the
            # quantiles then stay on the conservative max-of estimate.
            if into.get("samples") is not None and "samples" in hist:
                into["samples"] = list(into["samples"]) + list(
                    hist["samples"]
                )
            else:
                into["samples"] = None
    for hist in merged["histograms"].values():
        if hist.get("count"):
            hist["mean"] = hist["sum"] / hist["count"]
        samples = hist.pop("samples", None)
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

    def __init__(self, spec: EngineSpec, workers: int | None = None,
                 batch_size: int = _BATCH_SIZE):
        self.spec = spec
        self.n_workers = resolve_n_jobs(workers)
        self.batch_size = batch_size
        self.router = PacketRouter(self.n_workers, linktype=spec.linktype)
        self.packets_routed = 0
        self._ctx = mp.get_context()
        self._processes: list[mp.process.BaseProcess] = []
        self._inboxes: list[Any] = []
        self._outbox: Any = None
        self._pending: list[list[PcapPacket]] = []

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        if self._processes:
            raise RuntimeError("service already started")
        self._outbox = self._ctx.Queue()
        self._pending = [[] for _ in range(self.n_workers)]
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
        for shard_id, routed in self.router.route(packet):
            self.packets_routed += 1
            batch = self._pending[shard_id]
            batch.append(routed)
            if len(batch) >= self.batch_size:
                self._put(shard_id, batch)
                self._pending[shard_id] = []

    def _put(self, shard_id: int, batch: list[PcapPacket] | None) -> None:
        """Hand ``batch`` to a shard; a worker that stopped taking (it
        takes until the sentinel even after an error) is a bug, surfaced
        under the same deadline as a missing result."""
        try:
            self._inboxes[shard_id].put(batch, timeout=_DRAIN_TIMEOUT)
        except queue.Full:
            raise ShardError(
                f"shard {shard_id} stopped taking packets"
            ) from None

    def feed_many(self, packets: Iterator[PcapPacket]) -> None:
        for packet in packets:
            self.feed(packet)

    def drain(self) -> FleetResult:
        """Flush every shard, collect results, merge, shut the pool."""
        if not self._processes:
            raise RuntimeError("service not started")
        for shard_id, batch in enumerate(self._pending):
            if batch:
                self._put(shard_id, batch)
            self._put(shard_id, None)
        self._pending = [[] for _ in range(self.n_workers)]
        results: list[ShardResult] = []
        for _ in range(self.n_workers):
            results.append(self._outbox.get(timeout=_DRAIN_TIMEOUT))
        results.sort(key=lambda r: r.shard_id)
        self.close()
        for result in results:
            if result.error is not None:
                raise ShardError(
                    f"shard {result.shard_id} died:\n{result.error}"
                )
        alerts = merge_alerts(
            sa for result in results for sa in result.alerts
        )
        snapshot = merge_snapshots([r.snapshot for r in results])
        return FleetResult(
            alerts=alerts,
            shards=results,
            snapshot=snapshot,
            packets_routed=self.packets_routed,
            watches=merge_watch_snapshots(r.watches for r in results),
            trace=merge_traces((r.shard_id, r.trace) for r in results),
        )

    def close(self) -> None:
        """Tear the pool down; idempotent, safe after drain()."""
        for process in self._processes:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)
        self._processes = []
        self._inboxes = []
