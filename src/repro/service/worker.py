"""The per-process unit of the sharded service: one shard, one engine.

A worker process owns exactly one
:class:`~repro.detection.live.LiveDetector` — its own TCP
reassembler, HTTP pairing state, session table, WCGs, and alert
cooldown — built inside the process from a picklable
:class:`EngineSpec`.  Nothing is shared between workers: the client
affinity of :mod:`repro.service.sharding` guarantees each engine sees
every packet of its clients and no packet of anyone else's, which is
what makes the per-shard alert streams merge into the single-process
stream byte for byte.

Every function here is module-level (not a closure, not a lambda) so
the pool works under both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterable

from repro.detection.alerts import Alert
from repro.detection.clues import CluePolicy
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.detection.live import LiveDetector, OverloadPolicy, WatchSnapshot
from repro.learning.forest import EnsembleRandomForest
from repro.net.flows import AddressBook
from repro.net.pcap import LINKTYPE_ETHERNET, PcapPacket
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullRegistry,
    TraceEvent,
    Tracer,
    tracing_enabled,
    use_registry,
    use_tracer,
)

__all__ = ["EngineSpec", "ShardAlert", "ShardResult", "run_shard",
           "shard_worker"]


@dataclass(frozen=True)
class EngineSpec:
    """Everything a worker needs to build its engine, picklable.

    The spec crosses the process boundary once, at pool start; the
    classifier rides along pickled (its compiled arena is dropped from
    pickles and lazily rebuilt in the worker, see
    ``repro.learning.compiled``).
    """

    classifier: EnsembleRandomForest
    clue_policy: CluePolicy | None = None
    detector_config: DetectorConfig | None = None
    overload_policy: OverloadPolicy | None = None
    linktype: int = LINKTYPE_ETHERNET
    book: AddressBook | None = None
    #: Collect a per-shard MetricsRegistry snapshot.  Off by default —
    #: matching the process-wide registry convention where telemetry is
    #: opt-in and a disabled registry is a true no-op.
    metrics: bool = False
    #: Capture per-watch :class:`~repro.detection.live.WatchSnapshot`
    #: summaries (taken after the packet stream drains, before
    #: finalization terminates the watches).  Off by default — the
    #: summaries are cheap column slices, but most callers only want
    #: alerts.
    snapshot_watches: bool = False
    #: Capture a per-shard detection trace (repro.obs.trace) and ship
    #: it back on :attr:`ShardResult.trace`.  ``None`` (the default)
    #: inherits the ambient ``REPRO_TRACE`` setting inside the worker
    #: process, so env-enabled tracing behaves identically sharded and
    #: single-process; ``True``/``False`` force it either way.
    trace: bool | None = None
    #: Trace sampling mode (``"full"`` or ``"alerts"``).
    trace_sample: str = "full"

    def build_engine(self) -> LiveDetector:
        return LiveDetector(
            OnTheWireDetector(
                self.classifier,
                policy=self.clue_policy,
                config=self.detector_config,
            ),
            linktype=self.linktype,
            book=self.book,
            policy=self.overload_policy,
        )


@dataclass(frozen=True)
class ShardAlert:
    """One alert stamped with its shard provenance.

    ``seq`` is the alert's position in its shard's own stream; together
    with the alert timestamp and the shard id it forms the total merge
    order ``(timestamp, shard_id, seq)`` — see
    :func:`repro.service.daemon.merge_alerts`.
    """

    shard_id: int
    seq: int
    alert: Alert


@dataclass
class ShardResult:
    """What one worker hands back to the coordinator when it drains."""

    shard_id: int
    alerts: list[ShardAlert] = field(default_factory=list)
    packets: int = 0
    transactions: int = 0
    classifications: int = 0
    transactions_weeded: int = 0
    watches_opened: int = 0
    #: Registry snapshot (``EngineSpec.metrics`` on) or the null shape.
    snapshot: dict[str, Any] = field(default_factory=dict)
    #: Pre-finalize live-watch summaries (``EngineSpec.snapshot_watches``
    #: on), already in canonical ``(client, key)`` order.
    watches: list[WatchSnapshot] = field(default_factory=list)
    #: This shard's drained trace events, in ``(ts, seq)`` order — the
    #: coordinator merges per-shard streams under ``(ts, shard_id,
    #: seq)``, the same key as alerts.
    trace: list[TraceEvent] = field(default_factory=list)
    #: Traceback text if the shard died; the coordinator re-raises.
    error: str | None = None


def run_shard(spec: EngineSpec, shard_id: int,
              packets: Iterable[PcapPacket]) -> ShardResult:
    """Run one shard's packet stream through a fresh engine, in-process.

    This is the whole shard lifecycle — build, feed, snapshot, finish,
    summarize — used by the worker-process loop (:func:`shard_worker`)
    and by tests that want a shard without a pool around it.
    """
    registry = MetricsRegistry() if spec.metrics else NullRegistry()
    tracer = _shard_tracer(spec)
    result = ShardResult(shard_id=shard_id)
    with use_registry(registry), use_tracer(tracer):
        engine = spec.build_engine()
        for packet in packets:
            result.packets += 1
            for alert in engine.feed(packet):
                result.alerts.append(
                    ShardAlert(shard_id, len(result.alerts), alert)
                )
        if spec.snapshot_watches:
            result.watches = engine.snapshot_watches()
        for alert in engine.finish():
            result.alerts.append(
                ShardAlert(shard_id, len(result.alerts), alert)
            )
    result.transactions = engine.transactions_emitted
    result.classifications = engine.detector.classifications
    result.transactions_weeded = engine.detector.transactions_weeded
    result.watches_opened = engine.detector.watch_count()
    result.snapshot = registry.snapshot()
    result.trace = tracer.drain()
    return result


def _shard_tracer(spec: EngineSpec):
    """Resolve the spec's tracing request into a tracer instance.

    A fresh :class:`Tracer` per shard — never the process-global one,
    which under ``fork`` would arrive pre-loaded with the parent's
    accumulation.  ``spec.trace=None`` defers to the ambient
    ``REPRO_TRACE`` state so env-driven tracing traces the fleet too.
    """
    want = tracing_enabled() if spec.trace is None else spec.trace
    return Tracer(sample=spec.trace_sample) if want else NULL_TRACER


def shard_worker(spec: EngineSpec, shard_id: int, inbox: Any,
                 outbox: Any) -> None:
    """Worker-process main: :func:`run_shard` over the drained inbox.

    ``inbox`` delivers ``list[PcapPacket]`` batches in wire order (one
    queue per worker preserves per-shard ordering) and a final ``None``
    sentinel; the worker then posts its :class:`ShardResult` to the
    shared ``outbox``.  Any exception is captured into the result's
    ``error`` field instead of killing the process silently — the
    coordinator turns it back into a raise.
    """
    batches = iter(inbox.get, None)
    try:
        result = run_shard(spec, shard_id, chain.from_iterable(batches))
    except Exception:  # noqa: BLE001 — ferried to the coordinator
        result = ShardResult(shard_id=shard_id, error=traceback.format_exc())
        # The inbox is bounded: keep taking until the sentinel, so the
        # coordinator never blocks on a dead shard and raises this error
        # from drain().  (A no-op when the sentinel was already taken —
        # the iterator is spent, it does not read the queue again.)
        for _ in batches:
            pass
    outbox.put(result)
