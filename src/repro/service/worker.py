"""The per-process unit of the sharded service: one shard, one engine.

A worker process owns exactly one
:class:`~repro.detection.live.LiveDetector` — its own TCP
reassembler, HTTP pairing state, session table, WCGs, and alert
cooldown — built inside the process from a picklable
:class:`EngineSpec`.  Workers share only the stream clock, which
rides with every record; the client affinity of
:mod:`repro.service.sharding` guarantees each engine sees every packet
of its clients and no packet of anyone else's.  Together that makes
the per-shard alert streams merge into the single-process stream byte
for byte.

Every function a worker runs is module-level (not a closure, not a
lambda) so the pool works under both ``fork`` and ``spawn`` start
methods.
"""

from __future__ import annotations

import traceback
from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Any, Iterable, Iterator

from repro.detection.alerts import Alert
from repro.detection.clues import CluePolicy
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.detection.live import LiveDetector
from repro.learning.forest import EnsembleRandomForest
from repro.net.flows import AddressBook
from repro.net.pcap import LINKTYPE_ETHERNET, PcapPacket
from repro.obs import (
    MetricsRegistry,
    NullRegistry,
    TraceEvent,
    get_registry,
    use_registry,
)

__all__ = ["EngineSpec", "ShardAlert", "ShardResult", "pack_frames",
           "run_shard", "shard_worker", "unpack_frames"]


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
    linktype: int = LINKTYPE_ETHERNET
    book: AddressBook | None = None
    #: Collect a per-shard MetricsRegistry snapshot.  Off by default,
    #: like the process-wide registry (a disabled one is a true no-op).
    metrics: bool = False
    #: Per-shard detection trace (repro.obs.trace), shipped back on
    #: :attr:`ShardResult.trace`: its sampling mode (``"full"`` or
    #: ``"alerts"``), or ``None`` for off.  The default is the trace
    #: mode of the registry active where the spec is built, so
    #: ``--trace`` / ``REPRO_TRACE`` trace the fleet exactly as they
    #: trace the single process.
    trace: str | None = field(
        default_factory=lambda: get_registry().trace)

    def build_engine(self) -> LiveDetector:
        detector = OnTheWireDetector(self.classifier, policy=self.clue_policy,
                                     config=self.detector_config)
        return LiveDetector(detector, linktype=self.linktype, book=self.book)


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
    transactions: int = 0
    classifications: int = 0
    transactions_weeded: int = 0
    watches_opened: int = 0
    #: Registry snapshot (``EngineSpec.metrics`` on) or the null shape.
    snapshot: dict[str, Any] = field(default_factory=dict)
    #: This shard's drained trace events, in ``(ts, seq)`` order — the
    #: coordinator merges per-shard streams under ``(ts, shard_id,
    #: seq)``, the same key as alerts.
    trace: list[TraceEvent] = field(default_factory=list)
    #: Traceback text if the shard died; the coordinator re-raises.
    error: str | None = None


def run_shard(spec: EngineSpec, shard_id: int,
              records: Iterable[tuple[PcapPacket, float]]) -> ShardResult:
    """The whole shard lifecycle in-process — build, feed, finish,
    summarize — for the worker loop (:func:`shard_worker`) and for
    tests that want a shard without a pool around it.

    ``records`` pairs each packet with the fleet clock, the largest
    timestamp fed to the coordinator by then; the engine's watermark
    goes there first, as the single process's went.
    """
    registry = (MetricsRegistry if spec.metrics else NullRegistry)(
        trace=spec.trace)
    alerts: list[Alert] = []
    with use_registry(registry):
        engine = spec.build_engine()
        for packet, clock in records:
            if clock > packet.timestamp:
                alerts += engine.detector.advance(clock)
            alerts += engine.feed(packet)
        alerts += engine.finish()
    detector = engine.detector
    return ShardResult(
        shard_id=shard_id, transactions=engine.transactions_emitted,
        alerts=[ShardAlert(shard_id, seq, alert)
                for seq, alert in enumerate(alerts)],
        classifications=detector.classifications,
        transactions_weeded=detector.transactions_weeded,
        watches_opened=detector.watch_count(),
        snapshot=registry.snapshot(), trace=detector.tracer.drain())


def pack_frames(packets: list[PcapPacket], clocks: list[float]) -> tuple:
    """Packets and the fleet clock at each as one inbox batch: timestamp
    and clock arrays beside the raw frames, which pickle far cheaper than
    a record each.  (No shard reads ``orig_len``; it is not shipped.)"""
    timestamps, frames, _ = zip(*packets)
    return array("d", timestamps), array("d", clocks), frames


def unpack_frames(batch: tuple) -> Iterator[tuple[PcapPacket, float]]:
    """What :func:`pack_frames` packed, as ``(packet, clock)`` pairs."""
    timestamps, clocks, frames = batch
    # ``tuple.__new__`` skips the NamedTuple's Python-level ``__new__``.
    packets = map(tuple.__new__, repeat(PcapPacket),
                  zip(timestamps, frames, repeat(-1)))
    return zip(packets, clocks)


def shard_worker(spec: EngineSpec, shard_id: int, inbox: Any,
                 outbox: Any) -> None:
    """Worker-process main: :func:`run_shard` over the drained inbox.

    ``inbox`` delivers :func:`pack_frames` batches in wire order (one
    queue per worker preserves per-shard ordering) and a final ``None``
    sentinel; the worker then posts its :class:`ShardResult` to the
    shared ``outbox``.  Any exception is captured into the result's
    ``error`` field instead of killing the process silently — the
    coordinator turns it back into a raise.
    """
    batches = map(unpack_frames, iter(inbox.get, None))
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
