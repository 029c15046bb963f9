"""Detection tracing: bounded, deterministic per-watch event timelines.

The metrics registry (:mod:`repro.obs.registry`) answers "how much";
this module answers "why did *this* alert fire".  A :class:`Tracer`
accumulates a ring-buffered timeline of structured :class:`TraceEvent`
records per session watch — watch opened, clue fired, edge appended,
structure-version bump, score computed, verdict (alert / cooldown /
benign), watch pruned — and the detector reads the per-watch clue
summary back out of it to assemble each alert's provenance record
(:class:`repro.detection.alerts.AlertProvenance`).

The enablement pattern mirrors the registry exactly: components capture
the active tracer once at construction (:func:`get_tracer`), the
default :class:`NullTracer` makes every emission a single attribute
load plus a no-op call, and recording is switched on *before* the
pipeline is built — ``REPRO_TRACE=1`` in the environment,
:func:`enable_tracing`, or the scoped :func:`use_tracer`.
``tests/detection/test_trace_differential.py`` proves pipeline outputs
(alerts, graphs, vectors, metrics) are byte-identical either way.

Determinism contract: every event field except the wall-clock stamps —
``mono`` (monotonic seconds since the tracer started) and the
``latency_s`` score-timing datum — and the process-layout-dependent
``batch`` datum is derived from the packet stream alone.
:meth:`TraceEvent.canonical` strips exactly those fields, and
the sharded service merges per-shard streams under the same
``(timestamp, shard_id, seq)`` key as alerts, so any worker count
yields the identical canonical trace stream (DESIGN.md §16).

Boundedness: per-watch rings cap at ``_MAX_EVENTS_PER_WATCH`` (oldest
events drop first; the per-watch clue summary is kept out-of-ring so
provenance never loses its clue chain), closed-watch timelines cap at
``_MAX_EVENTS`` globally, and the per-watch table caps at
``_MAX_WATCHES`` — a process-wide tracer left on for an entire test
session stays O(1) in memory.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator

from repro.obs.registry import _env_enabled

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "enable_tracing",
    "tracing_enabled",
    "write_trace",
    "read_jsonl",
]

#: Event kinds emitted by the detection path (DESIGN.md §16).
EVENT_KINDS = ("watch", "clue", "edge", "wcg", "score", "verdict", "prune")

#: Sampling modes: ``"full"`` keeps every watch's timeline; ``"alerts"``
#: discards the timelines of watches that close without alerting.
SAMPLE_MODES = ("full", "alerts")

#: Data keys excluded from the canonical (determinism-checked) form
#: alongside ``mono``: ``latency_s`` is a wall-clock measurement, and
#: ``batch`` (micro-batch size at score flush) depends on how many
#: clients' requests coalesced in one process — shard layout, not
#: stream content.
_VOLATILE_KEYS = frozenset({"latency_s", "batch"})

#: Clue summaries kept per watch regardless of ring eviction.
_MAX_CLUES = 32

#: Ring size per live watch.
_MAX_EVENTS_PER_WATCH = 512

#: Retained closed-watch events (oldest drop first).
_MAX_EVENTS = 100_000

#: Concurrently tracked watch timelines (the stalest is evicted).
_MAX_WATCHES = 8192


@dataclass(frozen=True)
class TraceEvent:
    """One structured event on a watch timeline.

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        ts: stream (packet) time the event describes.
        mono: monotonic wall seconds since the tracer started.
        client: victim host the event belongs to ("" for global events).
        watch: session-watch key ("" for global events).
        data: kind-specific fields, JSON primitives only (picklable
            across worker processes).
        seq: emission ordinal within this tracer — the deterministic
            tie-break of the ``(ts, shard_id, seq)`` merge key; not
            part of the exported dict forms.
    """

    kind: str
    ts: float
    mono: float
    client: str
    watch: str
    data: dict
    seq: int = 0

    def to_dict(self) -> dict:
        """Full JSON form (one trace JSONL line)."""
        return {
            "kind": self.kind,
            "ts": self.ts,
            "mono": self.mono,
            "client": self.client,
            "watch": self.watch,
            "data": dict(self.data),
        }

    def canonical(self) -> dict:
        """Deterministic form: the dict minus wall-clock fields.

        Two runs of the same packet stream — any worker count, tracing
        merged or single-process — produce identical canonical streams.
        """
        return {
            "kind": self.kind,
            "ts": self.ts,
            "client": self.client,
            "watch": self.watch,
            "data": {
                key: value
                for key, value in self.data.items()
                if key not in _VOLATILE_KEYS
            },
        }


class _WatchTrace:
    """Per-watch accumulation: the event ring plus the clue summary.

    The clue summary lives outside the ring because provenance depends
    on it — a busy watch may rotate its ring past the clue events, but
    the alert's clue chain must survive."""

    __slots__ = ("events", "clues", "clue_count")

    def __init__(self, cap: int):
        self.events: deque[TraceEvent] = deque(maxlen=cap)
        self.clues: list[TraceEvent] = []
        self.clue_count = 0


class Tracer:
    """Recording tracer: bounded per-watch rings, deterministic output.

    Args:
        sample: ``"full"`` (every watch timeline) or ``"alerts"``
            (only watches that alerted survive :meth:`close_watch`).
        clock: injectable monotonic clock (tests pin it).
    """

    enabled = True

    def __init__(
        self,
        sample: str = "full",
        clock: Callable[[], float] = time.perf_counter,
    ):
        if sample not in SAMPLE_MODES:
            raise ValueError(f"unknown trace sampling mode {sample!r}")
        self.sample = sample
        self._clock = clock
        self._origin = clock()
        self._watches: dict[str, _WatchTrace] = {}
        self._done: list[TraceEvent] = []
        self._seq = 0
        self.dropped_events = 0
        self.dropped_watches = 0

    # -- recording ----------------------------------------------------

    def emit(self, kind: str, ts: float, client: str = "",
             watch: str = "", **data) -> TraceEvent:
        """Record one event; returns it.

        ``kind="watch"`` resets the per-watch state for that key —
        watch keys recycle per client, so a fresh watch must never
        inherit a predecessor's timeline or clue summary.  ``data``
        values must be JSON primitives (events cross process
        boundaries inside ``ShardResult``).
        """
        event = TraceEvent(
            kind=kind,
            ts=float(ts),
            mono=self._clock() - self._origin,
            client=client,
            watch=watch,
            data=data,
            seq=self._seq,
        )
        self._seq += 1
        if not watch:
            self._done.append(event)
            self._bound_done()
            return event
        trace = self._watches.get(watch)
        if kind == "watch" or trace is None:
            trace = self._open_watch(watch)
        ring = trace.events
        if len(ring) == ring.maxlen:
            self.dropped_events += 1  # deque evicts the oldest
        ring.append(event)
        if kind == "clue":
            trace.clue_count += 1
            if len(trace.clues) < _MAX_CLUES:
                trace.clues.append(event)
        return event

    def _open_watch(self, key: str) -> _WatchTrace:
        if key not in self._watches and \
                len(self._watches) >= _MAX_WATCHES:
            # Evict the stalest timeline (insertion order) as if its
            # watch closed without alerting.
            evicted = next(iter(self._watches))
            self.dropped_watches += 1
            self.close_watch(evicted, alerted=False)
        trace = self._watches[key] = _WatchTrace(_MAX_EVENTS_PER_WATCH)
        return trace

    def close_watch(self, key: str, alerted: bool) -> None:
        """Retire a watch timeline: flush it (or drop it, in
        ``"alerts"`` mode when the watch never alerted)."""
        trace = self._watches.pop(key, None)
        if trace is None:
            return
        if self.sample == "alerts" and not alerted:
            return
        self._done.extend(trace.events)
        self._bound_done()

    def _bound_done(self) -> None:
        overflow = len(self._done) - _MAX_EVENTS
        if overflow > 0:
            del self._done[:overflow]
            self.dropped_events += overflow

    # -- reading ------------------------------------------------------

    def watch_summary(self, key: str) -> _WatchTrace | None:
        """Live accumulation for one watch (the detector reads the clue
        summary out of it when assembling alert provenance)."""
        return self._watches.get(key)

    @property
    def event_count(self) -> int:
        """Events currently retained (closed + live rings)."""
        return len(self._done) + sum(
            len(trace.events) for trace in self._watches.values()
        )

    def events(self) -> list[TraceEvent]:
        """Every retained event, sorted by ``(ts, seq)``.

        In ``"alerts"`` mode still-open (never-closed) timelines are
        excluded — their watches have not alerted.
        """
        collected = list(self._done)
        if self.sample == "full":
            for trace in self._watches.values():
                collected.extend(trace.events)
        collected.sort(key=lambda e: (e.ts, e.seq))
        return collected

    def drain(self) -> list[TraceEvent]:
        """:meth:`events`, then reset all accumulation state."""
        collected = self.events()
        self._watches.clear()
        self._done.clear()
        return collected


class NullTracer:
    """Disabled tracer: every call is a true no-op (no clock read, no
    allocation); the shared :data:`NULL_TRACER` is the default."""

    enabled = False
    sample = "full"
    dropped_events = 0
    dropped_watches = 0

    def emit(self, kind: str, ts: float, client: str = "",
             watch: str = "", **data) -> None:
        return None

    def close_watch(self, key: str, alerted: bool) -> None:
        return None

    def watch_summary(self, key: str) -> None:
        return None

    @property
    def event_count(self) -> int:
        return 0

    def events(self) -> list[TraceEvent]:
        return []

    def drain(self) -> list[TraceEvent]:
        return []


NULL_TRACER = NullTracer()

_active: Tracer | NullTracer = (
    Tracer(sample=os.environ.get("REPRO_TRACE_SAMPLE", "full").strip()
           or "full")
    if _env_enabled(os.environ.get("REPRO_TRACE"))
    else NULL_TRACER
)


def get_tracer() -> Tracer | NullTracer:
    """The process-wide active tracer (null when tracing is off)."""
    return _active


def tracing_enabled() -> bool:
    """True when the active tracer records anything."""
    return _active.enabled


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` as the active one; returns the previous.

    Components capture the tracer at construction — swap it *before*
    building the pipeline you want traced.
    """
    global _active
    previous = _active
    _active = tracer
    return previous


def enable_tracing(sample: str = "full") -> Tracer:
    """Install (and return) a fresh recording tracer."""
    tracer = Tracer(sample=sample)
    set_tracer(tracer)
    return tracer


@contextmanager
def use_tracer(
    tracer: Tracer | NullTracer | None = None,
) -> Iterator[Tracer | NullTracer]:
    """Scoped tracer swap: activate ``tracer`` (a fresh one when
    ``None``), restore the previous on exit."""
    active = Tracer() if tracer is None else tracer
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)


# -- JSON-lines I/O ---------------------------------------------------


def write_trace(events: Iterable[TraceEvent],
                out: str | IO[str]) -> int:
    """Write events as JSON lines (stable key order); returns the
    number of lines written.  ``out`` is a path (appended to) or a
    file-like object (written, not closed) — the same sink convention
    as :class:`repro.obs.reporter.PipelineStatsReporter`.
    """
    lines = [json.dumps(event.to_dict(), sort_keys=True)
             for event in events]
    if hasattr(out, "write"):
        for line in lines:
            out.write(line + "\n")
    else:
        with open(out, "a", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
    return len(lines)


def read_jsonl(path: str) -> list:
    """Every value in a JSON-lines file — a trace or a stats stream
    — skipping blank lines.  Raises ``OSError``, or ``ValueError`` on a
    line that is not JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
