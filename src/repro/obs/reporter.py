"""Pipeline stats reporting: registry snapshots as JSON lines.

:class:`PipelineStatsReporter` turns the active metrics registry into a
stream of JSON-lines snapshots — one object per line, each carrying the
reason it was emitted (``"interval"`` / ``"finalize"`` / caller-chosen),
wall-clock seconds since the reporter started, and the full
counters/gauges/histograms view.  It is the single source both for
operator-facing telemetry (``dynaminer detect --metrics``) and for the
benchmark artifacts, so perf numbers and production counters cannot
drift apart.

``maybe_emit`` is safe to call from the per-packet hot loop: it is one
clock read and a comparison until the interval elapses, and a no-op
when no interval is configured.
"""

from __future__ import annotations

import json
import time
from typing import IO, Callable

from repro.obs.registry import MetricsRegistry, NullRegistry, get_registry

__all__ = ["PipelineStatsReporter"]


class PipelineStatsReporter:
    """Snapshots a metrics registry as JSON lines.

    Args:
        registry: registry to snapshot; defaults to the active one.
        out: ``None`` collects lines in :attr:`lines` (tests,
            benchmarks); a path string appends to that file; a
            file-like object is written to directly (not closed).
        interval: seconds between :meth:`maybe_emit` snapshots;
            ``None`` disables interval emission (finalize-only).
        clock: injectable monotonic clock (tests pin it).
    """

    def __init__(
        self,
        registry: MetricsRegistry | NullRegistry | None = None,
        out: str | IO[str] | None = None,
        interval: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.registry = registry if registry is not None else get_registry()
        self.interval = interval
        self._clock = clock
        self._started = clock()
        self._last_emit = self._started
        self.emitted = 0
        #: Counter values at the last emission — the baseline the
        #: per-interval deltas and rates are computed against.
        self._last_counters: dict[str, int] = {}
        #: Snapshot lines retained when no ``out`` sink is configured.
        self.lines: list[str] = []
        self._stream: IO[str] | None = None
        self._owns_stream = False
        if out is None:
            pass
        elif hasattr(out, "write"):
            self._stream = out  # type: ignore[assignment]
        else:
            self._stream = open(out, "a", encoding="utf-8")
            self._owns_stream = True

    def snapshot(self, reason: str = "interval") -> dict:
        """Build (without emitting) one snapshot dict.

        Alongside the cumulative registry view, each snapshot carries
        the counter *deltas* since the previous emission and the
        derived per-second *rates* (``<name>_per_s``) over that
        interval, so operators and bench artifacts read steady-state
        throughput (e.g. ``decode.packets_per_s``) without
        post-processing.  Raw histogram sample buffers are stripped —
        they exist for the fleet merge, not for JSONL lines.
        """
        data = self.registry.snapshot()
        for hist in data.get("histograms", {}).values():
            hist.pop("samples", None)
        data["reason"] = reason
        now = self._clock()
        data["elapsed_seconds"] = now - self._started
        interval = now - self._last_emit if self.emitted else data[
            "elapsed_seconds"]
        data["interval_seconds"] = interval
        deltas = {
            name: value - self._last_counters.get(name, 0)
            for name, value in data.get("counters", {}).items()
        }
        data["deltas"] = deltas
        data["rates"] = {
            f"{name}_per_s": delta / interval
            for name, delta in deltas.items()
        } if interval > 0 else {}
        return data

    def emit(self, reason: str = "interval") -> dict:
        """Write one JSON-lines snapshot; returns the snapshot dict."""
        data = self.snapshot(reason)
        line = json.dumps(data, sort_keys=True)
        if self._stream is not None:
            self._stream.write(line + "\n")
            self._stream.flush()
        else:
            self.lines.append(line)
        self.emitted += 1
        self._last_emit = self._clock()
        # The next interval's deltas start from this emission.
        self._last_counters = dict(data.get("counters", {}))
        return data

    def maybe_emit(self, reason: str = "interval") -> dict | None:
        """Emit iff the configured interval has elapsed since the last
        emission; cheap enough for per-packet call sites."""
        if self.interval is None:
            return None
        if self._clock() - self._last_emit < self.interval:
            return None
        return self.emit(reason)

    def finalize(self) -> dict:
        """Emit the end-of-run snapshot and release the sink."""
        data = self.emit("finalize")
        self.close()
        return data

    def close(self) -> None:
        """Close the output file if this reporter opened it."""
        if self._owns_stream and self._stream is not None:
            self._stream.close()
            self._stream = None
            self._owns_stream = False
