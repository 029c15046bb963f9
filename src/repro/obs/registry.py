"""Metrics primitives: counters, gauges, histograms, spans, registries.

The live pipeline (decode → reassembly → HTTP pairing → session table →
clues → WCG/features → forest inference → alerts) emits telemetry
through a process-wide *active registry*.  Two implementations share one
interface:

* :class:`MetricsRegistry` — the real thing: named :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` instruments plus
  :meth:`~MetricsRegistry.span` timing contexts, snapshot-able as a
  plain dict for the JSON-lines reporter.
* :class:`NullRegistry` — the default.  Every accessor returns a shared
  no-op singleton, so an instrumentation site costs one attribute load
  and one empty method call; no names are interned, no dicts grow, no
  clock is read.  ``tests/detection/test_metrics_differential.py``
  proves the pipeline's *outputs* are byte-identical either way.

Sites that live on the hot path capture their instrument handles once
(at construction) from :func:`get_registry`; the handles then bind to
whichever registry was active when the component was built.  The
registry also carries the detection-trace mode (``trace``): each
detector builds its own tracer from it at construction.  The active
registry is the one process-wide telemetry slot.  Select one *before*
constructing the pipeline — with the :func:`use_registry` context
manager, or ``REPRO_METRICS=1`` / ``REPRO_TRACE=1`` in the environment,
which set the default built on first use.

Histograms keep a bounded, *deterministically decimated* sample list:
when the buffer fills, every other sample is dropped and the keep
stride doubles.  Quantiles are exact below the buffer size and a
deterministic (order-stable, replayable) approximation beyond it —
there is no randomness anywhere, matching the repo-wide determinism
contract (DESIGN.md §6).
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "decimate_samples",
    "interpolated_quantile",
    "Span",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "SAMPLE_MODES",
    "get_registry",
    "use_registry",
]

#: Histogram sample-buffer size; beyond it, deterministic decimation.
_MAX_SAMPLES = 2048

_TRUTHY = ("1", "true", "yes", "on")


def _env_enabled(value: str | None) -> bool:
    """Does a ``REPRO_METRICS`` / ``REPRO_TRACE`` value ask for it?"""
    return (value or "").strip().lower() in _TRUTHY


#: Trace sample modes: ``"full"`` keeps every watch's timeline;
#: ``"alerts"`` discards the timelines of watches that close without
#: alerting.
SAMPLE_MODES = ("full", "alerts")

#: A registry's trace mode when none is given, read once at import:
#: ``REPRO_TRACE=1`` traces in the ``REPRO_TRACE_SAMPLE`` mode.
_ENV_TRACE = (
    os.environ.get("REPRO_TRACE_SAMPLE", "").strip() or "full"
    if _env_enabled(os.environ.get("REPRO_TRACE")) else None
)
_ENV_METRICS = _env_enabled(os.environ.get("REPRO_METRICS"))


def _trace_mode(trace: str | None) -> str | None:
    """``trace`` if it is one of :data:`SAMPLE_MODES` or ``None``."""
    if trace is not None and trace not in SAMPLE_MODES:
        raise ValueError(f"unknown trace sampling mode {trace!r}")
    return trace


def decimate_samples(samples: list[float],
                     cap: int = _MAX_SAMPLES) -> list[float]:
    """Bound a sample buffer with the histogram's decimation rule.

    Repeatedly keeps every other sample (in observation order) until
    the buffer fits under ``cap`` — the exact halving
    :meth:`Histogram.observe` applies, so merging per-shard buffers
    (:func:`repro.service.daemon.merge_snapshots`) stays deterministic
    and bounded.
    """
    out = list(samples)
    cap = max(2, cap)
    while len(out) >= cap:
        del out[1::2]
    return out


def interpolated_quantile(samples: list[float], q: float) -> float | None:
    """Linear-interpolated quantile of a sample buffer.

    The shared quantile rule of :meth:`Histogram.quantile` and the
    fleet snapshot merge; ``None`` on an empty buffer.
    """
    if not samples:
        return None
    data = sorted(samples)
    if len(data) == 1:
        return data[0]
    q = min(1.0, max(0.0, q))
    position = q * (len(data) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return data[low]
    fraction = position - low
    return data[low] * (1.0 - fraction) + data[high] * fraction


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount


class Gauge:
    """A value that goes up and down (e.g. live watch count)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Distribution of observed values with deterministic quantiles.

    Tracks exact ``count``/``sum``/``min``/``max`` for every
    observation; quantiles come from a bounded sample list.  While the
    list is under ``max_samples`` entries it holds *every* observation
    and quantiles are exact; once full, the list is halved (every other
    sample kept) and the keep stride doubles, so memory stays bounded
    and the retained subset depends only on the observation sequence —
    never on a clock or RNG.
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "_samples", "_stride", "_phase", "_cap")

    def __init__(self, name: str, max_samples: int = _MAX_SAMPLES):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._samples: list[float] = []
        self._stride = 1
        self._phase = 0
        self._cap = max(2, max_samples)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self._phase == 0:
            self._samples.append(value)
            if len(self._samples) >= self._cap:
                # Deterministic decimation: keep every other sample,
                # double the stride for future observations.
                del self._samples[1::2]
                self._stride *= 2
        self._phase += 1
        if self._phase >= self._stride:
            self._phase = 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Linear-interpolated quantile over the retained samples.

        Exact while fewer than ``max_samples`` values have been
        observed; a deterministic approximation afterwards.  Returns
        ``None`` on an empty histogram.
        """
        return interpolated_quantile(self._samples, q)

    def snapshot(self) -> dict:
        """JSON-compatible summary (count, sum, min/max, mean, p50/90/99).

        ``samples`` carries the retained (deterministically decimated)
        buffer so a fleet merge can compute *exact* quantiles instead
        of estimating from per-shard summaries; the stats reporter
        strips it from operator-facing JSONL lines.
        """
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "samples": list(self._samples),
        }


class Span:
    """Context manager timing one block into a histogram of seconds."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._histogram.observe(time.perf_counter() - self._started)
        return False


class _NullCounter:
    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    count = 0
    total = 0.0
    min = None
    max = None
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> None:
        return None

    def snapshot(self) -> dict:
        return {}


class _NullSpan:
    """Shared do-nothing span: no clock read, no allocation per use."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_SPAN = _NullSpan()


class NullRegistry:
    """Disabled-metrics registry: every accessor returns a shared no-op.

    ``trace`` is the detection-trace mode of the pipelines built under
    it (``"full"``, ``"alerts"``, or ``None`` for off), as for
    :class:`MetricsRegistry`: tracing does not need metrics.
    """

    enabled = False

    def __init__(self, trace: str | None = _ENV_TRACE) -> None:
        self.trace = _trace_mode(trace)

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def snapshot(self) -> dict:
        return {"enabled": False, "counters": {}, "gauges": {},
                "histograms": {}}


class MetricsRegistry:
    """Named-instrument registry; get-or-create semantics per name.

    ``trace`` is the detection-trace mode of the pipelines built under
    it: each detector builds its own :class:`~repro.obs.trace.Tracer`
    in that sample mode (``"full"`` or ``"alerts"``), or none when it
    is ``None``.
    """

    enabled = True

    def __init__(self, trace: str | None = _ENV_TRACE) -> None:
        self.trace = _trace_mode(trace)
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def span(self, name: str) -> Span:
        """Timing context recording seconds into ``span.<name>``."""
        return Span(self.histogram(f"span.{name}"))

    def snapshot(self) -> dict:
        """One JSON-compatible view of every instrument, sorted by name."""
        return {
            "enabled": True,
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
        }


#: Records nothing and traces nothing.
NULL_REGISTRY = NullRegistry(trace=None)

#: The active registry; ``None`` until :func:`get_registry` builds the
#: environment's, so a bad ``REPRO_TRACE_SAMPLE`` raises there, not at
#: import.
_active: MetricsRegistry | NullRegistry | None = None


def _install(registry: MetricsRegistry | NullRegistry | None):
    """Make ``registry`` the active one: the slot's one writer."""
    global _active
    _active = registry
    return registry


def get_registry() -> MetricsRegistry | NullRegistry:
    """The process-wide active registry (null when metrics are off)."""
    if _active is None:
        return _install(MetricsRegistry() if _ENV_METRICS else NullRegistry())
    return _active


@contextmanager
def use_registry(
    registry: MetricsRegistry | NullRegistry | None = None,
) -> Iterator[MetricsRegistry | NullRegistry]:
    """Scoped registry swap: activate ``registry`` (a fresh one when
    ``None``), restore the previous on exit.

    Components capture instrument handles and their tracer at
    construction — swap the registry *before* building the pipeline you
    want observed.
    """
    active = MetricsRegistry() if registry is None else registry
    previous = _active
    _install(active)
    try:
        yield active
    finally:
        _install(previous)
