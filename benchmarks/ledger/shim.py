"""Shim spans: time the program's layers from outside.

Each public entry point in :data:`ENTRY_POINTS` is wrapped — as a class
attribute, or as the name bound in the module that calls it — with a
``perf_counter_ns`` pair and a span stack.  A layer's *self* time is its
spans' duration minus the part their child spans cover, so the rows of
one pass sum to (almost) the pass's wall time; what is left over is the
driver loop itself and is reported as ``1 - trace.coverage``.

Spans are aggregated per layer in memory (a pass opens ~1M of them);
nothing is written until the pass ends.  No file under ``src/`` is
edited: :func:`installed` patches on entry and restores on exit, and an
entry point that no longer exists lands in ``Spans.missing`` instead of
raising.
"""

from __future__ import annotations

import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator

__all__ = ["ENTRY_POINTS", "LAYERS", "Spans", "installed"]

#: layer -> entry points, each ``(module, owner, attribute)``; ``owner``
#: is a class name, or ``None`` for a function bound in ``module``.
ENTRY_POINTS: dict[str, list[tuple[str, str | None, str]]] = {
    "net.pcap": [
        ("repro.net.pcap", "PcapReader", "__iter__"),
        ("repro.net.pcap", None, "read_pcap"),
    ],
    # As bound in the module that calls them on the detection path; the
    # router's own copies stay unwrapped, so its re-parse is `service`.
    "net.packets": [
        ("repro.net.flows", None, "decode_ethernet"),
        ("repro.net.flows", None, "decode_ipv4"),
        ("repro.net.flows", None, "decode_tcp"),
    ],
    "net.reassembly": [
        ("repro.net.reassembly", "TcpReassembler", "feed"),
        ("repro.net.reassembly", "TcpReassembler", "evict"),
    ],
    "net.http1": [
        ("repro.net.http1", "RequestParser", "feed"),
        ("repro.net.http1", "RequestParser", "finish"),
        ("repro.net.http1", "ResponseParser", "feed"),
        ("repro.net.http1", "ResponseParser", "finish"),
    ],
    "net.flows": [
        ("repro.net.flows", "StreamPairer", "poll"),
        ("repro.net.flows", None, "transactions_from_packets"),
    ],
    "detection.live": [
        ("repro.detection.live", "LiveDetector", "feed"),
        ("repro.detection.live", "LiveDetector", "finish"),
        ("repro.detection.live", "LiveDecoder", "feed"),
        ("repro.detection.live", "LiveDecoder", "flush"),
    ],
    "detection.monitor": [
        ("repro.detection.monitor", "SessionTable", "route"),
        ("repro.detection.monitor", "SessionTable", "expire"),
        ("repro.detection.monitor", "SessionTable", "sweep"),
    ],
    "detection.clues": [
        ("repro.detection.clues", "ClueDetector", "observe"),
    ],
    "detection.detector": [
        ("repro.detection.detector", "OnTheWireDetector", "process_batch"),
        ("repro.detection.detector", "OnTheWireDetector", "score_batch"),
        ("repro.detection.detector", "OnTheWireDetector", "finalize"),
    ],
    "core.builder": [
        ("repro.core.builder", "WCGBuilder", "add"),
        ("repro.core.builder", "WCGBuilder", "build"),
        ("repro.core.builder", None, "build_wcg"),
    ],
    "features": [
        ("repro.features.extractor", "FeatureExtractor", "extract_batch"),
        ("repro.features.extractor", "FeatureExtractor", "extract"),
    ],
    "learning": [
        ("repro.learning.forest", "EnsembleRandomForest", "decision_scores"),
        ("repro.learning.forest", "EnsembleRandomForest", "fit"),
        ("repro.learning.crossval", None, "cross_validate"),
    ],
    "service": [
        ("repro.service.sharding", "PacketRouter", "route"),
        ("repro.service.daemon", "ShardedDetectionService", "feed"),
        ("repro.service.daemon", "ShardedDetectionService", "drain"),
    ],
}

LAYERS = tuple(ENTRY_POINTS)

_ABSENT = object()


class Spans:
    """Per-layer self time and call counts of one traced pass."""

    def __init__(self) -> None:
        #: layer -> ``[self nanoseconds, calls]``, updated in place.
        self._totals: dict[str, list[int]] = {
            layer: [0, 0] for layer in LAYERS
        }
        #: Entry points that could not be resolved, as dotted names.
        self.missing: list[str] = []
        #: One slot per open span: nanoseconds its child spans covered.
        self._stack: list[int] = []

    def self_ns(self, layer: str) -> int:
        return self._totals[layer][0]

    def calls(self, layer: str) -> int:
        return self._totals[layer][1]

    def total_ns(self) -> int:
        return sum(total[0] for total in self._totals.values())

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with a span of ``layer`` around every call."""
        stack = self._stack
        total = self._totals[layer]
        # The bookkeeping is written out in both wrappers: a span costs
        # the traced run ~0.5 us, and a shared helper would double it.
        if inspect.isgeneratorfunction(fn):
            # A generator's work happens in next(), not in the call:
            # open one span per resumption.
            def generator_span(*args: Any, **kwargs: Any) -> Iterator:
                iterator = fn(*args, **kwargs)
                while True:
                    stack.append(0)
                    started = perf_counter_ns()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        duration = perf_counter_ns() - started
                        total[0] += duration - stack.pop()
                        total[1] += 1
                        if stack:
                            stack[-1] += duration
                    yield item

            return generator_span

        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            started = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - started
                total[0] += duration - stack.pop()
                total[1] += 1
                if stack:
                    stack[-1] += duration

        return span


@contextmanager
def installed(spans: Spans) -> Iterator[Spans]:
    """Wrap every resolvable entry point for the duration of the block."""
    patched: list[tuple[Any, str, Any]] = []
    try:
        for layer, points in ENTRY_POINTS.items():
            for module_name, owner_name, attribute in points:
                dotted = ".".join(
                    part for part in (module_name, owner_name, attribute)
                    if part
                )
                try:
                    owner = importlib.import_module(module_name)
                    if owner_name is not None:
                        owner = getattr(owner, owner_name)
                    original = getattr(owner, attribute)
                except (ImportError, AttributeError):
                    spans.missing.append(dotted)
                    continue
                # An inherited method is patched on the subclass and
                # deleted again on exit, leaving the base untouched.
                previous = vars(owner).get(attribute, _ABSENT)
                setattr(owner, attribute, spans.wrap(layer, original))
                patched.append((owner, attribute, previous))
        yield spans
    finally:
        for owner, attribute, previous in reversed(patched):
            if previous is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)
