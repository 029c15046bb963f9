"""Pipeline observability: metrics, timing spans, logging, stats reports.

The live pipeline is instrumented end to end — decode, reassembly, HTTP
pairing, session table, clues, WCG building, feature extraction, forest
inference, alert dispatch — against the process-wide registry from
:mod:`repro.obs.registry`, the one process-wide telemetry slot.  By
default that registry is a no-op :class:`NullRegistry`, so the
uninstrumented hot path pays one empty method call per event; set
``REPRO_METRICS=1`` (or select a :class:`MetricsRegistry` with
:func:`use_registry` before constructing the pipeline) to record.

Detection tracing (:mod:`repro.obs.trace`) rides the same slot: a
registry's ``trace`` mode (``"full"``, ``"alerts"`` or ``None``;
``REPRO_TRACE=1`` sets the default) makes every detector built under it
record per-watch event timelines and alert provenance into a
:class:`Tracer` of its own; otherwise it uses :data:`NULL_TRACER`, a
true no-op.

See DESIGN.md §11 for the metric taxonomy, DESIGN.md §16 for the trace
event taxonomy, and the README's "Observability" and "Tracing & alert
provenance" sections for the operator workflow.
"""

from repro.obs.logs import LOGGER_NAME, configure_logging, get_logger
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Span,
    get_registry,
    use_registry,
)
from repro.obs.reporter import PipelineStatsReporter
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    read_jsonl,
    write_trace,
)

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "write_trace",
    "read_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "use_registry",
    "configure_logging",
    "get_logger",
    "LOGGER_NAME",
    "PipelineStatsReporter",
]
