"""Pipeline observability: metrics, timing spans, logging, stats reports.

The live pipeline is instrumented end to end — decode, reassembly, HTTP
pairing, session table, clues, WCG building, feature extraction, forest
inference, alert dispatch — against the process-wide registry from
:mod:`repro.obs.registry`.  By default that registry is a no-op
(:data:`NULL_REGISTRY`), so the uninstrumented hot path pays one empty
method call per event; set ``REPRO_METRICS=1`` (or call
:func:`enable_metrics` / :func:`use_registry` before constructing the
pipeline) to record.

Detection tracing (:mod:`repro.obs.trace`) follows the same pattern:
``REPRO_TRACE=1`` / :func:`enable_tracing` / :func:`use_tracer` switch
on per-watch event timelines and alert provenance; the default
:data:`NULL_TRACER` is a true no-op.

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
    enable_metrics,
    get_registry,
    metrics_enabled,
    set_registry,
    span,
    use_registry,
)
from repro.obs.reporter import PipelineStatsReporter
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    enable_tracing,
    get_tracer,
    read_jsonl,
    set_tracer,
    tracing_enabled,
    use_tracer,
    write_trace,
)

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
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    "enable_metrics",
    "metrics_enabled",
    "span",
    "configure_logging",
    "get_logger",
    "LOGGER_NAME",
    "PipelineStatsReporter",
]
