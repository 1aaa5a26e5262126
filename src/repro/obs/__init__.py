"""repro.obs — tracing, metrics, and telemetry export.

The observability plane for the OFTEC pipeline (see
docs/OBSERVABILITY.md for the span taxonomy and metric table).  Usage:

    from repro.obs import JsonlTraceSink, telemetry_session

    sinks = [JsonlTraceSink("run.jsonl")]
    with telemetry_session(sinks=sinks) as (tracer, metrics):
        result = run_oftec(problem)
    snapshot = metrics.snapshot()

The trace file is written while the run goes: its header when the
session opens, the spans finished so far on each pump of the session's
:class:`TelemetryStream` (the exec supervisor pumps once per completed
unit), and the rest when the session closes.  ``repro trace
summarize`` reads it at any point.

Everything defaults to a zero-overhead no-op: without an active
session, instrumented seams cost one attribute check and results are
bit-identical to an un-instrumented build.
"""

from .analyze import (
    critical_path,
    folded_stacks,
    format_critical_path,
    format_folded,
)
from .clock import Deadline, Stopwatch, deadline, monotonic, stopwatch
from .export import (
    TRACE_FORMAT_VERSION,
    format_trace_summary,
    load_trace,
    read_trace_jsonl,
    span_to_dict,
    summarize_spans,
)
from .live import (
    JsonlTraceSink,
    OpenMetricsSink,
    TelemetrySink,
    TelemetryStream,
    metrics_to_openmetrics,
)
from .metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from .progress import ProgressBoard
from .runtime import (
    event,
    get_metrics,
    get_tracer,
    install,
    is_enabled,
    reset,
    span,
    telemetry_session,
    traced,
)
from .tracing import NoopTracer, Span, SpanEvent, Tracer

__all__ = [
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "Deadline",
    "deadline",
    "DEFAULT_TIME_BUCKETS_S",
    "Gauge",
    "Histogram",
    "JsonlTraceSink",
    "MetricsRegistry",
    "NoopTracer",
    "NullMetrics",
    "OpenMetricsSink",
    "ProgressBoard",
    "Span",
    "SpanEvent",
    "Stopwatch",
    "TRACE_FORMAT_VERSION",
    "TelemetrySink",
    "TelemetryStream",
    "Tracer",
    "critical_path",
    "event",
    "folded_stacks",
    "format_critical_path",
    "format_folded",
    "format_trace_summary",
    "get_metrics",
    "get_tracer",
    "install",
    "is_enabled",
    "load_trace",
    "metrics_to_openmetrics",
    "monotonic",
    "read_trace_jsonl",
    "reset",
    "span",
    "span_to_dict",
    "stopwatch",
    "summarize_spans",
    "telemetry_session",
    "traced",
]
