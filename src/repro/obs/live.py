"""Streaming telemetry: the sinks and the stream that writes them.

A telemetry session (:func:`repro.obs.telemetry_session`) owns one
:class:`TelemetryStream` when it is given sinks.  The stream tails the
session's live :class:`~repro.obs.Tracer` and writes *records* — small
JSON-friendly dictionaries tagged by ``"record"`` type, in the trace
layout of :mod:`repro.obs.export` — to every sink while the run is
still going:

* ``{"record": "meta", ...}`` — the header, written and flushed when
  the stream opens;
* ``{"record": "span", ...}`` — one finished span
  (:func:`repro.obs.span_to_dict` layout);
* ``{"record": "metrics", "seq": n, "snapshot": {...}}`` — a full
  registry snapshot (:meth:`MetricsRegistry.snapshot` layout) after
  each pump's spans, newest wins;
* ``{"record": "end", ...}`` — the end-of-run counts, after the
  orphan-event root span, written once by :meth:`TelemetryStream.close`.

Two sinks ship here: :class:`JsonlTraceSink` (append every record to a
JSONL trace file — what ``--trace FILE`` writes) and
:class:`OpenMetricsSink` (render the latest metrics snapshot as
Prometheus/OpenMetrics text, atomically, for scrapers to poll).

The exec supervisor pumps the session's stream once per accepted unit,
right after adopting the unit's telemetry, and the session's exit does
the final pump — about nine pumps for the eight-benchmark campaign —
so a campaign's trace file grows while the campaign runs, with or
without a progress board, and each pump's records are on disk when it
returns.
"""

from __future__ import annotations

import json
import os
import threading
from typing import IO, Any, Dict, List, Optional, Sequence

from .export import meta_record, orphan_root_record, span_to_dict
from .metrics import MetricsRegistry
from .tracing import Tracer


class TelemetrySink:
    """Protocol for streaming-telemetry consumers.

    A sink accepts telemetry records one at a time via :meth:`write`,
    persists buffered state on :meth:`flush`, and releases resources on
    :meth:`close`.  A :class:`TelemetryStream` calls them under its
    lock, one at a time, so implementations need no internal locking;
    they must tolerate records of unknown ``"record"`` type by
    ignoring them.
    """

    def write(self, record: Dict[str, Any]) -> None:
        """Consume one telemetry record."""
        raise NotImplementedError

    def flush(self) -> None:
        """Persist any buffered state (no-op by default)."""

    def close(self) -> None:
        """Flush and release resources (no-op beyond flush by default)."""
        self.flush()


class JsonlTraceSink(TelemetrySink):
    """Append telemetry records to a JSONL trace file.

    The file is truncated when the sink opens.  Attribute values JSON
    cannot encode are written as their ``str``.
    """

    def __init__(self, path: str):
        self.path = path
        self._stream: Optional[IO[str]] = open(
            path, "w", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        """Append one record as a JSON line."""
        if self._stream is not None:
            self._stream.write(json.dumps(record, default=str) + "\n")

    def flush(self) -> None:
        """Flush the file to the OS."""
        if self._stream is not None:
            self._stream.flush()

    def close(self) -> None:
        """Flush and close the file; later writes are dropped."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None


def _openmetrics_name(name: str) -> str:
    """Map a dotted metric name onto the OpenMetrics charset."""
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_"
                   for ch in name)
    if not safe or not (safe[0].isalpha() or safe[0] == "_"):
        safe = "_" + safe
    return "repro_" + safe


def _format_value(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def metrics_to_openmetrics(snapshot: Dict[str, Any]) -> str:
    """Render a registry snapshot as OpenMetrics/Prometheus text.

    Counters gain the ``_total`` suffix, histogram buckets are emitted
    *cumulatively* with the standard ``le`` label and ``+Inf`` overflow
    line, and the exposition ends with ``# EOF`` per the OpenMetrics
    spec.  Names are sanitized (dots become underscores) and prefixed
    ``repro_``.  The output is deterministic for a given snapshot.
    """
    lines: List[str] = []
    for name, value in sorted(
            (snapshot.get("counters") or {}).items()):
        metric = _openmetrics_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {_format_value(value)}")
    for name, value in sorted((snapshot.get("gauges") or {}).items()):
        metric = _openmetrics_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    for name, entry in sorted(
            (snapshot.get("histograms") or {}).items()):
        metric = _openmetrics_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in entry.get("buckets") or ():
            cumulative += int(count)
            lines.append(
                f'{metric}_bucket{{le="{float(bound):g}"}} '
                f"{cumulative}")
        cumulative += int(entry.get("overflow") or 0)
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(
            f"{metric}_sum {_format_value(entry.get('sum') or 0.0)}")
        lines.append(
            f"{metric}_count {int(entry.get('count') or 0)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class OpenMetricsSink(TelemetrySink):
    """Expose the latest metrics snapshot as OpenMetrics text.

    Retains the newest ``{"record": "metrics"}`` record seen and, on
    :meth:`flush`, renders it to ``path`` atomically (write to a
    temporary sibling, then :func:`os.replace`) so a scraper polling
    the file never reads a torn exposition.  Span records are ignored.
    """

    def __init__(self, path: str):
        self.path = path
        self.renders = 0
        self._latest: Optional[Dict[str, Any]] = None
        self._dirty = False

    def write(self, record: Dict[str, Any]) -> None:
        """Retain the newest metrics snapshot; ignore other records."""
        if record.get("record") != "metrics":
            return
        snapshot = record.get("snapshot")
        if isinstance(snapshot, dict):
            self._latest = snapshot
            self._dirty = True

    def flush(self) -> None:
        """Atomically re-render ``path`` if a newer snapshot arrived."""
        if not self._dirty or self._latest is None:
            return
        text = metrics_to_openmetrics(self._latest)
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(tmp_path, self.path)
        self.renders += 1
        self._dirty = False


class TelemetryStream:
    """Tail a live tracer/registry straight into a set of sinks.

    Opening the stream writes the trace header to every sink and
    flushes it at once, so a worker forked later inherits no buffered
    bytes.  :meth:`pump` writes every span finished since the previous
    pump (in finish order — spans already streamed are never re-sent)
    and a fresh metrics-snapshot record to each sink, then flushes
    each sink before it returns: everything a pump wrote is on disk
    when it returns, so a run that crashes later keeps it.  It is
    thread-safe.

    A sink whose ``write`` or ``flush`` raises is quarantined for the
    rest of the run (and counted in :attr:`sink_errors`), so telemetry
    can never fail the run it narrates; the other sinks keep receiving
    every record.  :meth:`close` does a final pump, writes the
    orphan-event root and the end record, and closes every sink; it is
    idempotent, and later pumps write nothing.
    """

    def __init__(self, tracer: Tracer, metrics: MetricsRegistry,
                 sinks: Sequence[TelemetrySink]):
        self._tracer = tracer
        self._metrics = metrics
        self._sinks: List[TelemetrySink] = list(sinks)
        self._dead: List[TelemetrySink] = []
        # _seen: spans the tracer had finished at the last pump,
        # counting those it has dropped past its cap; _lost: spans it
        # dropped before any pump could write them.
        self._seen = 0
        self._written = 0
        self._lost = 0
        self._seq = 0
        self._closed = False
        self._lock = threading.Lock()
        self.sink_errors = 0
        self._emit([meta_record(tracer)])

    @property
    def spans_streamed(self) -> int:
        """Span records written so far."""
        return self._written

    def _emit(self, records: List[Dict[str, Any]]) -> None:
        """Write ``records`` to every healthy sink and flush it."""
        for sink in list(self._sinks):
            try:
                for record in records:
                    sink.write(record)
                sink.flush()
            except Exception:  # physlint: disable=RPR201
                # A failing sink must not fail the run (or starve
                # the healthy sinks): quarantine it and go on.
                self.sink_errors += 1
                self._sinks.remove(sink)
                self._dead.append(sink)

    def _pump_locked(self) -> int:
        finished = self._tracer.finished
        seen = len(finished) + self._tracer.dropped_spans
        fresh = seen - self._seen
        kept = min(fresh, len(finished))
        self._lost += fresh - kept
        self._seen = seen
        self._written += kept
        records = [span_to_dict(span)
                   for span in finished[len(finished) - kept:]]
        self._seq += 1
        records.append({"record": "metrics", "seq": self._seq,
                        "snapshot": self._metrics.snapshot()})
        self._emit(records)
        return len(records)

    def pump(self) -> int:
        """Write new spans and a metrics snapshot to every healthy
        sink and flush them; returns the number of records pumped."""
        with self._lock:
            if self._closed:
                return 0
            return self._pump_locked()

    def close(self) -> None:
        """Final pump, closing records, then close every sink,
        quarantined ones included."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._pump_locked()
            root = orphan_root_record(self._tracer)
            closing = [] if root is None else [root]
            closing.append({"record": "end",
                            "spans": self._written,
                            "dropped_spans": self._lost,
                            "open_spans": self._tracer.open_span_count})
            self._emit(closing)
            for sink in self._sinks + self._dead:
                try:
                    sink.close()
                except Exception:  # physlint: disable=RPR201
                    # Closing is best-effort; a sink that cannot close
                    # has nothing left we can do for it.
                    self.sink_errors += 1
            self._sinks = []
            self._dead = []


__all__ = [
    "JsonlTraceSink",
    "OpenMetricsSink",
    "TelemetrySink",
    "TelemetryStream",
    "metrics_to_openmetrics",
]
