"""Streaming telemetry: sinks and the pump that writes them.

The rest of the obs plane is *post-hoc*: spans and metrics accumulate
in memory and materialize once, after the run (``save_trace``, the
``"telemetry"`` block of a results file).  This module is the live
half.  A :class:`TelemetrySink` consumes telemetry *records* — small
JSON-friendly dictionaries tagged by ``"record"`` type — while the run
is still going:

* ``{"record": "span", ...}`` — one finished span
  (:func:`repro.obs.span_to_dict` layout);
* ``{"record": "metrics", "seq": n, "snapshot": {...}}`` — a full
  registry snapshot (:meth:`MetricsRegistry.snapshot` layout), newest
  wins;
* ``{"record": "event", ...}`` — anything else a caller wants logged.

Two sink implementations ship here: :class:`RotatingJsonlSink` (append
records as JSONL, rotate at a byte budget so the file stays bounded)
and :class:`OpenMetricsSink` (render the latest metrics snapshot as
Prometheus/OpenMetrics text, atomically, for scrapers to poll).

:class:`TelemetryStream` owns the sinks.  It tails a live
:class:`~repro.obs.Tracer` and :meth:`~TelemetryStream.pump` writes the
spans finished since the last pump, plus a throttled registry
snapshot, to every sink and flushes them before it returns.  The exec
supervisor pumps it from unit-completion callbacks — once per unit and
once at the end, about nine times for the eight-benchmark campaign —
so a campaign's live trace grows while the campaign runs, and each
pump's records are on disk when it returns.
"""

from __future__ import annotations

import json
import os
import threading
from typing import IO, Any, Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from .clock import monotonic
from .export import span_to_dict
from .metrics import MetricsRegistry
from .tracing import Tracer

#: Default byte budget per JSONL segment before rotation.
DEFAULT_MAX_BYTES = 8 * 1024 * 1024

#: Default rotated-segment count (``path.1`` .. ``path.N``).
DEFAULT_MAX_FILES = 3

#: Default minimum seconds between metric-snapshot records.
DEFAULT_PUMP_INTERVAL_S = 0.5


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


class RotatingJsonlSink(TelemetrySink):
    """Append telemetry records to a JSONL file with size rotation.

    When the active segment exceeds ``max_bytes`` it is rotated:
    ``path`` becomes ``path.1``, ``path.1`` becomes ``path.2``, and so
    on up to ``max_files`` retained rotated segments (the oldest is
    discarded).  Records that fail to serialize are replaced by an
    ``{"record": "error"}`` marker rather than raised, so one bad
    attribute cannot fail the pump.
    """

    def __init__(self, path: str, max_bytes: int = DEFAULT_MAX_BYTES,
                 max_files: int = DEFAULT_MAX_FILES):
        if max_bytes < 1024:
            raise ConfigurationError(
                f"max_bytes must be >= 1024, got {max_bytes}")
        if max_files < 1:
            raise ConfigurationError(
                f"max_files must be >= 1, got {max_files}")
        self.path = path
        self.max_bytes = int(max_bytes)
        self.max_files = int(max_files)
        self.records_written = 0
        self.rotations = 0
        self._stream: Optional[IO[str]] = open(
            path, "a", encoding="utf-8")
        self._size = self._stream.tell()

    def _rotate(self) -> None:
        if self._stream is None:
            return
        self._stream.close()
        oldest = f"{self.path}.{self.max_files}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.max_files - 1, 0, -1):
            src = f"{self.path}.{index}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._stream = open(self.path, "a", encoding="utf-8")
        self._size = 0
        self.rotations += 1

    def write(self, record: Dict[str, Any]) -> None:
        """Append one record as a JSON line, rotating when over budget."""
        if self._stream is None:
            return
        try:
            line = json.dumps(record, default=str)
        except (TypeError, ValueError):
            line = json.dumps({"record": "error",
                               "reason": "unserializable-record"})
        if self._size + len(line) + 1 > self.max_bytes and self._size:
            self._rotate()
        self._stream.write(line + "\n")
        self._size += len(line) + 1
        self.records_written += 1

    def flush(self) -> None:
        """Flush the active segment to the OS."""
        if self._stream is not None:
            self._stream.flush()

    def close(self) -> None:
        """Flush and close the active segment."""
        if self._stream is not None:
            self._stream.flush()
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

    :meth:`pump` writes every span finished since the previous pump
    (in finish order, by cursor — spans already streamed are never
    re-sent) and, at most once per ``interval_s`` seconds, a fresh
    metrics-snapshot record to each sink, then flushes each sink
    before it returns: everything a pump wrote is on disk when it
    returns, so a run that crashes later keeps it.  Callers invoke it
    from unit-completion callbacks; it is cheap when there is nothing
    new and thread-safe.

    ``pump(final=True)`` bypasses the snapshot throttle so the last
    snapshot of a run is always written.

    A sink whose ``write`` or ``flush`` raises is quarantined for the
    rest of the run (and counted in :attr:`sink_errors`), so telemetry
    can never fail the run it narrates; the other sinks keep receiving
    every record.  :meth:`close` closes every sink; it is idempotent.
    """

    def __init__(self, tracer: Tracer, metrics: MetricsRegistry,
                 sinks: Sequence[TelemetrySink],
                 interval_s: float = DEFAULT_PUMP_INTERVAL_S):
        if interval_s < 0.0:
            raise ConfigurationError(
                f"interval_s must be >= 0, got {interval_s}")
        self._tracer = tracer
        self._metrics = metrics
        self._sinks: List[TelemetrySink] = list(sinks)
        self._dead: List[TelemetrySink] = []
        self._interval_s = float(interval_s)
        self._cursor = 0
        self._seq = 0
        self._last_snapshot_at = -float("inf")
        self._lock = threading.Lock()
        self.sink_errors = 0

    @property
    def spans_streamed(self) -> int:
        """Spans pumped so far (cursor position)."""
        return self._cursor

    def pump(self, final: bool = False) -> int:
        """Write new spans (and maybe a snapshot) to every healthy
        sink and flush them; returns the number of records pumped."""
        with self._lock:
            finished = self._tracer.finished
            # The tracer caps its finished list; if spans were dropped
            # from the front the cursor must not re-send survivors.
            cursor = min(self._cursor, len(finished))
            records = [span_to_dict(span) for span in finished[cursor:]]
            self._cursor = len(finished)
            now = monotonic()
            if final or now - self._last_snapshot_at \
                    >= self._interval_s:
                self._seq += 1
                records.append({"record": "metrics", "seq": self._seq,
                                "snapshot": self._metrics.snapshot()})
                self._last_snapshot_at = now
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
        return len(records)

    def close(self) -> None:
        """Close every sink, quarantined ones included.  Safe to call
        more than once; later pumps write nothing."""
        with self._lock:
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
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MAX_FILES",
    "DEFAULT_PUMP_INTERVAL_S",
    "OpenMetricsSink",
    "RotatingJsonlSink",
    "TelemetrySink",
    "TelemetryStream",
    "metrics_to_openmetrics",
]
