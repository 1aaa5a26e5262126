"""Trace format and summarization: JSONL records, reader, text tree.

A trace file is one JSON object per line, appended while the run goes
by the session's :class:`~repro.obs.TelemetryStream`:

* the first line is a ``{"record": "meta", ...}`` header carrying the
  format version and the wall-clock epoch of the trace origin;
* ``{"record": "span", ...}`` lines (see :func:`span_to_dict`) follow
  in finish order, each pump's batch followed by one
  ``{"record": "metrics", ...}`` registry snapshot;
* a finished run ends with the orphan events on a virtual root span of
  kind ``trace`` with ``span_id`` 0 (when there are any) and one
  ``{"record": "end", ...}`` line with the span, dropped-span and
  open-span counts.

:func:`read_trace_jsonl` keeps the span records only, so a file can be
read at any point of the run.  ``repro trace summarize FILE`` renders
per-span-kind count / total / p50 / p95 as a tree, nesting each kind
under the kind that most often parents it — close to the runtime
hierarchy without needing every span to agree.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..errors import ConfigurationError
from ..units import s_to_ms
from .tracing import Span, Tracer

#: Bumped when the JSONL layout changes incompatibly.
TRACE_FORMAT_VERSION = 2

#: Virtual root span id used for orphan events in exported traces.
ROOT_SPAN_ID = 0


def span_to_dict(span: Span) -> Dict[str, Any]:
    """One span as a JSON-friendly record."""
    record: Dict[str, Any] = {
        "record": "span",
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "kind": span.kind,
        "name": span.name,
        "start_s": span.start_s,
        "end_s": span.end_s,
        "duration_s": span.duration_s,
        "status": span.status,
    }
    if span.error is not None:
        record["error"] = span.error
    if span.attributes:
        record["attributes"] = span.attributes
    if span.events:
        record["events"] = [
            {"name": event.name, "time_s": event.time_s,
             "attributes": event.attributes}
            for event in span.events]
    return record


def meta_record(tracer: Tracer) -> Dict[str, Any]:
    """The header line of a trace file."""
    return {
        "record": "meta",
        "format": TRACE_FORMAT_VERSION,
        "created_unix": tracer.created_unix,
    }


def orphan_root_record(tracer: Tracer) -> Optional[Dict[str, Any]]:
    """The virtual root span carrying the tracer's orphan events, or
    None when there are none."""
    if not tracer.orphan_events:
        return None
    return {
        "record": "span",
        "span_id": ROOT_SPAN_ID,
        "parent_id": None,
        "kind": "trace",
        "name": None,
        "start_s": 0.0,
        "end_s": None,
        "duration_s": 0.0,
        "status": "ok",
        "events": [
            {"name": event.name, "time_s": event.time_s,
             "attributes": event.attributes}
            for event in tracer.orphan_events],
    }


#: Record types a reader skips: the header, the per-pump metrics
#: snapshots and the end-of-run counts.
_NON_SPAN_RECORDS = frozenset({"meta", "metrics", "end"})


def read_trace_jsonl(lines: Iterable[str]) -> List[Dict[str, Any]]:
    """Parse JSONL trace lines into span records.

    Returns the span records only (meta, metrics and end records are
    skipped), so a trace still being written reads as the spans
    streamed so far.  Raises :class:`~repro.errors.ConfigurationError` on
    malformed input so the CLI can map it to the usual exit code.
    """
    spans: List[Dict[str, Any]] = []
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"trace line {number} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise ConfigurationError(
                f"trace line {number} is not a JSON object")
        record_type = record.get("record")
        if record_type in _NON_SPAN_RECORDS:
            continue
        if record_type != "span":
            raise ConfigurationError(
                f"trace line {number} has unknown record type "
                f"{record_type!r}")
        if "kind" not in record or "span_id" not in record:
            raise ConfigurationError(
                f"trace line {number} span record is missing "
                f"kind/span_id")
        spans.append(record)
    return spans


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Read span records from a JSONL trace file."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            return read_trace_jsonl(stream)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read trace file {path!r}: {exc}") from exc


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def summarize_spans(spans: Sequence[Dict[str, Any]],
                    ) -> Dict[str, Dict[str, Any]]:
    """Aggregate span records per kind.

    Returns ``{kind: {count, errors, events, total_s, p50_s, p95_s,
    parent_kind}}`` where ``parent_kind`` is the kind that most often
    parents this one (None for roots), used by the tree renderer.
    """
    by_id = {record["span_id"]: record for record in spans}
    durations: Dict[str, List[float]] = {}
    errors: Dict[str, int] = {}
    events: Dict[str, int] = {}
    parent_votes: Dict[str, Dict[Optional[str], int]] = {}
    for record in spans:
        kind = record["kind"]
        durations.setdefault(kind, []).append(
            float(record.get("duration_s") or 0.0))
        errors[kind] = errors.get(kind, 0) + (
            1 if record.get("status") == "error" else 0)
        events[kind] = events.get(kind, 0) + len(
            record.get("events") or ())
        parent = by_id.get(record.get("parent_id"))
        parent_kind = parent["kind"] if parent is not None else None
        votes = parent_votes.setdefault(kind, {})
        votes[parent_kind] = votes.get(parent_kind, 0) + 1
    summary: Dict[str, Dict[str, Any]] = {}
    for kind, values in durations.items():
        ordered = sorted(values)
        votes = parent_votes[kind]
        parent_kind = max(votes, key=lambda key: votes[key])
        if parent_kind == kind:  # self-parenting cannot render as a tree
            parent_kind = None
        summary[kind] = {
            "count": len(ordered),
            "errors": errors[kind],
            "events": events[kind],
            "total_s": sum(ordered),
            "p50_s": _percentile(ordered, 50.0),
            "p95_s": _percentile(ordered, 95.0),
            "parent_kind": parent_kind,
        }
    return summary


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{s_to_ms(seconds):.2f}ms"


def format_trace_summary(spans: Sequence[Dict[str, Any]]) -> str:
    """Render the per-kind summary as a text tree.

    Each line shows ``kind  count  total  p50  p95`` (plus error and
    event counts when nonzero); kinds nest under their majority parent
    kind.
    """
    summary = summarize_spans(spans)
    if not summary:
        return "trace: no spans"
    children: Dict[Optional[str], List[str]] = {}
    for kind, entry in summary.items():
        parent = entry["parent_kind"]
        if parent is not None and parent not in summary:
            parent = None
        children.setdefault(parent, []).append(kind)
    for bucket in children.values():
        bucket.sort()
    lines = [f"trace: {sum(e['count'] for e in summary.values())} "
             f"spans, {len(summary)} kinds"]

    def emit(kind: str, depth: int) -> None:
        entry = summary[kind]
        indent = "  " * depth
        text = (f"{indent}{kind:<{max(24 - 2 * depth, 1)}} "
                f"n={entry['count']:<6} "
                f"total={_format_duration(entry['total_s']):<10} "
                f"p50={_format_duration(entry['p50_s']):<10} "
                f"p95={_format_duration(entry['p95_s'])}")
        if entry["errors"]:
            text += f"  errors={entry['errors']}"
        if entry["events"]:
            text += f"  events={entry['events']}"
        lines.append(text)
        for child in children.get(kind, ()):  # depth-first
            emit(child, depth + 1)

    for root in children.get(None, ()):
        emit(root, 0)
    return "\n".join(lines)


__all__ = [
    "ROOT_SPAN_ID",
    "TRACE_FORMAT_VERSION",
    "format_trace_summary",
    "load_trace",
    "meta_record",
    "orphan_root_record",
    "read_trace_jsonl",
    "span_to_dict",
    "summarize_spans",
]
