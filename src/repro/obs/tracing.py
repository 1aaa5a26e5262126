"""Hierarchical tracing: spans, span events, exception recording.

A *span* is one timed region of the pipeline — a campaign, one
benchmark, one ladder attempt, one fresh thermal solve — carrying a
``kind`` (the taxonomy key, see docs/OBSERVABILITY.md), an optional
human ``name``, attributes, and nested events.  Spans form a tree via
``parent_id``; the :class:`Tracer` keeps the open-span stack so nesting
falls out of ordinary ``with`` scoping:

    with tracer.span("benchmark", "basicmath"):
        with tracer.span("evaluate", omega=262.0):
            tracer.event("fault.injected", kind="solve-timeout")

Exceptions crossing a span boundary are recorded (``status="error"``
plus the rendered exception) and re-raised, so a trace of a chaos run
shows exactly which solve each injected fault perturbed and how far the
failure propagated.

The :data:`NOOP_TRACER` singleton is the disabled implementation: its
``span`` returns a shared null context manager and every other method
returns immediately, keeping un-traced hot paths at one attribute check
(see :mod:`repro.obs.runtime`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .clock import monotonic

#: Rendered-excerpt default length (spans), newest last.
DEFAULT_EXCERPT_SPANS = 8

#: Cap on retained finished spans; beyond it the oldest are dropped and
#: counted, bounding memory on unattended soaks.
DEFAULT_MAX_SPANS = 200_000


@dataclass
class SpanEvent:
    """One point-in-time event attached to a span.

    Attributes:
        name: Event name (dotted lowercase, e.g. ``fault.injected``).
        time_s: Trace-relative timestamp, s.
        attributes: JSON-friendly event payload.
    """

    name: str
    time_s: float
    attributes: Dict[str, Any] = field(default_factory=dict)


class Span:
    """One timed region of the pipeline.

    Times are trace-relative monotonic seconds (the tracer anchors its
    origin at construction and separately records the wall-clock epoch
    for the exporter).
    """

    __slots__ = ("span_id", "parent_id", "kind", "name", "start_s",
                 "end_s", "attributes", "events", "status", "error")

    def __init__(self, span_id: int, parent_id: Optional[int],
                 kind: str, name: Optional[str], start_s: float,
                 attributes: Dict[str, Any]):
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.name = name
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attributes = attributes
        self.events: List[SpanEvent] = []
        self.status = "ok"
        self.error: Optional[str] = None

    @property
    def duration_s(self) -> float:
        """Span duration, s (0 while still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def finished(self) -> bool:
        """True once the span has ended."""
        return self.end_s is not None

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def add_event(self, name: str, time_s: float, **attributes: Any,
                  ) -> SpanEvent:
        """Attach an event at trace-relative ``time_s`` seconds."""
        event = SpanEvent(name=name, time_s=time_s,
                          attributes=attributes)
        self.events.append(event)
        return event

    def record_exception(self, exc: BaseException) -> None:
        """Mark the span failed with the rendered exception."""
        self.status = "error"
        self.error = f"{type(exc).__name__}: {exc}"

    def render(self) -> str:
        """Compact one-line form (used by failure-report excerpts)."""
        label = self.kind if self.name is None \
            else f"{self.kind}:{self.name}"
        if self.end_s is None:
            timing = "open"
        else:
            timing = f"{self.duration_s:.4f}s"
        text = f"{label} [{timing}] {self.status}"
        if self.error is not None:
            text += f" {self.error}"
        if self.events:
            text += f" ({len(self.events)} events)"
        return text


class _NullSpan:
    """The shared do-nothing span handed out by :class:`NoopTracer`."""

    __slots__ = ()
    kind = ""
    name = None
    status = "ok"
    error = None
    duration_s = 0.0
    finished = False

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def add_event(self, name: str, time_s: float = 0.0,
                  **attributes: Any) -> None:
        pass

    def record_exception(self, exc: BaseException) -> None:
        pass


NOOP_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable context manager yielding :data:`NOOP_SPAN`.

    Stateless, hence safe to share and re-enter; swallowing nothing
    (``__exit__`` returns False) so exceptions propagate unchanged.
    """

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NOOP_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN_CONTEXT = _NullSpanContext()


class Tracer:
    """Collects a hierarchical span tree over one run.

    Single-threaded by design (the solve pipeline is synchronous); the
    open-span stack *is* the hierarchy.  Finished spans accumulate in
    :attr:`finished`, where the session's
    :class:`~repro.obs.TelemetryStream` tails them.
    """

    enabled = True

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS):
        from ..errors import ConfigurationError
        if max_spans < 1:
            raise ConfigurationError(
                f"max_spans must be >= 1, got {max_spans}")
        #: Wall-clock epoch of the trace origin (Unix seconds), for the
        #: exporter's metadata record only; span times are monotonic.
        self.created_unix = time.time()
        self._origin = monotonic()
        self._max_spans = max_spans
        self.finished: List[Span] = []
        #: Events emitted with no span open (exported on a virtual root).
        self.orphan_events: List[SpanEvent] = []
        self.dropped_spans = 0
        self._stack: List[Span] = []
        self._next_id = 1

    # -- clock --------------------------------------------------------

    def now(self) -> float:
        """Trace-relative monotonic time, s."""
        return monotonic() - self._origin

    # -- span lifecycle -----------------------------------------------

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    @property
    def open_span_count(self) -> int:
        """Depth of the open-span stack."""
        return len(self._stack)

    def start_span(self, kind: str, name: Optional[str] = None,
                   **attributes: Any) -> Span:
        """Open a span as a child of the current span and make it
        current.  Prefer the :meth:`span` context manager; this
        explicit form exists for callers whose begin/end do not nest
        lexically."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(span_id=self._next_id, parent_id=parent, kind=kind,
                    name=name, start_s=self.now(),
                    attributes=dict(attributes))
        self._next_id += 1
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close ``span`` (and any deeper spans left open over it)."""
        while self._stack:
            top = self._stack.pop()
            top.end_s = self.now()
            self._keep(top)
            if top is span:
                return
        # Span not on the stack (already closed): nothing to do.

    def _keep(self, span: Span) -> None:
        self.finished.append(span)
        if len(self.finished) > self._max_spans:
            overflow = len(self.finished) - self._max_spans
            del self.finished[:overflow]
            self.dropped_spans += overflow

    @contextmanager
    def span(self, kind: str, name: Optional[str] = None,
             **attributes: Any) -> Iterator[Span]:
        """Context manager: open a child span, record any exception
        crossing the boundary, and close it on exit."""
        span = self.start_span(kind, name, **attributes)
        try:
            yield span
        except BaseException as exc:  # physlint: disable=RPR201
            # Record-and-reraise, not a handler: even KeyboardInterrupt
            # should mark the span failed on its way out, and the bare
            # `raise` below guarantees nothing is swallowed — which is
            # why BaseException is safe here and a narrower catch
            # would silently lose span status.
            span.record_exception(exc)
            raise
        finally:
            self.end_span(span)

    # -- events -------------------------------------------------------

    def event(self, name: str, **attributes: Any) -> None:
        """Attach an event to the current span (or to the trace root
        when no span is open)."""
        current = self.current_span
        if current is not None:
            current.add_event(name, self.now(), **attributes)
        else:
            self.orphan_events.append(SpanEvent(
                name=name, time_s=self.now(), attributes=attributes))

    # -- adoption -----------------------------------------------------

    def adopt_records(self, records: List[Dict[str, Any]],
                      parent: Optional[Span] = None,
                      time_offset: float = 0.0) -> int:
        """Graft exported span records into this tracer's tree.

        ``records`` is a batch of :func:`repro.obs.span_to_dict`
        dictionaries from another tracer — typically one pool worker's
        finished spans, whose ids and clock are meaningless here.  Each
        record gets a fresh id from this tracer, parent links *within*
        the batch are remapped to the fresh ids, batch roots are
        attached to ``parent`` (or to the current span when omitted),
        and all times are shifted by ``time_offset`` so the adopted
        spans land where the unit ran on this tracer's clock.  A record
        whose parent is not in the batch falls back to ``parent``.

        Records are adopted in batch order, which preserves the
        worker's finish order, and count against the max-span cap like
        locally finished spans.  Returns the number adopted.
        """
        if parent is None:
            parent = self.current_span
        default_parent = parent.span_id if parent is not None else None
        # First pass: assign fresh ids to the whole batch.  The batch
        # arrives in finish order (children before parents), so parent
        # remapping has to see every id before any span is built.
        fresh_ids: Dict[int, int] = {}
        for record in records:
            if record["span_id"] not in fresh_ids:
                fresh_ids[record["span_id"]] = self._next_id
                self._next_id += 1
        adopted = 0
        for record in records:
            new_parent = fresh_ids.get(record.get("parent_id"),
                                    default_parent)
            span = Span(
                span_id=fresh_ids[record["span_id"]],
                parent_id=new_parent,
                kind=record["kind"],
                name=record.get("name"),
                start_s=float(record.get("start_s") or 0.0)
                + time_offset,
                attributes=dict(record.get("attributes") or {}))
            end_s = record.get("end_s")
            span.end_s = None if end_s is None \
                else float(end_s) + time_offset
            span.status = record.get("status", "ok")
            span.error = record.get("error")
            for event in record.get("events") or ():
                span.add_event(event["name"],
                               float(event.get("time_s") or 0.0)
                               + time_offset,
                               **(event.get("attributes") or {}))
            self._keep(span)
            adopted += 1
        return adopted

    # -- inspection ---------------------------------------------------

    def spans_of_kind(self, kind: str) -> List[Span]:
        """Finished spans of one kind, in finish order."""
        return [span for span in self.finished if span.kind == kind]

    def excerpt(self, limit: int = DEFAULT_EXCERPT_SPANS) -> List[str]:
        """Compact lines for the most recent finished spans (oldest
        first) — the failure-report attachment."""
        if limit <= 0:
            return []
        return [span.render() for span in self.finished[-limit:]]


class NoopTracer:
    """The disabled tracer: every operation is a constant-time no-op."""

    enabled = False
    finished: List[Span] = []
    orphan_events: List[SpanEvent] = []
    dropped_spans = 0
    current_span = None
    open_span_count = 0

    def now(self) -> float:
        """Always 0 (the noop tracer keeps no clock)."""
        return 0.0

    def span(self, kind: str, name: Optional[str] = None,
             **attributes: Any) -> _NullSpanContext:
        """The shared null context manager."""
        return NULL_SPAN_CONTEXT

    def start_span(self, kind: str, name: Optional[str] = None,
                   **attributes: Any) -> _NullSpan:
        """The shared null span."""
        return NOOP_SPAN

    def end_span(self, span: Any) -> None:
        pass

    def event(self, name: str, **attributes: Any) -> None:
        pass

    def spans_of_kind(self, kind: str) -> List[Span]:
        """Always empty."""
        return []

    def excerpt(self, limit: int = DEFAULT_EXCERPT_SPANS) -> List[str]:
        """Always empty."""
        return []


#: The process-wide disabled tracer (see :mod:`repro.obs.runtime`).
NOOP_TRACER = NoopTracer()


__all__ = [
    "DEFAULT_MAX_SPANS",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "NULL_SPAN_CONTEXT",
    "NoopTracer",
    "Span",
    "SpanEvent",
    "Tracer",
]
