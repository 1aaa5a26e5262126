"""Process-wide telemetry state and the hot-path access helpers.

One mutable holder (:data:`STATE`) carries the active tracer and
metrics registry.  Both default to the shared no-op singletons, so the
cost of an un-instrumented run is a single attribute check per seam:

    from ..obs import runtime as _OBS

    if _OBS.STATE.enabled:
        _OBS.STATE.metrics.counter("operator.cache.hits").inc()

Enablement is all-or-nothing by design — the pipeline seams are cheap
enough that separately toggling tracing and metrics buys nothing but
matrix-testing surface.  :func:`telemetry_session` is the frontend used
by the CLI and tests: it installs a fresh ``(Tracer, MetricsRegistry)``
pair, yields them, and restores the previous state on exit even when
the traced run fails.  Given sinks, the session also owns one
:class:`~repro.obs.live.TelemetryStream` writing them while the run
goes; :func:`pump` advances it.

Process semantics (see docs/PARALLELISM.md): :data:`STATE` is
per-process.  Under the ``spawn`` start method a worker imports this
module fresh and starts disabled; under ``fork`` the child would
inherit a copy of the parent's *enabled* state pointing at a tracer
the parent can never read back (and at the parent's open trace
file), so an ``os.register_at_fork`` hook resets forked children to
the disabled no-op state, stream dropped.  Workers that want
telemetry open their own :func:`telemetry_session` and ship the
exported spans/snapshot home (the ``repro.exec`` scheduler re-parents
them under the coordinating span).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple, TypeVar

from .live import TelemetrySink, TelemetryStream
from .metrics import NOOP_METRICS, MetricsRegistry
from .tracing import NOOP_TRACER, NULL_SPAN_CONTEXT, Tracer

F = TypeVar("F", bound=Callable[..., Any])


class ObsState:
    """The mutable holder for the active telemetry backends.

    ``enabled`` is the single hot-path flag: True exactly when a real
    tracer/registry pair is installed.  ``stream`` is the session's
    telemetry stream, None when the session has no sinks.
    """

    __slots__ = ("tracer", "metrics", "stream", "enabled")

    def __init__(self) -> None:
        self.tracer = NOOP_TRACER
        self.metrics = NOOP_METRICS
        self.stream: Optional[TelemetryStream] = None
        self.enabled = False


#: The process-wide telemetry state.  Read it through the accessors
#: below (or directly on hot paths, guarded by ``STATE.enabled``).
STATE = ObsState()


def get_tracer():
    """The active tracer (the no-op singleton when disabled)."""
    return STATE.tracer


def get_metrics():
    """The active metrics registry (the no-op singleton when disabled)."""
    return STATE.metrics


def is_enabled() -> bool:
    """True when a real telemetry session is installed."""
    return STATE.enabled


def install(tracer: Optional[Tracer] = None,
            metrics: Optional[MetricsRegistry] = None,
            ) -> Tuple[Tracer, MetricsRegistry]:
    """Install (and return) an active tracer/registry pair.

    Omitted arguments get fresh instances.  Prefer
    :func:`telemetry_session` outside of long-lived embeddings — it
    restores the previous state on exit.
    """
    active_tracer = tracer if tracer is not None else Tracer()
    active_metrics = metrics if metrics is not None \
        else MetricsRegistry()
    STATE.tracer = active_tracer
    STATE.metrics = active_metrics
    STATE.enabled = True
    return active_tracer, active_metrics


def reset() -> None:
    """Return to the disabled (no-op) state."""
    STATE.tracer = NOOP_TRACER
    STATE.metrics = NOOP_METRICS
    STATE.stream = None
    STATE.enabled = False


def _reset_after_fork() -> None:
    """Drop inherited telemetry state in a forked child.

    A fork clones an enabled parent's tracer into the child, where
    every span it records is invisible to the parent — worse than
    useless, because the child pays the tracing cost for data nobody
    can collect — and the parent's stream, whose trace file the child
    must never write or close.  Children therefore start disabled and
    opt back in with their own :func:`telemetry_session` (which the
    ``repro.exec`` worker shim does when the coordinator asked for
    telemetry).
    """
    reset()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_reset_after_fork)


@contextmanager
def telemetry_session(tracer: Optional[Tracer] = None,
                      metrics: Optional[MetricsRegistry] = None,
                      sinks: Sequence[TelemetrySink] = (),
                      ) -> Iterator[Tuple[Tracer, MetricsRegistry]]:
    """Enable telemetry for the enclosed block.

    Yields the installed ``(tracer, metrics)`` pair and restores the
    previous state afterwards, so sessions nest and a failing traced
    run cannot leak an enabled tracer into later work.

    With ``sinks`` (a :class:`~repro.obs.JsonlTraceSink` for a trace
    file, an :class:`~repro.obs.OpenMetricsSink`) the session owns a
    :class:`~repro.obs.TelemetryStream` that writes the trace header
    now, advances on each :func:`pump`, and is closed — final pump,
    end record — when the block exits, failing or not.

    Safe to open inside pool workers: each process has its own
    :data:`STATE` (fork-inherited copies are reset by the at-fork
    hook), so a worker session never races the coordinator's.  Export
    the finished spans and a metrics snapshot before the worker
    returns — in-memory state dies with the process.
    """
    previous = (STATE.tracer, STATE.metrics, STATE.stream,
                STATE.enabled)
    pair = install(tracer, metrics)
    stream = TelemetryStream(*pair, sinks) if sinks else None
    STATE.stream = stream
    try:
        yield pair
    finally:
        if stream is not None:
            stream.close()
        STATE.tracer, STATE.metrics, STATE.stream, STATE.enabled = \
            previous


def pump() -> None:
    """Write what the session's stream has not yet written (no-op
    without a stream)."""
    stream = STATE.stream
    if stream is not None:
        stream.pump()


def span(kind: str, name: Optional[str] = None, **attributes: Any):
    """A span context manager on the active tracer.

    The disabled path returns the shared null context manager without
    touching the tracer — suitable for warm seams.  The hottest loops
    guard on ``STATE.enabled`` directly instead.
    """
    if STATE.enabled:
        return STATE.tracer.span(kind, name, **attributes)
    return NULL_SPAN_CONTEXT


def event(name: str, **attributes: Any) -> None:
    """Attach an event to the current span of the active tracer."""
    if STATE.enabled:
        STATE.tracer.event(name, **attributes)


def traced(kind: str, name: Optional[str] = None) -> Callable[[F], F]:
    """Decorator form of :func:`span`.

    Wraps the function body in a span of ``kind`` (named after the
    function unless ``name`` is given).  The wrapper adds one flag
    check when telemetry is disabled.
    """
    import functools

    def decorate(func: F) -> F:
        span_name = name if name is not None else func.__name__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not STATE.enabled:
                return func(*args, **kwargs)
            with STATE.tracer.span(kind, span_name):
                return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


__all__ = [
    "ObsState",
    "STATE",
    "event",
    "get_metrics",
    "get_tracer",
    "install",
    "is_enabled",
    "pump",
    "reset",
    "span",
    "telemetry_session",
    "traced",
]
