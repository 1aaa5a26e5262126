"""Live campaign progress: per-unit state, throughput, cache, ETA.

:class:`ProgressBoard` is the consumer side of the exec layer's
progress hooks.  The scheduler, supervisor, and serial campaign loops
call the ``unit_*`` methods as units move through their lifecycle
(queued → running → retrying/quarantined → done); the board aggregates
counts, derives throughput and an ETA from completions, folds cache
rates and Krylov work out of the session's metrics snapshot (fed once
per completed unit, after that unit's metrics are merged, so it
always reads campaign totals), and renders to an injected text
stream:

* on a TTY, a single status line continuously rewritten in place
  (carriage return, no scroll);
* otherwise, one full log line at most every ``interval_s`` seconds —
  CI logs get a readable heartbeat instead of control characters.

All hooks are thread-safe (the supervisor calls them from its poll
loop, the serial executor in-line) and cheap enough to invoke per
unit.  The board never owns the stream: callers pass
``sys.stderr`` (the CLI) or a capture buffer (tests) and keep
responsibility for closing it.
"""

from __future__ import annotations

import threading
from typing import IO, Any, Dict, Optional

from ..errors import ConfigurationError
from .clock import monotonic

#: Minimum seconds between non-TTY log lines.
DEFAULT_LOG_INTERVAL_S = 5.0

#: Width budget for the TTY status line (rewritten in place).
_LINE_WIDTH = 110


def _hit_rate(hits: Any, misses: Any) -> Optional[float]:
    hits = float(hits or 0)
    total = hits + float(misses or 0)
    if total <= 0:
        return None
    return hits / total


class ProgressBoard:
    """Aggregates unit lifecycle events and renders a status line.

    Args:
        out: Text stream to render to (never closed by the board).
        total: Expected unit count, when known up front; ``begin``
            can set or revise it.
        interval_s: Minimum seconds between renders when ``out`` is
            not a TTY (TTY renders are throttled to 10 Hz).
        label: Short campaign label shown on every line.
    """

    def __init__(self, out: IO[str], total: int = 0,
                 interval_s: float = DEFAULT_LOG_INTERVAL_S,
                 label: str = "campaign"):
        if interval_s <= 0.0:
            raise ConfigurationError(
                f"interval_s must be > 0, got {interval_s}")
        self._out = out
        self._tty = bool(getattr(out, "isatty", lambda: False)())
        self._interval_s = float(interval_s)
        self._min_render_gap = 0.1 if self._tty else self._interval_s
        self._label = label
        self._lock = threading.Lock()
        self._started_at: Optional[float] = None
        self._last_render_at = -float("inf")
        self._rendered_any = False
        self.total = max(int(total), 0)
        self.done = 0
        self.failed = 0
        self.running = 0
        self.retries = 0
        self.quarantined = 0
        self._cache_rates: Dict[str, float] = {}
        self._krylov: Optional[str] = None

    # -- lifecycle hooks (the exec layer calls these) ------------------

    def begin(self, total: int, label: Optional[str] = None) -> None:
        """Declare (or revise) the unit count before dispatch."""
        with self._lock:
            self.total = max(int(total), 0)
            if label is not None:
                self._label = label
            if self._started_at is None:
                self._started_at = monotonic()
            self._render_locked(force=True)

    def unit_running(self, name: str, attempt: int = 1) -> None:
        """A unit was dispatched to a worker (or started in-process)."""
        with self._lock:
            if self._started_at is None:
                self._started_at = monotonic()
            self.running += 1
            self._render_locked()

    def unit_retrying(self, name: str, attempt: int,
                      reason: Optional[str] = None) -> None:
        """A unit attempt failed and was requeued."""
        with self._lock:
            self.running = max(self.running - 1, 0)
            self.retries += 1
            self._render_locked()

    def unit_quarantined(self, name: str, attempts: int = 0) -> None:
        """A unit exhausted its retry budget and was quarantined."""
        with self._lock:
            self.running = max(self.running - 1, 0)
            self.quarantined += 1
            self._render_locked()

    def unit_done(self, name: str, wall_seconds: float = 0.0,
                  ok: bool = True) -> None:
        """A unit completed (``ok=False`` for isolated failures)."""
        with self._lock:
            self.running = max(self.running - 1, 0)
            self.done += 1
            if not ok:
                self.failed += 1
            self._render_locked()

    def live_metrics(self, snapshot: Dict[str, Any]) -> None:
        """Fold cache rates and the operator's Krylov work out of the
        counters of a cumulative metrics snapshot."""
        counters = snapshot.get("counters") or {}
        with self._lock:
            rate = _hit_rate(counters.get("evaluator.cache.hits"),
                             counters.get("evaluator.cache.misses"))
            if rate is not None:
                self._cache_rates["eval"] = rate
            warm = [counters.get(f"operator.{name}") or 0
                    for name in ("cache_hits", "krylov_solves",
                                 "fresh_factorizations")]
            if any(warm):
                # Imported here: obs sits below the thermal layer.
                from ..thermal.operator import factor_reuse_ratio
                self._cache_rates["factor"] = factor_reuse_ratio(*warm)
            krylov_solves = counters.get("operator.krylov_solves")
            if krylov_solves:
                iterations = counters.get(
                    "operator.krylov_iterations") or 0
                fresh = counters.get(
                    "operator.fresh_factorizations") or 0
                self._krylov = (
                    f"krylov {int(krylov_solves)} solves "
                    f"{iterations / krylov_solves:.1f} it/solve "
                    f"{int(fresh)} fresh factors")
            self._render_locked()

    def finish(self) -> None:
        """Render the final state and terminate the TTY line."""
        with self._lock:
            self._render_locked(force=True)
            if self._tty and self._rendered_any:
                self._out.write("\n")
                self._out.flush()

    # -- derived state -------------------------------------------------

    def throughput(self) -> float:
        """Completed units per second (0 before the first completion)."""
        if self._started_at is None or not self.done:
            return 0.0
        elapsed = monotonic() - self._started_at
        return self.done / elapsed if elapsed > 0 else 0.0

    def eta_s(self) -> Optional[float]:
        """Estimated seconds to completion, None while unknowable."""
        rate = self.throughput()
        if rate <= 0.0 or self.total <= 0:
            return None
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        return remaining / rate

    # -- rendering -----------------------------------------------------

    def status_line(self) -> str:
        """The current one-line status (also what gets rendered)."""
        total = str(self.total) if self.total else "?"
        parts = [f"{self._label}: {self.done}/{total}"]
        if self.running:
            parts.append(f"{self.running} running")
        if self.retries:
            parts.append(f"{self.retries} retried")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.failed:
            parts.append(f"{self.failed} failed")
        rate = self.throughput()
        if rate > 0.0:
            parts.append(f"{rate:.2f} unit/s")
        for key in sorted(self._cache_rates):
            parts.append(
                f"{key} cache {self._cache_rates[key] * 100.0:.0f}%")
        if self._krylov is not None:
            parts.append(self._krylov)
        eta = self.eta_s()
        if eta is not None and self.done < self.total:
            parts.append(f"ETA {eta:.0f}s")
        return " | ".join(parts)

    def _render_locked(self, force: bool = False) -> None:
        now = monotonic()
        if not force and now - self._last_render_at \
                < self._min_render_gap:
            return
        self._last_render_at = now
        line = self.status_line()
        if self._tty:
            text = line[:_LINE_WIDTH]
            self._out.write("\r" + text.ljust(_LINE_WIDTH))
        else:
            self._out.write(line + "\n")
        self._out.flush()
        self._rendered_any = True


__all__ = [
    "DEFAULT_LOG_INTERVAL_S",
    "ProgressBoard",
]
