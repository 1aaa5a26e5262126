"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the numeric half of the telemetry plane (spans are the
structural half): every instrumented seam increments a named counter or
observes a duration, and :meth:`MetricsRegistry.snapshot` flattens the
whole state into a JSON-friendly dictionary that rides along in results
files (the ``"telemetry"`` block of a campaign JSON).

Naming convention: dotted lowercase paths, with the unit as the final
suffix where one applies (``operator.solve_seconds``,
``campaign.wall_seconds``); bare counts carry no suffix
(``evaluator.cache.hits``).  See docs/OBSERVABILITY.md for the full
metric table.

Disabled-path cost: the module-level :data:`NOOP_METRICS` singleton
hands out shared do-nothing instruments, so un-instrumented runs pay a
single attribute check per seam (see :mod:`repro.obs.runtime`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError

Number = Union[int, float]

#: Default histogram bucket upper bounds for durations, seconds.
#: Spans five decades: sub-100-microsecond sparse back-substitutions up
#: to multi-minute campaign walls.
DEFAULT_TIME_BUCKETS_S: Tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0,
    30.0, 100.0, 300.0)

#: Default buckets for small iteration counts (leakage fixed-point
#: loops converge in single digits; the tail marks trouble).
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0)


class Counter:
    """A monotonically increasing count or sum (e.g. of seconds)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: Number) -> None:
        """Record the current value of the gauge."""
        self.value = float(value)


class Histogram:
    """A fixed-bucket histogram with count/sum/min/max.

    ``buckets`` are ascending upper bounds; observations above the last
    bound land in the implicit overflow bucket.  Bucket counts are
    cumulative at snapshot time (Prometheus-style), exact per-bucket in
    memory.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_TIME_BUCKETS_S):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError(
                f"histogram {name!r} needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name!r} bucket bounds must be strictly "
                f"ascending, got {bounds}")
        self.name = name
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: Number) -> None:
        """Record one observation (in the histogram's native unit)."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: Number = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: Number) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: Number) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetrics:
    """The disabled registry: every instrument is a shared no-op."""

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        """A shared no-op counter."""
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        """A shared no-op gauge."""
        return _NULL_GAUGE

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  ) -> _NullHistogram:
        """A shared no-op histogram."""
        return _NULL_HISTOGRAM

    def snapshot(self) -> dict:
        """Always empty."""
        return {}


#: The process-wide disabled registry (see :mod:`repro.obs.runtime`).
NOOP_METRICS = NullMetrics()


class MetricsRegistry:
    """Named counters, gauges, and histograms, created on first use.

    A name is bound to one instrument type for the registry's lifetime;
    re-requesting it with a different type raises
    :class:`~repro.errors.ConfigurationError` (silent shadowing would
    corrupt the snapshot).
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_free(self, name: str, kind: str) -> None:
        for type_name, table in (("counter", self._counters),
                                 ("gauge", self._gauges),
                                 ("histogram", self._histograms)):
            if type_name != kind and name in table:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a "
                    f"{type_name}; cannot re-register as a {kind}")

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            self._check_free(name, "counter")
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        gauge = self._gauges.get(name)
        if gauge is None:
            self._check_free(name, "gauge")
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  ) -> Histogram:
        """Get or create the histogram ``name``.

        ``buckets`` (ascending upper bounds, in the metric's unit) only
        applies on first creation; later calls reuse the existing
        instrument regardless.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            self._check_free(name, "histogram")
            histogram = self._histograms[name] = Histogram(
                name, buckets if buckets is not None
                else DEFAULT_TIME_BUCKETS_S)
        return histogram

    def names(self) -> List[str]:
        """Every registered metric name, sorted."""
        return sorted([*self._counters, *self._gauges,
                       *self._histograms])

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Used by the ``repro.exec`` scheduler to aggregate per-worker
        metrics: counters add exactly (integer counts and float
        seconds alike), gauges take the incoming value (last write
        wins, matching :meth:`Gauge.set`), histograms add
        per-bucket counts plus count/sum and widen min/max.  Instruments
        absent here are created; a histogram that exists with different
        bucket bounds raises
        :class:`~repro.errors.ConfigurationError` (summing mismatched
        buckets would silently corrupt the distribution).
        """
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).inc(value)
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(name).set(value)
        for name, entry in (snapshot.get("histograms") or {}).items():
            bounds = tuple(float(pair[0])
                           for pair in entry.get("buckets") or ())
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self.histogram(
                    name, bounds or DEFAULT_TIME_BUCKETS_S)
            if histogram.buckets != (bounds or histogram.buckets):
                raise ConfigurationError(
                    f"histogram {name!r} bucket bounds differ between "
                    f"registries: {histogram.buckets} vs {bounds}")
            for index, pair in enumerate(entry.get("buckets") or ()):
                histogram.bucket_counts[index] += int(pair[1])
            histogram.bucket_counts[-1] += int(
                entry.get("overflow") or 0)
            count = int(entry.get("count") or 0)
            histogram.count += count
            histogram.total += float(entry.get("sum") or 0.0)
            if count:
                histogram.min = min(histogram.min,
                                    float(entry["min"]))
                histogram.max = max(histogram.max,
                                    float(entry["max"]))

    def snapshot(self) -> dict:
        """Flatten the registry into a JSON-friendly dictionary.

        Layout::

            {"counters": {name: value},
             "gauges": {name: value},
             "histograms": {name: {"count", "sum", "mean", "min",
                                   "max", "buckets": [[bound, n], ...],
                                   "overflow": n}}}

        Histogram ``min``/``max`` are omitted while empty (they are
        sentinels, not observations).
        """
        histograms = {}
        for name, histogram in self._histograms.items():
            entry: dict = {
                "count": histogram.count,
                "sum": histogram.total,
                "mean": histogram.mean,
                "buckets": [[bound, count] for bound, count
                            in zip(histogram.buckets,
                                   histogram.bucket_counts)],
                "overflow": histogram.bucket_counts[-1],
            }
            if histogram.count:
                entry["min"] = histogram.min
                entry["max"] = histogram.max
            histograms[name] = entry
        return {
            "counters": {name: counter.value for name, counter
                         in sorted(self._counters.items())},
            "gauges": {name: gauge.value for name, gauge
                       in sorted(self._gauges.items())},
            "histograms": dict(sorted(histograms.items())),
        }


__all__ = [
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_TIME_BUCKETS_S",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_METRICS",
    "NullMetrics",
]
