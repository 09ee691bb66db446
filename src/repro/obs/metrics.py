"""Metrics: counters, gauges, and fixed-bucket histograms.

The quantitative half of the observability layer: where spans record
*structure* (what nested under what, for how long), metrics record
*totals* — events reconstructed, conditions payloads read, lint
findings per rule, chunk latencies. A :class:`MetricsRegistry` owns
every instrument, keyed by ``(name, label set)``, and snapshots to
deterministic JSON.

Determinism convention: instruments whose name ends in ``_seconds`` or
``_utilization`` carry timing-derived values and are **normalized away**
in a deterministic snapshot (values and bucket occupancies zeroed,
observation *counts* kept — the count of observations is a property of
the computation, their durations are a property of the machine). All
other instruments must hold run-invariant values for the deterministic
export guarantee to hold; counting events satisfies that, sampling
clocks does not.

Counter increments are lock-protected so thread-pool workers
(``ExecutionPolicy(mode="thread")``) can share a registry without losing
updates; process-pool workers each see a copy-on-write clone and must
report totals back through their return values instead.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass

from repro.core.canonical import canonical_document
from repro.errors import ObservabilityError

#: Default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)

#: Name suffixes marking timing-derived instruments (normalized away in
#: deterministic snapshots).
TIMING_SUFFIXES = ("_seconds", "_utilization")


def is_timing_metric(name: str) -> bool:
    """True when ``name`` denotes a timing-derived instrument."""
    return name.endswith(TIMING_SUFFIXES)


def _label_key(labels: dict) -> tuple:
    """Canonical, hashable form of one label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class _Instrument:
    """Shared identity of every metric: a name plus a label set."""

    name: str
    labels: tuple

    def label_dict(self) -> dict:
        """The label set as a plain dict for export."""
        return {key: value for key, value in self.labels}


class Counter(_Instrument):
    """A monotonically increasing event count."""

    def __init__(self, name: str, labels: tuple) -> None:
        super().__init__(name=name, labels=labels)
        self._lock = threading.Lock()
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (>= 0) to the count; thread-safe."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        with self._lock:
            self.value += amount


class Gauge(_Instrument):
    """A point-in-time value (last write wins)."""

    def __init__(self, name: str, labels: tuple) -> None:
        super().__init__(name=name, labels=labels)
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value; thread-safe."""
        with self._lock:
            self.value = float(value)


class Histogram(_Instrument):
    """A fixed-bucket distribution of observed values.

    ``buckets`` are ascending *inclusive* upper bounds: an observation
    lands in the first bucket whose bound is >= the value (a value on
    an exact edge belongs to that edge's bucket); values above the last
    bound land in the overflow bucket. Bounds are fixed at creation so
    two runs of the same workload always bin identically.
    """

    def __init__(self, name: str, labels: tuple,
                 buckets: tuple = DEFAULT_BUCKETS) -> None:
        super().__init__(name=name, labels=labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError(
                f"histogram {name!r} needs at least one bucket bound"
            )
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {name!r} bounds must strictly ascend, "
                f"got {bounds}"
            )
        self.buckets = bounds
        self._lock = threading.Lock()
        #: One count per bound, plus the trailing overflow bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation; thread-safe."""
        value = float(value)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.sum += value

    def quantile(self, q: float) -> float:
        """The bucket upper bound covering the ``q``-quantile.

        A fixed-bucket histogram cannot recover exact sample values, so
        the readout is the *bound* of the bucket the quantile rank
        falls in — deterministic (no interpolation, no machine
        dependence) and conservative (never under-reports). Overflow
        observations answer ``inf``; an empty histogram answers 0.0.

        >>> h = Histogram("h", (), buckets=(1.0, 2.0, 4.0))
        >>> for v in (0.5, 1.5, 1.5, 3.0):
        ...     h.observe(v)
        >>> h.quantile(0.5)
        2.0
        >>> h.quantile(1.0)
        4.0
        """
        if not 0.0 < q <= 1.0:
            raise ObservabilityError(
                f"quantile must be in (0, 1], got {q}"
            )
        with self._lock:
            total = self.count
            counts = list(self.counts)
        if total == 0:
            return 0.0
        # The 1-based rank of the order statistic the quantile names.
        rank = max(1, math.ceil(q * total))
        running = 0
        for index, bound in enumerate(self.buckets):
            running += counts[index]
            if running >= rank:
                return bound
        return float("inf")


class MetricsRegistry:
    """The per-run home of every instrument.

    Instruments are created on first use and shared thereafter:
    ``registry.counter("reco.events").inc()`` anywhere in the chain
    increments one count. Labels discriminate series under one name —
    ``registry.counter("lint.findings", code="DAS001")``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    def counter(self, name: str, **labels) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        key = (name, _label_key(labels))
        with self._lock:
            if key not in self._counters:
                self._counters[key] = Counter(name, _label_key(labels))
            return self._counters[key]

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        key = (name, _label_key(labels))
        with self._lock:
            if key not in self._gauges:
                self._gauges[key] = Gauge(name, _label_key(labels))
            return self._gauges[key]

    def histogram(self, name: str, buckets: tuple = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``.

        ``buckets`` only takes effect at creation; a later caller asking
        for different bounds under the same identity is a bug.
        """
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._histograms.get(key)
            if existing is None:
                existing = Histogram(name, _label_key(labels), buckets)
                self._histograms[key] = existing
            elif existing.buckets != tuple(float(b) for b in buckets):
                raise ObservabilityError(
                    f"histogram {name!r} already exists with bounds "
                    f"{existing.buckets}"
                )
            return existing

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self, *, deterministic: bool = False) -> dict:
        """The registry as one deterministic JSON-serialisable dict.

        Series are sorted by ``(name, labels)``; in deterministic mode,
        timing-derived instruments keep their observation counts but
        lose their machine-dependent values (see the module docstring).
        """
        with self._lock:
            counters = sorted(self._counters.values(),
                              key=lambda m: (m.name, m.labels))
            gauges = sorted(self._gauges.values(),
                            key=lambda m: (m.name, m.labels))
            histograms = sorted(self._histograms.values(),
                                key=lambda m: (m.name, m.labels))
        record: dict = {"counters": [], "gauges": [], "histograms": []}
        for counter in counters:
            record["counters"].append({
                "name": counter.name,
                "labels": counter.label_dict(),
                "value": counter.value,
            })
        for gauge in gauges:
            value = gauge.value
            if deterministic and is_timing_metric(gauge.name):
                value = 0.0
            record["gauges"].append({
                "name": gauge.name,
                "labels": gauge.label_dict(),
                "value": value,
            })
        for histogram in histograms:
            timing = deterministic and is_timing_metric(histogram.name)
            record["histograms"].append({
                "name": histogram.name,
                "labels": histogram.label_dict(),
                "buckets": list(histogram.buckets),
                "counts": ([0] * len(histogram.counts) if timing
                           else list(histogram.counts)),
                "count": histogram.count,
                "sum": 0.0 if timing else histogram.sum,
            })
        return record

    def to_json_bytes(self, *, deterministic: bool = False) -> bytes:
        """Deterministic bytes: sorted keys, fixed indent, one LF."""
        return canonical_document(self.snapshot(deterministic=deterministic))
