"""Metrics registry: instruments, bucket semantics, thread safety."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    is_timing_metric,
)
from repro.runtime import ExecutionPolicy, parallel_map


class TestCounters:
    def test_increments_accumulate(self):
        counter = MetricsRegistry().counter("events")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_same_identity_shares_the_instrument(self):
        registry = MetricsRegistry()
        registry.counter("events").inc()
        registry.counter("events").inc()
        assert registry.counter("events").value == 2

    def test_labels_discriminate_series(self):
        registry = MetricsRegistry()
        registry.counter("findings", code="DAS001").inc()
        registry.counter("findings", code="DAS002").inc(2)
        assert registry.counter("findings", code="DAS001").value == 1
        assert registry.counter("findings", code="DAS002").value == 2

    def test_negative_increment_rejected(self):
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            MetricsRegistry().counter("events").inc(-1)


class TestGauges:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("utilization")
        gauge.set(0.5)
        gauge.set(0.75)
        assert gauge.value == 0.75


class TestHistogramBuckets:
    """Satellite: exact-edge, below-first, and above-last semantics."""

    BOUNDS = (1.0, 2.0, 5.0)

    def _histogram(self):
        return MetricsRegistry().histogram("lat", buckets=self.BOUNDS)

    def test_value_on_exact_edge_lands_in_that_bucket(self):
        histogram = self._histogram()
        for edge in self.BOUNDS:
            histogram.observe(edge)
        assert histogram.counts == [1, 1, 1, 0]

    def test_below_first_bound_lands_in_first_bucket(self):
        histogram = self._histogram()
        histogram.observe(0.0)
        histogram.observe(-3.0)
        histogram.observe(0.999)
        assert histogram.counts == [3, 0, 0, 0]

    def test_above_last_bound_lands_in_overflow(self):
        histogram = self._histogram()
        histogram.observe(5.0001)
        histogram.observe(1e9)
        assert histogram.counts == [0, 0, 0, 2]

    def test_interior_values_bin_by_upper_bound(self):
        histogram = self._histogram()
        histogram.observe(1.5)
        histogram.observe(4.9)
        assert histogram.counts == [0, 1, 1, 0]

    def test_count_and_sum_track_observations(self):
        histogram = self._histogram()
        for value in (0.5, 2.0, 10.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(12.5)
        assert sum(histogram.counts) == histogram.count

    def test_counts_has_one_slot_per_bound_plus_overflow(self):
        assert len(self._histogram().counts) == len(self.BOUNDS) + 1
        default = MetricsRegistry().histogram("t_seconds")
        assert len(default.counts) == len(DEFAULT_BUCKETS) + 1

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ObservabilityError, match="ascend"):
            MetricsRegistry().histogram("bad", buckets=(2.0, 1.0))

    def test_empty_bounds_rejected(self):
        with pytest.raises(ObservabilityError, match="at least one"):
            MetricsRegistry().histogram("bad", buckets=())

    def test_rebinning_under_same_identity_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 2.0))
        registry.histogram("lat", buckets=(1.0, 2.0))  # same is fine
        with pytest.raises(ObservabilityError, match="already exists"):
            registry.histogram("lat", buckets=(1.0, 3.0))


class TestThreadSafety:
    """Satellite: concurrent increments from thread workers lose
    no updates."""

    def test_concurrent_counter_increments_all_land(self):
        registry = MetricsRegistry()
        counter = registry.counter("stress")
        increments_per_task = 500

        def work(task: int) -> int:
            for _ in range(increments_per_task):
                counter.inc()
            return task

        n_tasks = 16
        results = parallel_map(work, list(range(n_tasks)),
                               ExecutionPolicy.threads(8))
        assert results == list(range(n_tasks))
        assert counter.value == n_tasks * increments_per_task

    def test_concurrent_histogram_observations_all_land(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("stress_lat", buckets=(10.0,))

        def work(task: int) -> int:
            for _ in range(200):
                histogram.observe(1.0)
            return task

        parallel_map(work, list(range(8)), ExecutionPolicy.threads(4))
        assert histogram.count == 8 * 200
        assert histogram.counts == [8 * 200, 0]


class TestSnapshot:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("b.events").inc(3)
        registry.counter("a.events").inc(1)
        registry.gauge("pool_utilization").set(0.8)
        registry.histogram("chunk_seconds",
                           buckets=(0.1, 1.0)).observe(0.05)
        return registry

    def test_series_sorted_by_name_then_labels(self):
        snapshot = self._populated().snapshot()
        assert [c["name"] for c in snapshot["counters"]] == \
            ["a.events", "b.events"]

    def test_snapshot_is_json_serialisable(self):
        json.dumps(self._populated().snapshot())

    def test_to_json_bytes_deterministic(self):
        registry = self._populated()
        assert (registry.to_json_bytes(deterministic=True)
                == registry.to_json_bytes(deterministic=True))
        assert registry.to_json_bytes().endswith(b"\n")

    def test_timing_suffixes(self):
        assert is_timing_metric("chunk_seconds")
        assert is_timing_metric("worker_utilization")
        assert not is_timing_metric("events")

    def test_deterministic_mode_normalizes_timing_instruments(self):
        registry = self._populated()
        snapshot = registry.snapshot(deterministic=True)
        gauge = snapshot["gauges"][0]
        assert gauge["name"] == "pool_utilization"
        assert gauge["value"] == 0.0
        histogram = snapshot["histograms"][0]
        assert histogram["sum"] == 0.0
        assert histogram["counts"] == [0, 0, 0]
        # The observation count is run-invariant evidence and survives.
        assert histogram["count"] == 1

    def test_deterministic_mode_keeps_counting_instruments(self):
        snapshot = self._populated().snapshot(deterministic=True)
        values = {c["name"]: c["value"] for c in snapshot["counters"]}
        assert values == {"a.events": 1, "b.events": 3}
