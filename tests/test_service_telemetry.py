"""Service telemetry wiring, default SLOs, and registry determinism."""

import math

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.recast import ModelSpec
from repro.runtime import ExecutionPolicy, parallel_map
from repro.service import (
    CrashingBackend,
    RecastService,
    ServiceConfig,
    TenantQuota,
    default_service_slo,
    demo_api,
    demo_script,
    run_script,
)
from repro.obs.slo import evaluate_slo
from repro.obs.telemetry import TelemetryHub
from repro.runtime import LogicalClock


def model(mass=1500.0, name=None):
    return ModelSpec(name or f"Zp-{mass:g}", "zprime",
                     {"mass": mass, "cross_section_pb": 0.05})


def make_service(config=None, **kwargs):
    api = demo_api(n_events=40, n_limit_toys=200)
    service = RecastService(
        api,
        config if config is not None else ServiceConfig(
            lease_duration=2.0, max_attempts=3,
            backoff_base=1.0, backoff_cap=4.0),
        **kwargs,
    )
    return api, service


def finished_snapshot(service):
    service.telemetry.flush(final=True)
    return service.telemetry.snapshot(deterministic=True)


def series(snapshot, name, **labels):
    for entry in snapshot["series"]:
        if entry["name"] == name and entry["labels"] == labels:
            return entry
    raise AssertionError(f"no series {name!r} with labels {labels!r}")


def total(entry):
    return math.fsum(window["sum"] for window in entry["windows"])


def count(entry):
    return sum(window["count"] for window in entry["windows"])


class TestSchedulerWiring:
    def test_lifecycle_series_recorded(self):
        _, service = make_service()
        service.register_tenant("t")
        service.submit("t", "GPD-EXO-01", model())
        service.run_until_idle()
        snapshot = finished_snapshot(service)
        names = {entry["name"] for entry in snapshot["series"]}
        assert {"service.submissions", "service.admissions",
                "service.leases", "service.wait_time",
                "service.commits", "service.queue_depth",
                "service.inflight"} <= names
        assert count(series(snapshot, "service.submissions",
                            tenant="t")) == 1
        assert count(series(snapshot, "service.commits",
                            tenant="t")) == 1
        # The inflight gauge series is unlabelled.
        series(snapshot, "service.inflight")

    def test_wait_time_measures_queue_delay(self):
        _, service = make_service(ServiceConfig(
            lease_duration=2.0, max_attempts=3,
            backoff_base=1.0, backoff_cap=4.0, max_inflight=1))
        service.register_tenant("t")
        service.submit("t", "GPD-EXO-01", model(1500.0))
        service.submit("t", "GPD-EXO-01", model(1600.0))
        service.run_until_idle()
        waits = series(finished_snapshot(service),
                       "service.wait_time", tenant="t")
        # First grant waits 0 ticks, the second one full round.
        assert count(waits) == 2
        assert total(waits) == 1.0

    def test_dedup_hits_counted(self):
        _, service = make_service()
        service.register_tenant("t")
        service.submit("t", "GPD-EXO-01", model())
        service.submit("t", "GPD-EXO-01", model())
        service.run_until_idle()
        snapshot = finished_snapshot(service)
        assert count(series(snapshot, "service.dedup_hits",
                            tenant="t")) == 1
        assert count(series(snapshot, "service.admissions",
                            tenant="t")) == 1

    def test_quota_rejections_counted(self):
        _, service = make_service()
        service.register_tenant("t", TenantQuota(max_queued=1))
        service.submit("t", "GPD-EXO-01", model(1500.0))
        service.submit("t", "GPD-EXO-01", model(1600.0))
        service.run_until_idle()
        snapshot = finished_snapshot(service)
        assert count(series(snapshot, "service.quota_rejections",
                            tenant="t")) == 1

    def test_crash_recovery_emits_expiry_and_retry_series(self):
        api, service = make_service()
        api._backends["GPD"] = CrashingBackend(
            inner=api._backends["GPD"], crash_times=1,
            name="GPD-full-chain")
        service.register_tenant("t")
        service.submit("t", "GPD-EXO-01", model())
        service.run_until_idle()
        snapshot = finished_snapshot(service)
        assert count(series(snapshot, "service.lease_expiries",
                            tenant="t")) == 1
        assert count(series(snapshot, "service.lease_retries",
                            tenant="t")) == 1
        assert count(series(snapshot, "service.leases",
                            tenant="t")) == 2

    def test_disabled_hub_records_nothing_and_costs_nothing(self):
        clock = LogicalClock()
        hub = TelemetryHub(clock, enabled=False)
        _, service = make_service(clock=clock, telemetry=hub)
        service.register_tenant("t")
        ticket = service.submit("t", "GPD-EXO-01", model())
        service.run_until_idle()
        assert service.telemetry is hub
        assert service.telemetry.n_observations == 0
        assert finished_snapshot(service)["series"] == []
        assert ticket.status == "queued"


def series_key(entry):
    return entry["name"], tuple(sorted(entry["labels"].items()))


#: Telemetry-only distributions; every other service series is a
#: counter or gauge of the run report under the same name.
DISTRIBUTIONS = {"service.wait_time", "service.backend_seconds"}

POLICIES = {"serial": ExecutionPolicy.serial(),
            "thread": ExecutionPolicy(mode="thread", n_jobs=2)}


def demo_run(policy):
    service, _ = run_script(demo_api(n_events=30, n_limit_toys=150),
                            demo_script(), policy=policy)
    return service


def crash_run(policy):
    api, service = make_service(policy=policy)
    api._backends["GPD"] = CrashingBackend(
        inner=api._backends["GPD"], crash_times=1,
        name="GPD-full-chain")
    service.register_tenant("t")
    service.register_tenant("u")
    service.submit("t", "GPD-EXO-01", model(1500.0))
    service.submit("u", "GPD-EXO-01", model(1600.0))
    service.submit("u", "GPD-EXO-01", model(1500.0))
    service.run_until_idle()
    service.telemetry.flush(final=True)
    return service


def quota_bounce_run(policy):
    _, service = make_service(policy=policy)
    service.register_tenant("t", TenantQuota(max_queued=1))
    for mass in (1500.0, 1600.0, 1700.0):
        service.submit("t", "GPD-EXO-01", model(mass))
    service.run_until_idle()
    service.submit("t", "GPD-EXO-01", model(1500.0))
    service.telemetry.flush(final=True)
    return service


class TestOneVocabulary:
    """The run report and the telemetry snapshot name every service
    event alike: each ``service.*`` counter equals the window count of
    its series, and each gauge has its series."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("scenario", [demo_run, crash_run,
                                          quota_bounce_run],
                             ids=["demo", "crash", "quota_bounce"])
    def test_counters_and_windows_agree(self, scenario, policy):
        service = scenario(POLICIES[policy])
        windows = {series_key(entry): count(entry)
                   for entry in service.telemetry.snapshot()["series"]}
        metrics = service.metrics.snapshot()
        counters = {series_key(c): c["value"]
                    for c in metrics["counters"]
                    if c["name"].startswith("service.")}
        gauges = {series_key(g) for g in metrics["gauges"]
                  if g["name"].startswith("service.")}
        assert counters and gauges
        for key, value in counters.items():
            assert windows.get(key) == value, key
        assert gauges <= set(windows)
        events = {key for key in windows if key[0] not in DISTRIBUTIONS}
        assert events == set(counters) | gauges

    def test_scenarios_reach_the_renamed_events(self):
        names = set()
        for scenario in (demo_run, crash_run, quota_bounce_run):
            snapshot = scenario(ExecutionPolicy.serial()).metrics.snapshot()
            names |= {c["name"] for c in snapshot["counters"]}
        assert {"service.quota_rejections", "service.leases",
                "service.lease_expiries", "service.lease_retries",
                "service.admissions", "service.cache_hits",
                "service.dedup_hits"} <= names


class TestScriptReplay:
    def _run(self):
        service, _ = run_script(demo_api(), demo_script())
        return service

    def test_telemetry_snapshot_replays_byte_identically(self):
        first = self._run().telemetry.to_json_bytes(deterministic=True)
        second = self._run().telemetry.to_json_bytes(deterministic=True)
        assert first == second

    def test_default_slo_passes_on_the_demo_workload(self):
        snapshot = self._run().telemetry.snapshot(deterministic=True)
        report = evaluate_slo(default_service_slo(), snapshot)
        assert report.ok
        # The per-tenant wait objective expanded over the demo tenants.
        wait_rows = [row for row in report.objectives
                     if row["name"] == "wait-p95-ceiling"]
        assert len(wait_rows) >= 2
        assert all(row["tenant"] for row in wait_rows)

    def test_health_report_replays_byte_identically(self):
        def health():
            snapshot = self._run().telemetry.snapshot(
                deterministic=True)
            return evaluate_slo(default_service_slo(),
                                snapshot).to_json_bytes()

        assert health() == health()

    def test_default_slo_is_versioned_and_covers_the_kinds(self):
        spec = default_service_slo()
        assert spec.revision == 1
        kinds = {objective.kind for objective in spec.objectives}
        assert kinds == {"quantile_ceiling", "availability",
                         "ratio_ceiling", "ratio_floor"}


class TestRegistryUnderThreads:
    """Satellite: MetricsRegistry merged snapshots must not depend on
    the execution policy that produced the updates."""

    def _run(self, policy):
        registry = MetricsRegistry()

        def work(item):
            registry.counter("events", tenant=f"t{item % 3}").inc()
            registry.histogram("load", buckets=(2.0, 4.0),
                               tenant=f"t{item % 3}").observe(
                float(item % 5))
            return item

        parallel_map(work, list(range(96)), policy)
        return registry

    def test_thread_snapshot_is_byte_identical_to_serial(self):
        serial = self._run(ExecutionPolicy.serial())
        threaded = self._run(ExecutionPolicy(mode="thread", n_jobs=4))
        assert threaded.to_json_bytes() == serial.to_json_bytes()

    def test_concurrent_counts_are_lossless(self):
        registry = self._run(ExecutionPolicy(mode="thread", n_jobs=4))
        snapshot = registry.snapshot()
        assert sum(c["value"] for c in snapshot["counters"]) == 96
        assert sum(h["count"] for h in snapshot["histograms"]) == 96


class TestLabelCardinality:
    def test_empty_labels_and_labelled_series_coexist(self):
        registry = MetricsRegistry()
        registry.counter("events").inc()
        registry.counter("events", tenant="a").inc(2)
        snapshot = registry.snapshot()
        assert [(c["labels"], c["value"])
                for c in snapshot["counters"]] \
            == [({}, 1), ({"tenant": "a"}, 2)]

    def test_unicode_label_values_survive_the_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("events", tenant="θ-gruppe").inc()
        snapshot = registry.snapshot()
        assert snapshot["counters"][0]["labels"] \
            == {"tenant": "θ-gruppe"}
        assert b"\\u03b8" in registry.to_json_bytes()

    def test_kwarg_order_does_not_split_an_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("events", a="1", b="2")
        second = registry.counter("events", b="2", a="1")
        assert second is first
        first.inc()
        second.inc()
        assert len(registry.snapshot()["counters"]) == 1
        assert registry.snapshot()["counters"][0]["value"] == 2
