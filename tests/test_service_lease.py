"""Tests for leases, the lease table, and the worker pool."""

import pytest

from repro.errors import LeaseError, ServiceError
from repro.recast import FullChainBackend, ModelSpec
from repro.runtime import ExecutionPolicy, parallel_map
from repro.service import (
    CrashingBackend,
    FailingBackend,
    LeaseTable,
    LeaseTask,
    WorkerCrash,
    execute_lease,
)
from tests.test_recast_requests import make_search


def make_task(attempt=1, backend=None, mass=1500.0):
    return LeaseTask(
        key="k" * 64,
        attempt=attempt,
        analysis_id="GPD-EXO-01",
        backend=backend if backend is not None
        else FullChainBackend("GPD", n_events=40, n_limit_toys=200,
                              seed=11),
        search=make_search(),
        model=ModelSpec("Zp", "zprime",
                        {"mass": mass, "cross_section_pb": 0.05}),
    )


class TestLeaseTable:
    def test_grant_and_settle(self):
        table = LeaseTable()
        lease = table.grant("k", "t", 1, now=0.0, duration=5.0)
        assert lease.expires_at == 5.0
        assert "k" in table
        settled = table.settle("k", 1)
        assert settled is lease
        assert "k" not in table

    def test_double_grant_rejected(self):
        table = LeaseTable()
        table.grant("k", "t", 1, now=0.0, duration=5.0)
        with pytest.raises(LeaseError):
            table.grant("k", "t", 2, now=1.0, duration=5.0)

    def test_stale_attempt_not_settled(self):
        # The exactly-once gate: an outcome from a superseded attempt
        # must be discarded, not committed.
        table = LeaseTable()
        table.grant("k", "t", 1, now=0.0, duration=5.0)
        table.revoke("k")
        table.grant("k", "t", 2, now=10.0, duration=5.0)
        assert table.settle("k", 1) is None
        assert table.settle("k", 2) is not None

    def test_settle_without_lease_is_stale(self):
        assert LeaseTable().settle("k", 1) is None

    def test_revoke_missing_rejected(self):
        with pytest.raises(LeaseError):
            LeaseTable().revoke("k")

    def test_expiry_is_inclusive_at_deadline(self):
        table = LeaseTable()
        lease = table.grant("k", "t", 1, now=0.0, duration=5.0)
        assert not lease.expired(4.999)
        assert lease.expired(5.0)

    def test_expired_sweep_is_grant_ordered(self):
        table = LeaseTable()
        table.grant("b", "t", 1, now=0.0, duration=1.0)
        table.grant("a", "t", 1, now=0.0, duration=1.0)
        keys = [lease.key for lease in table.expired(10.0)]
        assert keys == ["b", "a"]

    def test_inflight_accounting(self):
        table = LeaseTable()
        table.grant("k1", "a", 1, now=0.0, duration=5.0)
        table.grant("k2", "a", 1, now=0.0, duration=5.0)
        table.grant("k3", "b", 1, now=0.0, duration=5.0)
        assert table.inflight_by_tenant() == {"a": 2, "b": 1}
        assert len(table) == 3


class TestExecuteLease:
    def test_success_reports_result(self):
        outcome = execute_lease(make_task())
        assert outcome.status == "ok"
        assert outcome.result is not None
        assert outcome.attempt == 1

    def test_backend_exception_reports_error(self):
        outcome = execute_lease(make_task(
            backend=FailingBackend(reason="bad physics")))
        assert outcome.status == "error"
        assert outcome.error == "bad physics"
        assert outcome.result is None

    def test_worker_crash_reports_crashed(self):
        backend = CrashingBackend(
            inner=FullChainBackend("GPD", n_events=40), crash_times=1)
        outcome = execute_lease(make_task(backend=backend))
        assert outcome.status == "crashed"
        assert "injected worker death" in outcome.error


class TestLeaseFanOut:
    def test_outcomes_preserve_task_order(self):
        tasks = [make_task(mass=mass)
                 for mass in (1500.0, 1700.0, 1900.0)]
        outcomes = parallel_map(execute_lease, tasks,
                                ExecutionPolicy.threads(2, chunk_size=1))
        assert [o.key for o in outcomes] == [t.key for t in tasks]
        assert all(o.status == "ok" for o in outcomes)


class TestFaultInjection:
    def test_crashing_backend_dies_n_times_then_succeeds(self):
        backend = CrashingBackend(
            inner=FullChainBackend("GPD", n_events=40, n_limit_toys=200,
                                   seed=11),
            crash_times=2,
        )
        search = make_search()
        model = ModelSpec("Zp", "zprime",
                          {"mass": 1500.0, "cross_section_pb": 0.05})
        for _ in range(2):
            with pytest.raises(WorkerCrash):
                backend.process(search, model)
        assert backend.process(search, model).n_generated == 40

    def test_crash_counting_is_per_question(self):
        backend = CrashingBackend(
            inner=FullChainBackend("GPD", n_events=40, n_limit_toys=200,
                                   seed=11),
            crash_times=1,
        )
        search = make_search()
        with pytest.raises(WorkerCrash):
            backend.process(search, ModelSpec(
                "Zp-a", "zprime",
                {"mass": 1500.0, "cross_section_pb": 0.05}))
        # A different model is a different question: fresh crash budget.
        with pytest.raises(WorkerCrash):
            backend.process(search, ModelSpec(
                "Zp-b", "zprime",
                {"mass": 1700.0, "cross_section_pb": 0.05}))

    def test_negative_crash_times_rejected(self):
        with pytest.raises(ServiceError):
            CrashingBackend(inner=FullChainBackend("GPD", n_events=10),
                            crash_times=-1)

    def test_worker_crash_is_a_service_error(self):
        assert issubclass(WorkerCrash, ServiceError)
