"""The RECAST request service: the deterministic scheduling core.

:class:`RecastService` turns the synchronous
:class:`~repro.recast.api.RecastAPI` into a multi-tenant service. A
submission is admitted against its tenant's quota, content-addressed
(:mod:`repro.service.dedup`), and either *queued* as a fresh
execution, *subscribed* to an identical in-flight one, or answered
from the result cache on the spot. Executions are drained by
:meth:`RecastService.step`, a discrete-event scheduler round:

1. sweep expired leases — re-queue with backoff, or fail at the cap;
2. re-admit backoff-complete retries;
3. grant leases fair-share until the in-flight caps bind;
4. dispatch the newly leased work through the worker pool and commit
   each outcome through the lease table's exactly-once gate;
5. advance the injected clock one tick.

Every decision is a pure function of the submission sequence and the
injected :class:`~repro.runtime.LogicalClock`, so the service's event
log — canonical JSON lines from :meth:`RecastService.event_log_bytes`
— is byte-identical across replays, under every execution policy.
That replayable log *is* the preservation claim of this layer: a
service whose scheduling cannot be replayed cannot have its results
audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.canonical import canonical_json
from repro.errors import QuotaError, ServiceError
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetryHub
from repro.obs.trace import Tracer, active
from repro.recast.api import RecastAPI
from repro.recast.requests import ModelSpec, RequestStatus
from repro.runtime import ExecutionPolicy, LogicalClock, parallel_map
from repro.service.config import ServiceConfig, TenantQuota
from repro.service.dedup import ResultCache, backend_fingerprint, dedup_key
from repro.service.lease import LeaseTable
from repro.service.pool import (
    OUTCOME_CRASHED,
    OUTCOME_OK,
    LeaseOutcome,
    LeaseTask,
    execute_lease,
)
from repro.service.queue import FairShareQueue, QueueEntry

#: Ticket statuses a submission can come back with.
TICKET_QUEUED = "queued"
TICKET_SUBSCRIBED = "subscribed"
TICKET_CACHED = "cached"
TICKET_REJECTED = "rejected"


@dataclass(frozen=True)
class SubmitTicket:
    """What the service hands back for one submission."""

    request_id: str
    status: str
    key: str

    def to_dict(self) -> dict:
        """Serialise for event logs and CLI output."""
        return {"request_id": self.request_id, "status": self.status,
                "key": self.key}


@dataclass
class _Execution:
    """One deduplicated unit of back-end work and its subscribers.

    ``request_ids[0]`` is the *primary* request — the one whose state
    follows the lease lifecycle; later entries are dedup subscribers
    that stay QUEUED until the shared outcome fans out to them.
    """

    key: str
    tenant: str
    priority: int
    sequence: int
    analysis_id: str
    model: ModelSpec
    experiment: str
    attempt: int = 0
    request_ids: list[str] = field(default_factory=list)
    #: Clock reading of the last (re-)queueing — wait-time origin.
    enqueued_at: float = 0.0


class RecastService:
    """A deterministic multi-tenant scheduler over one RecastAPI."""

    def __init__(
        self,
        api: RecastAPI,
        config: ServiceConfig | None = None,
        *,
        clock: LogicalClock | None = None,
        policy: ExecutionPolicy | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        telemetry: TelemetryHub | None = None,
    ) -> None:
        self.api = api
        self.config = config if config is not None else ServiceConfig()
        self.clock = clock if clock is not None else LogicalClock()
        self.policy = policy
        self._tracer = active(tracer)
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        #: Windowed per-tenant series, keyed on the service clock. The
        #: default hub shares ``self.clock``, so telemetry windows are
        #: as replayable as the event log; pass ``telemetry`` to share
        #: a hub across services or to disable collection.
        self._telemetry = (telemetry if telemetry is not None
                           else TelemetryHub(self.clock))
        self.queue = FairShareQueue()
        self.leases = LeaseTable()
        self.cache = ResultCache()
        #: Live executions by dedup key (queued, leased, or backing off).
        self._executions: dict[str, _Execution] = {}
        #: Executions waiting out a retry backoff: key -> ready time.
        self._backoff: dict[str, float] = {}
        self._sequence = 0
        self._steps = 0
        self._events: list[dict] = []

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------

    def _record(self, kind: str, **payload) -> None:
        self._events.append({
            "seq": len(self._events),
            "time": self.clock.now(),
            "event": kind,
            **payload,
        })

    @property
    def events(self) -> list[dict]:
        """The full request-event log, in decision order."""
        return list(self._events)

    def event_log_bytes(self) -> bytes:
        """The event log as canonical JSON lines.

        Byte-identical across replays of the same submission sequence —
        the artifact determinism tests and the CI replay check compare.
        """
        lines = [canonical_json(event).decode("utf-8")
                 for event in self._events]
        return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""

    # ------------------------------------------------------------------
    # Tenants and submission
    # ------------------------------------------------------------------

    def register_tenant(self, name: str,
                        quota: TenantQuota | None = None) -> None:
        """Admit a tenant with its quota (defaults apply if omitted)."""
        self.queue.register_tenant(
            name, quota if quota is not None else TenantQuota()
        )
        self._record("tenant_registered", tenant=name,
                     quota=self.queue.quota(name).to_dict())

    def submit(self, tenant: str, analysis_id: str, model: ModelSpec,
               *, requester: str = "", priority: int = 0) -> SubmitTicket:
        """Admit one request: queue it, subscribe it, or answer it.

        Never raises for service-level outcomes — a quota bounce comes
        back as a ``rejected`` ticket (the request itself records the
        rejection), because a multi-tenant service answers overload
        with a polite refusal, not a stack trace. Unknown analyses and
        unknown tenants *do* raise: those are caller bugs.
        """
        experiment, search = self.api.find_search(analysis_id)
        backend = self.api.backend_for(experiment)
        key = dedup_key(analysis_id, model,
                        backend_fingerprint(backend))
        request = self.api.submit(
            analysis_id, model, requester or tenant
        )
        self._count("service.submissions", tenant=tenant)

        with self._tracer.span("service.submit", tenant=tenant,
                               analysis=analysis_id) as span:
            # Cached: the question was already answered — accept and
            # deliver without touching the queue.
            cached = self.cache.get(key)
            if cached is not None:
                self.api.accept(request.request_id,
                                f"service:{tenant} (cached)")
                request.transition(RequestStatus.QUEUED)
                request.result = cached
                request.transition(RequestStatus.PENDING_APPROVAL,
                                   "answered from result cache")
                self._count("service.cache_hits", tenant=tenant)
                span.set("ticket", TICKET_CACHED)
                self._record("cache_hit", tenant=tenant, key=key,
                             request_id=request.request_id)
                return SubmitTicket(request.request_id, TICKET_CACHED,
                                    key)

            # In flight: subscribe to the identical execution.
            existing = self._executions.get(key)
            if existing is not None:
                self.api.accept(request.request_id,
                                f"service:{tenant} (dedup)")
                request.transition(RequestStatus.QUEUED,
                                   f"subscribed to {key[:12]}")
                existing.request_ids.append(request.request_id)
                self._count("service.dedup_hits", tenant=tenant)
                span.set("ticket", TICKET_SUBSCRIBED)
                self._record("dedup_subscribe", tenant=tenant, key=key,
                             request_id=request.request_id,
                             primary=existing.request_ids[0])
                return SubmitTicket(request.request_id,
                                    TICKET_SUBSCRIBED, key)

            # Fresh: admit a new execution against the tenant's quota.
            self._sequence += 1
            entry = QueueEntry(key=key, tenant=tenant,
                               priority=priority,
                               sequence=self._sequence)
            try:
                self.queue.push(entry)
            except QuotaError as quota:
                self.api.reject(request.request_id, str(quota))
                self._count("service.quota_rejections", tenant=tenant)
                span.set("ticket", TICKET_REJECTED)
                self._record("quota_reject", tenant=tenant, key=key,
                             request_id=request.request_id,
                             reason=str(quota))
                return SubmitTicket(request.request_id,
                                    TICKET_REJECTED, key)

            self.api.accept(request.request_id, f"service:{tenant}")
            request.transition(RequestStatus.QUEUED)
            self._executions[key] = _Execution(
                key=key, tenant=tenant, priority=priority,
                sequence=self._sequence, analysis_id=analysis_id,
                model=model, experiment=experiment,
                request_ids=[request.request_id],
                enqueued_at=self.clock.now(),
            )
            self._count("service.admissions", tenant=tenant)
            span.set("ticket", TICKET_QUEUED)
            self._record("enqueue", tenant=tenant, key=key,
                         request_id=request.request_id,
                         priority=priority)
            return SubmitTicket(request.request_id, TICKET_QUEUED, key)

    # ------------------------------------------------------------------
    # The scheduler round
    # ------------------------------------------------------------------

    def step(self) -> int:
        """Run one scheduler round; returns outcomes committed.

        Sweeps expired leases, re-admits backoff-complete retries,
        grants leases fair-share, dispatches the granted work, commits
        what the lease table accepts, and advances the clock one tick.
        """
        with self._tracer.span("service.step", step=self._steps):
            now = self.clock.now()
            self._sweep_expired(now)
            self._readmit_ready(now)
            tasks = self._grant_leases(now)
            committed = self._dispatch(tasks)
            self._sample_depths()
            self.clock.advance()
            self._telemetry.flush()
            self._steps += 1
        return committed

    def run_until_idle(self, *, max_steps: int = 10_000) -> int:
        """Step until no execution is queued, leased, or backing off.

        Returns the number of rounds taken; ``max_steps`` is the
        runaway guard — a scheduler that cannot drain is a bug, not a
        workload.
        """
        steps = 0
        while self._executions:
            if steps >= max_steps:
                raise ServiceError(
                    f"service did not drain within {max_steps} steps; "
                    f"{len(self._executions)} execution(s) still live"
                )
            self.step()
            steps += 1
        return steps

    # -- round phases ---------------------------------------------------

    def _sweep_expired(self, now: float) -> None:
        """Re-queue or fail every execution whose lease has expired."""
        for lease in self.leases.expired(now):
            self.leases.revoke(lease.key)
            execution = self._executions[lease.key]
            primary = self.api.get_request(execution.request_ids[0])
            self._count("service.lease_expiries", tenant=lease.tenant)
            self._record("lease_expire", key=lease.key,
                         lease_id=lease.lease_id,
                         tenant=lease.tenant, attempt=lease.attempt)
            if execution.attempt >= self.config.max_attempts:
                reason = (f"retry cap exhausted after "
                          f"{execution.attempt} attempt(s)")
                primary.transition(RequestStatus.FAILED, reason)
                primary.failure_reason = reason
                self._fail_subscribers(execution, reason)
                self._finish(execution, "failed", reason=reason)
            else:
                delay = self.config.backoff(execution.attempt)
                primary.transition(
                    RequestStatus.RETRYING,
                    f"lease {lease.lease_id} expired; retry in {delay:g}"
                )
                self._backoff[lease.key] = now + delay
                self._count("service.lease_retries", tenant=lease.tenant)
                self._record("retry_scheduled", key=lease.key,
                             tenant=lease.tenant,
                             attempt=execution.attempt,
                             ready_at=now + delay)

    def _readmit_ready(self, now: float) -> None:
        """Move backoff-complete executions back into the queue."""
        for key in sorted(k for k, ready in self._backoff.items()
                          if ready <= now):
            del self._backoff[key]
            execution = self._executions[key]
            primary = self.api.get_request(execution.request_ids[0])
            primary.transition(RequestStatus.QUEUED, "backoff complete")
            execution.enqueued_at = now
            self.queue.push(
                QueueEntry(key=key, tenant=execution.tenant,
                           priority=execution.priority,
                           sequence=execution.sequence),
                requeue=True,
            )
            self._record("requeue", key=key, tenant=execution.tenant,
                         attempt=execution.attempt)

    def _grant_leases(self, now: float) -> list[LeaseTask]:
        """Lease fair-share-selected executions up to the caps."""
        tasks: list[LeaseTask] = []
        while len(self.leases) < self.config.max_inflight:
            entry = self.queue.pop_next(self.leases.inflight_by_tenant())
            if entry is None:
                break
            execution = self._executions[entry.key]
            execution.attempt += 1
            lease = self.leases.grant(
                entry.key, entry.tenant, execution.attempt,
                now=now, duration=self.config.lease_duration,
            )
            primary = self.api.get_request(execution.request_ids[0])
            primary.transition(RequestStatus.LEASED, lease.lease_id)
            self._count("service.leases", tenant=entry.tenant)
            self._telemetry.observe("service.wait_time",
                                    now - execution.enqueued_at,
                                    tenant=entry.tenant)
            self._record("lease_grant", key=entry.key,
                         lease_id=lease.lease_id, tenant=entry.tenant,
                         attempt=execution.attempt,
                         expires_at=lease.expires_at)
            _, search = self.api.find_search(execution.analysis_id)
            tasks.append(LeaseTask(
                key=entry.key, attempt=execution.attempt,
                analysis_id=execution.analysis_id,
                backend=self.api.backend_for(execution.experiment),
                search=search, model=execution.model,
            ))
        return tasks

    def _dispatch(self, tasks: list[LeaseTask]) -> int:
        """Run the granted leases and commit surviving outcomes."""
        if not tasks:
            return 0
        # Outcomes come back in task order under every policy, so the
        # commit sequence -- and with it the event log -- is too.
        outcomes = parallel_map(execute_lease, tasks, self.policy,
                                metrics=self._metrics)
        committed = 0
        for outcome in outcomes:
            if outcome.status == OUTCOME_CRASHED:
                # A crashed worker reports nothing in real life; the
                # lease stays live and the expiry sweep recovers it.
                self._record("worker_crash", key=outcome.key,
                             attempt=outcome.attempt,
                             error=outcome.error)
                continue
            committed += self._commit(outcome)
        return committed

    def _commit(self, outcome: LeaseOutcome) -> int:
        """Pass one outcome through the exactly-once gate."""
        lease = self.leases.settle(outcome.key, outcome.attempt)
        if lease is None:
            self._count("service.stale_outcomes")
            self._record("stale_drop", key=outcome.key,
                         attempt=outcome.attempt)
            return 0
        execution = self._executions[outcome.key]
        primary = self.api.get_request(execution.request_ids[0])
        if outcome.status == OUTCOME_OK:
            self.cache.put(outcome.key, outcome.result)
            primary.result = outcome.result
            primary.transition(RequestStatus.PENDING_APPROVAL,
                               f"committed on attempt {outcome.attempt}")
            for request_id in execution.request_ids[1:]:
                subscriber = self.api.get_request(request_id)
                subscriber.result = outcome.result
                subscriber.transition(
                    RequestStatus.PENDING_APPROVAL,
                    f"shared result of {primary.request_id}"
                )
            self._count("service.commits", tenant=execution.tenant)
            self._telemetry.observe(
                "service.backend_seconds",
                self.clock.now() - lease.granted_at,
                tenant=execution.tenant,
            )
            self._finish(execution, "committed",
                         fanout=len(execution.request_ids))
        else:
            # Deterministic back-end failure: retrying cannot change
            # physics, so the execution fails now, retry budget unspent.
            primary.failure_reason = outcome.error
            primary.transition(RequestStatus.FAILED, outcome.error)
            self._fail_subscribers(execution, outcome.error)
            self._count("service.backend_failures", tenant=execution.tenant)
            self._finish(execution, "failed", reason=outcome.error)
        return 1

    # -- helpers --------------------------------------------------------

    def _fail_subscribers(self, execution: _Execution,
                          reason: str) -> None:
        for request_id in execution.request_ids[1:]:
            subscriber = self.api.get_request(request_id)
            subscriber.failure_reason = reason
            subscriber.transition(RequestStatus.FAILED, reason)

    def _finish(self, execution: _Execution, verdict: str,
                **payload) -> None:
        del self._executions[execution.key]
        self._record(verdict, key=execution.key,
                     tenant=execution.tenant,
                     attempt=execution.attempt,
                     request_id=execution.request_ids[0], **payload)

    def _count(self, name: str, **labels) -> None:
        """Record one service event: its run total and its window."""
        self._metrics.counter(name, **labels).inc()
        self._telemetry.event(name, **labels)

    def _sample(self, name: str, value: float, **labels) -> None:
        """Record one reading: the gauge and its windowed series."""
        self._metrics.gauge(name, **labels).set(value)
        self._telemetry.observe(name, value, **labels)

    def _sample_depths(self) -> None:
        """One depth reading per registered tenant per round."""
        depths = self.queue.depths()
        for tenant in sorted(depths):
            self._sample("service.queue_depth", depths[tenant],
                         tenant=tenant)
        self._sample("service.inflight", len(self.leases))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The service's metrics registry."""
        return self._metrics

    @property
    def tracer(self) -> Tracer:
        """The service's tracer."""
        return self._tracer

    @property
    def telemetry(self) -> TelemetryHub:
        """The service's windowed telemetry hub."""
        return self._telemetry

    def pending_executions(self) -> int:
        """Executions still queued, leased, or backing off."""
        return len(self._executions)
