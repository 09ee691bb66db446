"""repro.service: the RECAST system run as a multi-tenant service.

The paper's RECAST vision is an always-on facility: many requesters,
one pool of preserved analyses, experiments in control of what runs
and what is released. This package supplies the scheduling middle:
per-tenant fair-share queueing with quotas
(:mod:`repro.service.queue`), content-addressed request deduplication
with a result cache (:mod:`repro.service.dedup`), lease-based
exactly-once execution with capped retries
(:mod:`repro.service.lease`, :mod:`repro.service.pool`), and the
deterministic scheduler that ties them together
(:mod:`repro.service.scheduler`) — replayable from submission scripts
(:mod:`repro.service.script`).
"""

from repro.service.config import ServiceConfig, TenantQuota
from repro.service.dedup import (
    CacheStats,
    ResultCache,
    backend_fingerprint,
    dedup_key,
)
from repro.service.lease import Lease, LeaseTable
from repro.service.pool import (
    CrashingBackend,
    FailingBackend,
    LeaseOutcome,
    LeaseTask,
    WorkerCrash,
    execute_lease,
)
from repro.service.queue import FairShareQueue, QueueEntry
from repro.service.scheduler import RecastService, SubmitTicket
from repro.service.script import (
    default_service_slo,
    demo_api,
    demo_script,
    load_script,
    run_script,
    validate_script,
)

__all__ = [
    "CacheStats",
    "CrashingBackend",
    "FailingBackend",
    "FairShareQueue",
    "Lease",
    "LeaseOutcome",
    "LeaseTable",
    "LeaseTask",
    "QueueEntry",
    "RecastService",
    "ResultCache",
    "ServiceConfig",
    "SubmitTicket",
    "TenantQuota",
    "WorkerCrash",
    "backend_fingerprint",
    "dedup_key",
    "default_service_slo",
    "demo_api",
    "demo_script",
    "execute_lease",
    "load_script",
    "run_script",
    "validate_script",
]
