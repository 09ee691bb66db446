"""The lease worker pool: what actually runs a leased request.

:func:`execute_lease` is the module-level worker function —
pool-safe by construction: it mutates nothing it did not create,
draws no randomness of its own (back ends seed their chains from
their own configuration), and reports *everything* as a returned
:class:`LeaseOutcome`, never an exception. A worker that dies is
modelled by the ``crashed`` outcome status: the driver treats it
exactly like a worker that reported nothing, leaving the lease to
expire and the retry machinery to recover — which is what a real
killed process would look like.

The scheduler fans a batch of lease tasks out with
:func:`repro.runtime.parallel_map` directly, so outcomes come back in
task order under every policy and the DAS3xx parallel-safety rules
trace lease workers like any other pool worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ServiceError
from repro.recast.backend import RecastBackend
from repro.recast.catalog import PreservedSearch
from repro.recast.requests import ModelSpec
from repro.recast.results import RecastResult

#: Outcome statuses a lease worker can report.
OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"
OUTCOME_CRASHED = "crashed"


class WorkerCrash(ServiceError):
    """A worker died mid-request (infrastructure, not physics).

    Raised by fault-injecting back ends to simulate a killed worker;
    distinct from ordinary back-end exceptions, which are
    deterministic request failures and are **not** retried.
    """


@dataclass(frozen=True)
class LeaseTask:
    """Everything one worker needs to run one leased execution.

    Pure data plus a picklable back end, so the task crosses a
    process-pool boundary unchanged.
    """

    key: str
    attempt: int
    analysis_id: str
    backend: RecastBackend
    search: PreservedSearch
    model: ModelSpec


@dataclass(frozen=True)
class LeaseOutcome:
    """What one worker reports back for one leased execution."""

    key: str
    attempt: int
    status: str
    result: RecastResult | None = None
    error: str = ""


def execute_lease(task: LeaseTask) -> LeaseOutcome:
    """Run one leased request through its back end.

    Never raises: a :class:`WorkerCrash` becomes a ``crashed``
    outcome (the driver ignores it and lets the lease expire), any
    other exception becomes an ``error`` outcome (a deterministic
    request failure, committed as FAILED without retry).
    """
    try:
        result = task.backend.process(task.search, task.model)
    except WorkerCrash as crash:
        return LeaseOutcome(key=task.key, attempt=task.attempt,
                            status=OUTCOME_CRASHED, error=str(crash))
    except Exception as exc:
        return LeaseOutcome(key=task.key, attempt=task.attempt,
                            status=OUTCOME_ERROR, error=str(exc))
    return LeaseOutcome(key=task.key, attempt=task.attempt,
                        status=OUTCOME_OK, result=result)


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------

@dataclass
class CrashingBackend(RecastBackend):
    """A back end whose first ``crash_times`` calls per key die.

    The crash-injection harness for lease tests and benchmarks: each
    distinct ``(analysis, model)`` question crashes with
    :class:`WorkerCrash` on its first ``crash_times`` process calls,
    then delegates to the wrapped back end. Call counting lives in the
    driver-side instance, so fault injection requires a serial or
    thread policy (a process pool's copy would forget its count —
    exactly why real services persist attempt counts driver-side).
    """

    inner: RecastBackend
    crash_times: int = 1
    name: str = "crashing"
    _calls: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.crash_times < 0:
            raise ServiceError(
                f"crash_times must be >= 0, got {self.crash_times}"
            )

    def process(self, search: PreservedSearch,
                model: ModelSpec) -> RecastResult:
        """Crash for the first ``crash_times`` calls, then delegate."""
        question = (search.analysis_id, model.name)
        seen = self._calls.get(question, 0)
        self._calls[question] = seen + 1
        if seen < self.crash_times:
            raise WorkerCrash(
                f"injected worker death #{seen + 1} for "
                f"{model.name!r} vs {search.analysis_id!r}"
            )
        return self.inner.process(search, model)


@dataclass
class FailingBackend(RecastBackend):
    """A back end that always fails deterministically (no crash).

    Models a physics-level failure — the request is wrong, retrying
    cannot help — so the scheduler must commit FAILED without
    consuming retry attempts.
    """

    reason: str = "injected deterministic failure"
    name: str = "failing"

    def process(self, search: PreservedSearch,
                model: ModelSpec) -> RecastResult:
        """Raise the configured failure."""
        raise ServiceError(self.reason)
