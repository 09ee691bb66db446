"""Deterministic submission scripts for the RECAST service.

A *submission script* is a JSON document describing everything a
service run depends on: the service configuration, the tenant roster
with quotas, and an ordered list of actions (submissions interleaved
with explicit scheduler rounds). Replaying the same script through
:func:`run_script` produces byte-identical event logs — the property
``repro serve`` and the CI replay check assert.

Script format (version 1)::

    {
      "format": "repro-service-script",
      "version": 1,
      "config": { ... ServiceConfig.to_dict() ... },
      "tenants": [{"name": "...", "quota": { ... }}, ...],
      "actions": [
        {"action": "submit", "tenant": "...", "analysis": "...",
         "model": { ... ModelSpec.to_dict() ... }, "priority": 0},
        {"action": "step", "count": 3},
        ...
      ]
    }

Trailing work is always drained: after the last action the service
runs until idle, so a script never leaves executions stranded.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.canonical import load_json_document
from repro.errors import ServiceError
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetryHub
from repro.obs.trace import Tracer
from repro.recast.api import RecastAPI
from repro.recast.backend import FullChainBackend
from repro.recast.catalog import AnalysisCatalog, PreservedSearch
from repro.recast.requests import ModelSpec
from repro.runtime import ExecutionPolicy, LogicalClock
from repro.service.config import ServiceConfig, TenantQuota
from repro.service.scheduler import RecastService, SubmitTicket

#: The submission-script envelope marker and its current version.
SCRIPT_FORMAT = "repro-service-script"
SCRIPT_VERSION = 1


def load_script(path: str | Path) -> dict:
    """Read and validate one submission script."""
    return load_json_document(path, validate_script, ServiceError,
                              "script")


def validate_script(script: dict) -> dict:
    """Check the envelope and shape of one submission script."""
    if not isinstance(script, dict):
        raise ServiceError("submission script must be a JSON object")
    if script.get("format") != SCRIPT_FORMAT:
        raise ServiceError(
            f"script format must be {SCRIPT_FORMAT!r}, "
            f"got {script.get('format')!r}"
        )
    if script.get("version") != SCRIPT_VERSION:
        raise ServiceError(
            f"script version must be {SCRIPT_VERSION}, "
            f"got {script.get('version')!r}"
        )
    tenants = script.get("tenants")
    if not isinstance(tenants, list) or not tenants:
        raise ServiceError("script needs a non-empty 'tenants' list")
    for tenant in tenants:
        if not isinstance(tenant, dict) or "name" not in tenant:
            raise ServiceError(f"malformed tenant entry: {tenant!r}")
    actions = script.get("actions")
    if not isinstance(actions, list):
        raise ServiceError("script needs an 'actions' list")
    for action in actions:
        kind = action.get("action") if isinstance(action, dict) else None
        if kind == "submit":
            missing = {"tenant", "analysis", "model"} - set(action)
            if missing:
                raise ServiceError(
                    f"submit action missing {sorted(missing)}"
                )
        elif kind == "step":
            if int(action.get("count", 1)) < 1:
                raise ServiceError("step count must be >= 1")
        else:
            raise ServiceError(f"unknown script action: {action!r}")
    return script


def run_script(
    api: RecastAPI,
    script: dict,
    *,
    policy: ExecutionPolicy | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    telemetry: TelemetryHub | None = None,
) -> tuple[RecastService, list[SubmitTicket]]:
    """Replay one submission script against one RecastAPI.

    Builds the service with a fresh :class:`~repro.runtime.LogicalClock`
    (the script is the only source of time), applies the actions in
    order, drains trailing work, and returns the service plus every
    ticket issued — all a pure function of ``(api, script)``. The
    service's telemetry windows are flushed (``final=True``) before
    returning, so the snapshot covers the whole run; pass ``telemetry``
    to substitute a pre-built (for example disabled) hub — a hub with
    its own clock will not see the script's logical time.
    """
    validate_script(script)
    config = ServiceConfig.from_dict(script.get("config", {}))
    service = RecastService(api, config, clock=LogicalClock(),
                            policy=policy, tracer=tracer,
                            metrics=metrics, telemetry=telemetry)
    for tenant in script["tenants"]:
        service.register_tenant(
            tenant["name"],
            TenantQuota.from_dict(tenant.get("quota", {})),
        )
    tickets: list[SubmitTicket] = []
    for action in script["actions"]:
        if action["action"] == "submit":
            tickets.append(service.submit(
                action["tenant"],
                action["analysis"],
                ModelSpec.from_dict(action["model"]),
                requester=action.get("requester", ""),
                priority=int(action.get("priority", 0)),
            ))
        else:
            for _ in range(int(action.get("count", 1))):
                service.step()
    service.run_until_idle()
    service.telemetry.flush(final=True)
    return service, tickets


def demo_api(*, n_events: int = 60, n_limit_toys: int = 400,
             seed: int = 900) -> RecastAPI:
    """A small self-contained RecastAPI for scripts and benchmarks.

    One experiment ("GPD"), one preserved high-mass dimuon search,
    processed by a :class:`~repro.recast.backend.FullChainBackend`
    sized for fast deterministic runs.
    """
    from repro.datamodel import (
        AndCut,
        CountCut,
        MassWindowCut,
        SkimSpec,
    )

    selection = SkimSpec("highmass", AndCut((
        CountCut("muons", 2, min_pt=30.0),
        MassWindowCut("muons", 500.0, 1e9, opposite_charge=True),
    )))
    catalog = AnalysisCatalog("GPD")
    catalog.register(PreservedSearch(
        analysis_id="GPD-EXO-01",
        title="High-mass dimuon search",
        experiment="GPD",
        selection=selection,
        n_observed=3,
        background=2.5,
        background_uncertainty=0.6,
        luminosity_ipb=20000.0,
    ))
    api = RecastAPI()
    api.register_experiment(
        catalog,
        FullChainBackend("GPD", n_events=n_events,
                         n_limit_toys=n_limit_toys, seed=seed),
    )
    return api


def default_service_slo():
    """The built-in SLO spec ``repro serve --health-out`` evaluates.

    Generic over tenant rosters: the latency objective uses the
    ``"*"`` selector, expanding into one evaluation per tenant seen in
    the telemetry — the per-tenant coverage the health report is for.
    Thresholds are sized for logical-clock runs (wait time in ticks).
    """
    from repro.obs.slo import Objective, SLOSpec

    return SLOSpec(
        name="recast-service-defaults",
        revision=1,
        objectives=(
            Objective(
                name="wait-p95-ceiling",
                kind="quantile_ceiling",
                series="service.wait_time",
                quantile=0.95,
                threshold=16.0,
                tenant="*",
                tolerated_breach_fraction=0.25,
            ),
            Objective(
                name="commit-availability",
                kind="availability",
                series="service.commits",
                bad_series="service.backend_failures",
                threshold=0.99,
            ),
            Objective(
                name="retry-rate-ceiling",
                kind="ratio_ceiling",
                series="service.lease_retries",
                bad_series="service.leases",
                threshold=0.5,
            ),
            Objective(
                name="dedup-floor",
                kind="ratio_floor",
                series="service.dedup_hits",
                bad_series="service.submissions",
                threshold=0.1,
            ),
        ),
    )


def demo_script() -> dict:
    """The built-in demo submission script ``repro serve`` defaults to.

    Two tenants with 2:1 weights, repeat submissions exercising the
    dedup path, and explicit scheduler rounds between bursts.
    """
    zp_15 = {"name": "Zp-1.5TeV", "process": "zprime",
             "parameters": {"mass": 1500.0, "cross_section_pb": 0.05}}
    zp_20 = {"name": "Zp-2.0TeV", "process": "zprime",
             "parameters": {"mass": 2000.0, "cross_section_pb": 0.02}}
    return {
        "format": SCRIPT_FORMAT,
        "version": SCRIPT_VERSION,
        "config": {"lease_duration": 4.0, "max_attempts": 3,
                   "backoff_base": 1.0, "backoff_cap": 8.0,
                   "max_inflight": 2},
        "tenants": [
            {"name": "pheno-group",
             "quota": {"weight": 2.0, "max_queued": 8,
                       "max_inflight": 2}},
            {"name": "lone-theorist",
             "quota": {"weight": 1.0, "max_queued": 4,
                       "max_inflight": 1}},
        ],
        "actions": [
            {"action": "submit", "tenant": "pheno-group",
             "analysis": "GPD-EXO-01", "model": zp_15},
            {"action": "submit", "tenant": "lone-theorist",
             "analysis": "GPD-EXO-01", "model": zp_20},
            # Identical to the first submission: dedup subscribes it.
            {"action": "submit", "tenant": "lone-theorist",
             "analysis": "GPD-EXO-01", "model": zp_15},
            {"action": "step", "count": 2},
            # After the first commit this is a result-cache hit.
            {"action": "submit", "tenant": "pheno-group",
             "analysis": "GPD-EXO-01", "model": zp_15},
        ],
    }
