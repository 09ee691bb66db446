"""Declarative service-level objectives and the health verdict engine.

The DESY-style validation framework the ROADMAP points at needs more
than measurements — it needs *objectives*: versioned, machine-checkable
statements of what healthy looks like, evaluated over comparable
windows, producing a verdict someone can page on and an artifact
someone can replay. This module supplies both halves:

- :class:`SLOSpec` — a versioned JSON document declaring named
  :class:`Objective` rows over telemetry series (availability floors,
  latency-quantile ceilings, ratio ceilings/floors), each with a
  tolerated breach budget that separates *degraded* from *failing*;
- :func:`evaluate_slo` — the evaluator, a pure function of
  ``(spec, telemetry snapshot)`` returning a :class:`HealthReport`
  whose canonical JSON is byte-identical across replays of the same
  workload under a :class:`~repro.runtime.LogicalClock`.

Verdict semantics, per objective:

- ``ok`` — every evaluated window met the threshold (or the objective
  saw no traffic at all: no traffic is absence of evidence, not
  failure);
- ``degraded`` — some windows breached, but no more than the
  objective's ``tolerated_breach_fraction`` of them;
- ``failing`` — breaches exceeded the budget.

The report verdict is the worst objective verdict. Every breach
carries provenance: which window, what was observed, what the
threshold was — a verdict that cannot say *why* cannot be audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.canonical import canonical_document, load_json_document
from repro.errors import ObservabilityError
from repro.obs.telemetry import QUANTILE_GRID, quantile_label

#: Schema identity of the SLO spec document.
SLO_FORMAT = "repro-slo-spec"
SLO_SCHEMA_VERSION = 1

#: Schema identity of the health report document.
HEALTH_FORMAT = "repro-health-report"
HEALTH_SCHEMA_VERSION = 1

#: Objective kinds the engine evaluates.
KIND_AVAILABILITY = "availability"
KIND_QUANTILE_CEILING = "quantile_ceiling"
KIND_RATIO_CEILING = "ratio_ceiling"
KIND_RATIO_FLOOR = "ratio_floor"
OBJECTIVE_KINDS = (KIND_AVAILABILITY, KIND_QUANTILE_CEILING,
                   KIND_RATIO_CEILING, KIND_RATIO_FLOOR)

#: Objective / report verdicts, worst last.
VERDICT_OK = "ok"
VERDICT_DEGRADED = "degraded"
VERDICT_FAILING = "failing"
_VERDICT_RANK = {VERDICT_OK: 0, VERDICT_DEGRADED: 1,
                 VERDICT_FAILING: 2}

#: The tenant selector meaning "one evaluation per tenant found".
TENANT_EACH = "*"


@dataclass(frozen=True)
class Objective:
    """One declared objective over one or two telemetry series.

    ``kind`` selects the rule:

    - ``availability``: ``good / (good + bad) >= threshold``, where
      ``good``/``bad`` are the summed window totals of ``series`` and
      ``bad_series``;
    - ``quantile_ceiling``: the ``quantile`` readout of every window
      of ``series`` must be ``<= threshold`` (per-window breaches);
    - ``ratio_ceiling`` / ``ratio_floor``: the summed totals of
      ``series`` over ``bad_series`` (the denominator) must stay
      under / over ``threshold``.

    ``tenant`` restricts the series match to one tenant label, or
    :data:`TENANT_EACH` to expand into one evaluation per tenant
    present in the telemetry; empty matches the unlabelled aggregate.
    """

    name: str
    kind: str
    series: str
    threshold: float
    bad_series: str = ""
    quantile: float = 0.0
    tenant: str = ""
    tolerated_breach_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ObservabilityError("objective needs a non-empty name")
        if self.kind not in OBJECTIVE_KINDS:
            raise ObservabilityError(
                f"objective {self.name!r} has unknown kind "
                f"{self.kind!r} (known: {OBJECTIVE_KINDS})"
            )
        if not self.series:
            raise ObservabilityError(
                f"objective {self.name!r} names no series"
            )
        if self.kind == KIND_QUANTILE_CEILING:
            if self.quantile not in QUANTILE_GRID:
                raise ObservabilityError(
                    f"objective {self.name!r} quantile "
                    f"{self.quantile} is not on the exact grid "
                    f"{QUANTILE_GRID}"
                )
        elif self.kind in (KIND_AVAILABILITY, KIND_RATIO_CEILING,
                           KIND_RATIO_FLOOR):
            if not self.bad_series:
                raise ObservabilityError(
                    f"objective {self.name!r} ({self.kind}) needs a "
                    f"bad_series / denominator series"
                )
        if self.kind in (KIND_AVAILABILITY, KIND_RATIO_FLOOR) \
                and not 0.0 <= self.threshold <= 1.0 \
                and self.kind == KIND_AVAILABILITY:
            raise ObservabilityError(
                f"objective {self.name!r} availability threshold must "
                f"be in [0, 1], got {self.threshold}"
            )
        if not 0.0 <= self.tolerated_breach_fraction <= 1.0:
            raise ObservabilityError(
                f"objective {self.name!r} tolerated_breach_fraction "
                f"must be in [0, 1], got "
                f"{self.tolerated_breach_fraction}"
            )

    def to_dict(self) -> dict:
        """Serialise for the spec document and the health report."""
        return {
            "name": self.name,
            "kind": self.kind,
            "series": self.series,
            "bad_series": self.bad_series,
            "quantile": self.quantile,
            "tenant": self.tenant,
            "threshold": self.threshold,
            "tolerated_breach_fraction":
                self.tolerated_breach_fraction,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Objective":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {"name", "kind", "series", "bad_series", "quantile",
                 "tenant", "threshold", "tolerated_breach_fraction"}
        unknown = set(record) - known
        if unknown:
            raise ObservabilityError(
                f"unknown objective fields: {sorted(unknown)}"
            )
        return cls(
            name=str(record.get("name", "")),
            kind=str(record.get("kind", "")),
            series=str(record.get("series", "")),
            threshold=float(record.get("threshold", 0.0)),
            bad_series=str(record.get("bad_series", "")),
            quantile=float(record.get("quantile", 0.0)),
            tenant=str(record.get("tenant", "")),
            tolerated_breach_fraction=float(
                record.get("tolerated_breach_fraction", 0.0)),
        )


@dataclass(frozen=True)
class SLOSpec:
    """A versioned set of objectives — the unit of health policy."""

    name: str
    objectives: tuple
    revision: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ObservabilityError("SLO spec needs a non-empty name")
        if not self.objectives:
            raise ObservabilityError(
                f"SLO spec {self.name!r} declares no objectives"
            )
        seen: dict[str, int] = {}
        for objective in self.objectives:
            if objective.name in seen:
                raise ObservabilityError(
                    f"SLO spec {self.name!r} declares objective "
                    f"{objective.name!r} twice"
                )
            seen[objective.name] = 1
        if self.revision < 1:
            raise ObservabilityError(
                f"SLO spec revision must be >= 1, got {self.revision}"
            )
        object.__setattr__(self, "objectives", tuple(self.objectives))

    def to_dict(self) -> dict:
        """The versioned spec document."""
        return {
            "format": SLO_FORMAT,
            "schema_version": SLO_SCHEMA_VERSION,
            "name": self.name,
            "revision": self.revision,
            "objectives": [objective.to_dict()
                           for objective in self.objectives],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SLOSpec":
        """Validate the envelope and parse every objective."""
        if not isinstance(record, dict):
            raise ObservabilityError("SLO spec must be a JSON object")
        if record.get("format") != SLO_FORMAT:
            raise ObservabilityError(
                f"SLO spec format {record.get('format')!r} is not "
                f"{SLO_FORMAT!r}"
            )
        if record.get("schema_version") != SLO_SCHEMA_VERSION:
            raise ObservabilityError(
                f"SLO spec schema version "
                f"{record.get('schema_version')!r} is not "
                f"{SLO_SCHEMA_VERSION}"
            )
        objectives = record.get("objectives")
        if not isinstance(objectives, list):
            raise ObservabilityError(
                "SLO spec needs an 'objectives' list"
            )
        return cls(
            name=str(record.get("name", "")),
            revision=int(record.get("revision", 1)),
            objectives=tuple(Objective.from_dict(entry)
                             for entry in objectives),
        )

    @classmethod
    def load(cls, path) -> "SLOSpec":
        """Read and validate a spec document from ``path``."""
        return load_json_document(path, cls.from_dict,
                                  ObservabilityError, "SLO spec")


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

def _series_entries(snapshot: dict, name: str,
                    tenant: str) -> list[dict]:
    """Snapshot series matching one name and tenant selector."""
    matches = []
    for entry in snapshot.get("series", ()):
        if entry.get("name") != name:
            continue
        labels = entry.get("labels", {})
        if tenant and labels.get("tenant") != tenant:
            continue
        matches.append(entry)
    return matches


def _tenants_in(snapshot: dict) -> list[str]:
    """Every tenant label present in the snapshot, sorted."""
    tenants: dict[str, int] = {}
    for entry in snapshot.get("series", ()):
        tenant = entry.get("labels", {}).get("tenant")
        if tenant:
            tenants[str(tenant)] = 1
    return sorted(tenants)


def _windows_of(entries: list[dict]) -> list[dict]:
    """Every closed window across matched series, in time order."""
    windows = []
    for entry in entries:
        for window in entry.get("windows", ()):
            windows.append(window)
    windows.sort(key=lambda w: (w["start"], w["end"]))
    return windows


def _total(entries: list[dict]) -> float:
    """The summed window totals of matched series."""
    return sum(window["sum"] for window in _windows_of(entries))


def _verdict_for(breaches: int, evaluated: int,
                 tolerated_fraction: float) -> str:
    if breaches == 0:
        return VERDICT_OK
    if evaluated and breaches / evaluated <= tolerated_fraction:
        return VERDICT_DEGRADED
    return VERDICT_FAILING


def _evaluate_one(objective: Objective, tenant: str,
                  snapshot: dict) -> dict:
    """One objective against one concrete tenant selector."""
    entries = _series_entries(snapshot, objective.series, tenant)
    record = {
        "name": objective.name,
        "kind": objective.kind,
        "tenant": tenant,
        "series": objective.series,
        "threshold": objective.threshold,
        "breaches": [],
    }

    if objective.kind == KIND_QUANTILE_CEILING:
        windows = _windows_of(entries)
        label = quantile_label(objective.quantile)
        record["quantile"] = label
        record["windows_evaluated"] = len(windows)
        for window in windows:
            observed = window["quantiles"][label]
            if observed > objective.threshold:
                record["breaches"].append({
                    "window_start": window["start"],
                    "window_end": window["end"],
                    "observed": observed,
                    "threshold": objective.threshold,
                })
        record["observed"] = max(
            (window["quantiles"][label] for window in windows),
            default=0.0,
        )
        record["verdict"] = _verdict_for(
            len(record["breaches"]), len(windows),
            objective.tolerated_breach_fraction)
        return record

    # Ratio-style kinds: one aggregate comparison over summed totals.
    good = _total(entries)
    bad = _total(_series_entries(snapshot, objective.bad_series,
                                 tenant))
    record["windows_evaluated"] = len(_windows_of(entries))
    if objective.kind == KIND_AVAILABILITY:
        volume = good + bad
        observed = good / volume if volume else 1.0
        breached = volume > 0.0 and observed < objective.threshold
    elif objective.kind == KIND_RATIO_FLOOR:
        observed = good / bad if bad else 0.0
        breached = bad > 0.0 and observed < objective.threshold
    else:  # KIND_RATIO_CEILING
        observed = good / bad if bad else 0.0
        breached = bad > 0.0 and observed > objective.threshold
    record["observed"] = observed
    if breached:
        record["breaches"].append({
            "window_start": None,
            "window_end": None,
            "observed": observed,
            "threshold": objective.threshold,
        })
        record["verdict"] = VERDICT_FAILING
    else:
        record["verdict"] = VERDICT_OK
    return record


@dataclass
class HealthReport:
    """The evaluated health of one service run or window range."""

    spec: dict
    telemetry_window: dict
    objectives: list = field(default_factory=list)
    verdict: str = VERDICT_OK

    def to_dict(self) -> dict:
        """The schema-versioned report document."""
        return {
            "format": HEALTH_FORMAT,
            "schema_version": HEALTH_SCHEMA_VERSION,
            "slo": dict(self.spec),
            "telemetry_window": dict(self.telemetry_window),
            "objectives": [dict(entry) for entry in self.objectives],
            "verdict": self.verdict,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "HealthReport":
        """Inverse of :meth:`to_dict`; validates on the way in."""
        validate_health_report(record)
        return cls(
            spec=dict(record["slo"]),
            telemetry_window=dict(record["telemetry_window"]),
            objectives=[dict(entry)
                        for entry in record["objectives"]],
            verdict=str(record["verdict"]),
        )

    def to_json_bytes(self) -> bytes:
        """Deterministic bytes: sorted keys, fixed indent, one LF.

        Byte-identical across replays of the same workload under a
        logical clock — the property the CI replay gate compares.
        """
        return canonical_document(self.to_dict())

    def save(self, path) -> None:
        """Write the report document to ``path``."""
        Path(path).write_bytes(self.to_json_bytes())

    @classmethod
    def load(cls, path) -> "HealthReport":
        """Read and validate a report document from ``path``."""
        return load_json_document(path, cls.from_dict,
                                  ObservabilityError, "health report")

    @property
    def ok(self) -> bool:
        """True when no objective is degraded or failing."""
        return self.verdict == VERDICT_OK

    def exit_code(self) -> int:
        """0 ok, 1 degraded, 2 failing — the ``repro health`` code."""
        return _VERDICT_RANK[self.verdict]


def evaluate_slo(spec: SLOSpec, snapshot: dict) -> HealthReport:
    """Evaluate one spec against one telemetry snapshot.

    A pure function of its inputs: objectives with the
    :data:`TENANT_EACH` selector expand into one evaluation per tenant
    label found in the snapshot (sorted), and every evaluated row
    carries its breaches with window provenance.
    """
    evaluated: list[dict] = []
    for objective in spec.objectives:
        if objective.tenant == TENANT_EACH:
            tenants = _tenants_in(snapshot)
            if not tenants:
                evaluated.append(_evaluate_one(objective, "", snapshot))
                continue
            for tenant in tenants:
                evaluated.append(
                    _evaluate_one(objective, tenant, snapshot))
        else:
            evaluated.append(
                _evaluate_one(objective, objective.tenant, snapshot))
    worst = VERDICT_OK
    for row in evaluated:
        if _VERDICT_RANK[row["verdict"]] > _VERDICT_RANK[worst]:
            worst = row["verdict"]
    return HealthReport(
        spec=spec.to_dict(),
        telemetry_window=dict(snapshot.get("window", {})),
        objectives=evaluated,
        verdict=worst,
    )


def validate_health_report(record: dict) -> None:
    """Structural validation of one health report document."""
    if not isinstance(record, dict):
        raise ObservabilityError(
            "health report must be a JSON object")
    if record.get("format") != HEALTH_FORMAT:
        raise ObservabilityError(
            f"health report format {record.get('format')!r} is not "
            f"{HEALTH_FORMAT!r}"
        )
    if record.get("schema_version") != HEALTH_SCHEMA_VERSION:
        raise ObservabilityError(
            f"health report schema version "
            f"{record.get('schema_version')!r} is not "
            f"{HEALTH_SCHEMA_VERSION}"
        )
    if record.get("verdict") not in _VERDICT_RANK:
        raise ObservabilityError(
            f"health report verdict {record.get('verdict')!r} is not "
            f"one of {sorted(_VERDICT_RANK)}"
        )
    slo = record.get("slo")
    if not isinstance(slo, dict) or slo.get("format") != SLO_FORMAT:
        raise ObservabilityError(
            "health report carries no embedded SLO spec"
        )
    objectives = record.get("objectives")
    if not isinstance(objectives, list):
        raise ObservabilityError(
            "health report needs an 'objectives' list"
        )
    for row in objectives:
        if not isinstance(row, dict):
            raise ObservabilityError(
                f"malformed objective row: {row!r}")
        for key in ("name", "kind", "verdict", "observed",
                    "threshold", "breaches"):
            if key not in row:
                raise ObservabilityError(
                    f"objective row {row.get('name')!r} is missing "
                    f"{key!r}"
                )
        if row["verdict"] not in _VERDICT_RANK:
            raise ObservabilityError(
                f"objective {row['name']!r} has unknown verdict "
                f"{row['verdict']!r}"
            )
    if not isinstance(record.get("telemetry_window"), dict):
        raise ObservabilityError(
            "health report needs a 'telemetry_window' block"
        )


# ----------------------------------------------------------------------
# Rendering (the ``repro health`` view)
# ----------------------------------------------------------------------

_VERDICT_MARK = {VERDICT_OK: "+", VERDICT_DEGRADED: "~",
                 VERDICT_FAILING: "x"}


def render_health(report: HealthReport) -> str:
    """Plain-text rendering of one health report."""
    spec_name = report.spec.get("name", "?")
    revision = report.spec.get("revision", "?")
    lines = [
        f"health {report.verdict.upper()} — SLO {spec_name!r} "
        f"(revision {revision}), "
        f"{len(report.objectives)} objective(s)"
    ]
    for row in report.objectives:
        tenant = row.get("tenant") or "(all)"
        mark = _VERDICT_MARK[row["verdict"]]
        quantile = row.get("quantile")
        series = row["series"] + (f".{quantile}" if quantile else "")
        lines.append(
            f" {mark} {row['verdict']:<9} {row['name']} "
            f"[{tenant}] {series}: observed "
            f"{row['observed']} vs {row['threshold']} "
            f"({len(row['breaches'])} breach(es) over "
            f"{row.get('windows_evaluated', 0)} window(s))"
        )
        for breach in row["breaches"]:
            where = ("aggregate" if breach["window_start"] is None
                     else f"window [{breach['window_start']}, "
                          f"{breach['window_end']})")
            lines.append(
                f"     breach: {where} observed {breach['observed']} "
                f"vs {breach['threshold']}"
            )
    return "\n".join(lines)
