"""The RunReport: preservable evidence of one processing run.

A RunReport is the artifact the observability layer exists to produce —
a schema-versioned JSON document bundling the span tree, the metrics
snapshot, the environment capture, and provenance links, so the record
of *how* a dataset was produced can be archived next to the dataset and
fixity-checked like any other preserved content.

Determinism contract: built with ``deterministic=True``, the document
is **byte-identical across runs** of the same seeded workload — span
timings are replaced by logical sequence positions, timing-derived
metrics are normalized (counts kept, durations dropped), and the
wall-clock field of the environment capture is emptied. Built without
it, real monotonic-clock offsets from trace start are exported instead
(the mode ``repro trace`` renders timings from).

Span ids are re-derivable from ``(trace id, parent, name, sequence)``,
and :func:`validate_run_report` re-derives every one — a report whose
ids fail to reproduce has been tampered with or mis-assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.canonical import (
    canonical_document,
    load_json_document,
    write_atomic,
)
from repro.errors import ObservabilityError
from repro.obs.env import ENVIRONMENT_FIELDS, capture_environment
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    STATUS_ERROR,
    STATUS_OK,
    Span,
    Tracer,
    derive_span_id,
)

#: Schema identity of the run-report document.
REPORT_FORMAT = "repro-run-report"
REPORT_SCHEMA_VERSION = 1

#: Archive artifact kind run reports are stored under.
RUN_REPORT_KIND = "run-report"

#: Fields every exported span record carries.
_SPAN_FIELDS = ("name", "span_id", "parent_id", "sequence", "start",
                "duration", "status", "attributes")

#: Fixed epoch used for archive metadata in deterministic captures.
_EPOCH = "1970-01-01T00:00:00Z"


def export_spans(spans: list[Span], *,
                 deterministic: bool = False) -> list[dict]:
    """Serialise finished spans for a run report.

    Real mode exports monotonic offsets from the earliest span start;
    deterministic mode replaces ``start`` with the span's sequence
    position and zeroes every duration — structure without clocks.
    """
    records: list[dict] = []
    origin = min((span.start for span in spans), default=0.0)
    for span in spans:
        if not span.finished:
            raise ObservabilityError(
                f"span {span.name!r} is still open; finish every span "
                f"before exporting a run report"
            )
        record = span.to_dict()
        if deterministic:
            record["start"] = float(span.sequence)
            record["duration"] = 0.0
        else:
            record["start"] = round(span.start - origin, 6)
            record["duration"] = round(span.duration, 6)
        records.append(record)
    return records


@dataclass
class RunReport:
    """One run's complete observability record."""

    trace_id: str
    deterministic: bool
    spans: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        tracer: Tracer,
        metrics: MetricsRegistry | None = None,
        *,
        deterministic: bool = False,
        provenance: dict | None = None,
        environment: dict | None = None,
    ) -> "RunReport":
        """Assemble a report from a finished tracer and registry."""
        registry = metrics if metrics is not None else MetricsRegistry()
        return cls(
            trace_id=tracer.trace_id,
            deterministic=deterministic,
            spans=export_spans(tracer.spans,
                               deterministic=deterministic),
            metrics=registry.snapshot(deterministic=deterministic),
            environment=(environment if environment is not None
                         else capture_environment(
                             deterministic=deterministic)),
            provenance=dict(provenance) if provenance else {},
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The schema-versioned document."""
        return {
            "format": REPORT_FORMAT,
            "schema_version": REPORT_SCHEMA_VERSION,
            "trace": {
                "trace_id": self.trace_id,
                "deterministic": self.deterministic,
                "spans": [dict(span) for span in self.spans],
            },
            "metrics": self.metrics,
            "environment": dict(self.environment),
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "RunReport":
        """Inverse of :meth:`to_dict`; validates on the way in."""
        validate_run_report(record)
        trace = record["trace"]
        return cls(
            trace_id=str(trace["trace_id"]),
            deterministic=bool(trace["deterministic"]),
            spans=[dict(span) for span in trace["spans"]],
            metrics=dict(record["metrics"]),
            environment=dict(record["environment"]),
            provenance=dict(record.get("provenance", {})),
        )

    def to_json_bytes(self) -> bytes:
        """Deterministic bytes: sorted keys, fixed indent, one LF."""
        return canonical_document(self.to_dict())

    def save(self, path: str | Path) -> None:
        """Write the report document to ``path``."""
        write_atomic(path, self.to_json_bytes(), "run report")

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        """Read and validate a report document from ``path``."""
        return load_json_document(path, cls.from_dict,
                                  ObservabilityError, "run report")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_spans(self) -> int:
        """Spans recorded in this report."""
        return len(self.spans)

    def root_spans(self) -> list[dict]:
        """The top-level spans of the trace tree."""
        return [span for span in self.spans
                if span["parent_id"] is None]

    def children_of(self, span_id: str | None) -> list[dict]:
        """Direct children of one span, in sequence order."""
        return [span for span in self.spans
                if span["parent_id"] == span_id]


def validate_run_report(record: dict) -> None:
    """Structural + integrity validation of one report document.

    Beyond shape checks, every span id is re-derived from its
    ``(trace id, parent, name, sequence)`` identity — the same rule the
    tracer used — so corruption or hand-editing is caught statically.
    Raises :class:`~repro.errors.ObservabilityError` on the first
    violation.
    """
    if not isinstance(record, dict):
        raise ObservabilityError("run report must be a JSON object")
    if record.get("format") != REPORT_FORMAT:
        raise ObservabilityError(
            f"run report format {record.get('format')!r} is not "
            f"{REPORT_FORMAT!r}"
        )
    if record.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ObservabilityError(
            f"run report schema version "
            f"{record.get('schema_version')!r} is not "
            f"{REPORT_SCHEMA_VERSION}"
        )
    trace = record.get("trace")
    if not isinstance(trace, dict) or "trace_id" not in trace:
        raise ObservabilityError("run report has no trace block")
    trace_id = trace["trace_id"]
    if not isinstance(trace_id, str) or not trace_id:
        raise ObservabilityError("trace_id must be a non-empty string")
    if not isinstance(trace.get("deterministic"), bool):
        raise ObservabilityError(
            "trace.deterministic must be a boolean"
        )
    spans = trace.get("spans")
    if not isinstance(spans, list):
        raise ObservabilityError("trace.spans must be a list")
    seen_ids: set[str] = set()
    sequences: set[int] = set()
    deterministic = trace["deterministic"]
    for position, span in enumerate(spans):
        if not isinstance(span, dict):
            raise ObservabilityError(f"span #{position} is not an object")
        for key in _SPAN_FIELDS:
            if key not in span:
                raise ObservabilityError(
                    f"span #{position} is missing {key!r}"
                )
        if span["status"] not in (STATUS_OK, STATUS_ERROR):
            raise ObservabilityError(
                f"span #{position} has unknown status "
                f"{span['status']!r}"
            )
        sequence = span["sequence"]
        if not isinstance(sequence, int) or sequence in sequences:
            raise ObservabilityError(
                f"span #{position} has invalid or duplicate sequence "
                f"{sequence!r}"
            )
        sequences.add(sequence)
        parent_id = span["parent_id"]
        if parent_id is not None and parent_id not in seen_ids:
            raise ObservabilityError(
                f"span {span['name']!r} references parent "
                f"{parent_id!r} which does not precede it"
            )
        expected = derive_span_id(trace_id, parent_id, span["name"],
                                  sequence)
        if span["span_id"] != expected:
            raise ObservabilityError(
                f"span {span['name']!r} id {span['span_id']!r} does "
                f"not re-derive (expected {expected!r}); the report "
                f"has been altered"
            )
        seen_ids.add(span["span_id"])
        if not isinstance(span["attributes"], dict):
            raise ObservabilityError(
                f"span {span['name']!r} attributes must be an object"
            )
        if deterministic and (span["start"] != float(sequence)
                              or span["duration"] != 0.0):
            raise ObservabilityError(
                f"span {span['name']!r} carries clock values in a "
                f"deterministic report"
            )
    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        raise ObservabilityError("run report has no metrics snapshot")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), list):
            raise ObservabilityError(
                f"metrics snapshot is missing the {section!r} list"
            )
    for histogram in metrics["histograms"]:
        if len(histogram.get("counts", [])) != \
                len(histogram.get("buckets", [])) + 1:
            raise ObservabilityError(
                f"histogram {histogram.get('name')!r} needs one count "
                f"per bucket plus overflow"
            )
    environment = record.get("environment")
    if not isinstance(environment, dict):
        raise ObservabilityError(
            "run report has no environment capture"
        )
    for key in ENVIRONMENT_FIELDS:
        if key not in environment:
            raise ObservabilityError(
                f"environment capture is missing {key!r}"
            )
    if not isinstance(record.get("provenance", {}), dict):
        raise ObservabilityError("provenance block must be an object")


# ----------------------------------------------------------------------
# Archive integration
# ----------------------------------------------------------------------

def attach_report_to_archive(
    report: RunReport,
    archive,
    *,
    creator: str = "repro-obs",
    experiment: str = "TOY",
    created: str = _EPOCH,
    title: str | None = None,
):
    """Store a run report in a :class:`PreservationArchive`.

    Returns the archive entry; its digest is what dataset metadata
    should link back to (see :func:`link_run_report`), and what the
    ``DAS113`` lint rule checks for. The default ``created`` stamp is
    the fixed epoch so deterministic reports stay byte-stable; pass a
    real timestamp for curated archives.
    """
    from repro.core.metadata import PreservationMetadata

    payload = report.to_dict()
    metadata = PreservationMetadata.build(
        title=title or f"run report {report.trace_id}",
        creator=creator,
        experiment=experiment,
        created=created,
        artifact_format=REPORT_FORMAT,
        size_bytes=0,
        checksum="",
        producer="repro.obs",
        parents=list(report.provenance.get("artifact_ids", [])),
    )
    return archive.store(payload, RUN_REPORT_KIND, metadata)


def load_report_from_archive(archive, digest: str) -> RunReport:
    """Retrieve and validate an archived run report by digest."""
    entry = archive.entry(digest)
    if entry.kind != RUN_REPORT_KIND:
        raise ObservabilityError(
            f"artifact {digest[:12]}... is a {entry.kind!r}, not a "
            f"{RUN_REPORT_KIND!r}"
        )
    return RunReport.from_dict(archive.retrieve(digest))


def link_run_report(metadata, digest: str) -> None:
    """Record a run-report digest in dataset metadata.

    Writes the ``run_report`` field of the provenance metadata block —
    the link ``DAS113`` audits archived datasets for.
    """
    from repro.core.metadata import MetadataBlock

    metadata.blocks.setdefault(MetadataBlock.PROVENANCE, {})
    metadata.blocks[MetadataBlock.PROVENANCE]["run_report"] = str(digest)


# ----------------------------------------------------------------------
# Rendering (the ``repro trace`` view)
# ----------------------------------------------------------------------

def render_trace(report: RunReport) -> str:
    """ASCII tree of the span structure with timings and attributes."""
    total = sum(span["duration"] for span in report.root_spans())
    header = (
        f"trace {report.trace_id!r} — {report.n_spans} span(s)"
        + (", deterministic (timings normalized)"
           if report.deterministic else f", {total:.3f}s total")
    )
    lines = [header]

    def describe(span: dict) -> str:
        attributes = " ".join(
            f"{key}={value}" for key, value in
            sorted(span["attributes"].items())
        )
        timing = ("" if report.deterministic
                  else f" ({span['duration'] * 1000.0:.1f} ms)")
        flag = "" if span["status"] == STATUS_OK else " [ERROR]"
        return (span["name"] + timing + flag
                + (f"  {attributes}" if attributes else ""))

    def walk(parent_id: str | None, prefix: str) -> None:
        children = report.children_of(parent_id)
        for index, span in enumerate(children):
            last = index == len(children) - 1
            branch = "└─ " if last else "├─ "
            lines.append(prefix + branch + describe(span))
            walk(span["span_id"], prefix + ("   " if last else "│  "))

    walk(None, "")
    return "\n".join(lines)
