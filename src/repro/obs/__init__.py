"""``repro.obs`` — structured tracing, metrics, and run reports.

The observability layer of the processing chain: :class:`Tracer`/
:class:`Span` record what executed and how it nested,
:class:`MetricsRegistry` counts what happened, and :class:`RunReport`
bundles both with an environment capture into a schema-versioned,
provenance-linked JSON artifact a :class:`PreservationArchive` can hold
next to the data it describes. Deterministic exports are byte-identical
across runs of the same seeded workload, so run evidence is
fixity-checkable like any other preserved content.
"""

from repro.obs.env import (
    BENCH_FORMAT,
    BENCH_SCHEMA_VERSION,
    ENVIRONMENT_FIELDS,
    bench_envelope,
    capture_environment,
    validate_bench_report,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    is_timing_metric,
)
from repro.obs.profile import (
    PROFILE_FORMAT,
    PROFILE_SCHEMA_VERSION,
    ProfileNode,
    SpanProfile,
    render_profile,
    validate_profile,
)
from repro.obs.promexport import (
    escape_label_value,
    parse_prometheus,
    render_prometheus,
    sanitize_metric_name,
    unescape_label_value,
)
from repro.obs.report import (
    REPORT_FORMAT,
    REPORT_SCHEMA_VERSION,
    RUN_REPORT_KIND,
    RunReport,
    attach_report_to_archive,
    export_spans,
    link_run_report,
    load_report_from_archive,
    render_trace,
    validate_run_report,
)
from repro.obs.slo import (
    HEALTH_FORMAT,
    HEALTH_SCHEMA_VERSION,
    SLO_FORMAT,
    SLO_SCHEMA_VERSION,
    HealthReport,
    Objective,
    SLOSpec,
    evaluate_slo,
    render_health,
    validate_health_report,
)
from repro.obs.telemetry import (
    DEFAULT_WINDOW_BUCKETS,
    QUANTILE_GRID,
    TELEMETRY_FORMAT,
    TELEMETRY_SCHEMA_VERSION,
    TelemetryHub,
    WindowedSeries,
    WindowRecord,
    WindowSpec,
    exact_quantile,
    quantile_label,
    validate_telemetry_snapshot,
)
from repro.obs.trace import (
    NOOP_TRACER,
    Span,
    Tracer,
    active,
    derive_span_id,
)

__all__ = [
    "BENCH_FORMAT",
    "BENCH_SCHEMA_VERSION",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_WINDOW_BUCKETS",
    "ENVIRONMENT_FIELDS",
    "Gauge",
    "HEALTH_FORMAT",
    "HEALTH_SCHEMA_VERSION",
    "HealthReport",
    "Histogram",
    "MetricsRegistry",
    "NOOP_TRACER",
    "Objective",
    "PROFILE_FORMAT",
    "PROFILE_SCHEMA_VERSION",
    "ProfileNode",
    "QUANTILE_GRID",
    "REPORT_FORMAT",
    "REPORT_SCHEMA_VERSION",
    "RUN_REPORT_KIND",
    "RunReport",
    "SLOSpec",
    "SLO_FORMAT",
    "SLO_SCHEMA_VERSION",
    "Span",
    "SpanProfile",
    "TELEMETRY_FORMAT",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryHub",
    "Tracer",
    "WindowRecord",
    "WindowSpec",
    "WindowedSeries",
    "active",
    "attach_report_to_archive",
    "bench_envelope",
    "capture_environment",
    "derive_span_id",
    "escape_label_value",
    "evaluate_slo",
    "exact_quantile",
    "export_spans",
    "is_timing_metric",
    "link_run_report",
    "load_report_from_archive",
    "parse_prometheus",
    "quantile_label",
    "render_health",
    "render_profile",
    "render_prometheus",
    "render_trace",
    "sanitize_metric_name",
    "unescape_label_value",
    "validate_bench_report",
    "validate_health_report",
    "validate_profile",
    "validate_run_report",
    "validate_telemetry_snapshot",
]
