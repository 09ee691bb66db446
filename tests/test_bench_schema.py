"""Every BENCH_*.json baseline shares one pinned envelope schema."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import (
    BENCH_FORMAT,
    BENCH_SCHEMA_VERSION,
    ENVIRONMENT_FIELDS,
    bench_envelope,
    validate_bench_report,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINES = sorted(REPO_ROOT.glob("BENCH_*.json"))


class TestBaselineFiles:
    def test_all_expected_baselines_present(self):
        names = [path.name for path in BASELINES]
        for expected in ("BENCH_parallel.json", "BENCH_lint.json",
                         "BENCH_obs.json"):
            assert expected in names

    @pytest.mark.parametrize("path", BASELINES,
                             ids=[p.name for p in BASELINES])
    def test_baseline_validates_against_envelope(self, path):
        record = json.loads(path.read_text(encoding="utf-8"))
        validate_bench_report(record)

    @pytest.mark.parametrize("path", BASELINES,
                             ids=[p.name for p in BASELINES])
    def test_baseline_has_named_workloads(self, path):
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["workloads"], f"{path.name} records no workloads"

    def test_lint_baseline_records_the_par_pass(self):
        # The par pass rides in the shared lint baseline: its
        # throughput is recorded alongside the deep pass, and its
        # determinism was re-asserted while timing.
        path = REPO_ROOT / "BENCH_lint.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        par = record["workloads"]["par_lint_pass"]
        assert par["byte_identical"] is True
        assert par["files_per_second"] > 0
        assert par["n_findings"] == 0

    def test_lint_baseline_records_the_det_pass(self):
        # Likewise the determinism pass: zero findings over the
        # library's own replay roots, timed deterministically.
        path = REPO_ROOT / "BENCH_lint.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        det = record["workloads"]["det_lint_pass"]
        assert det["byte_identical"] is True
        assert det["files_per_second"] > 0
        assert det["n_findings"] == 0

    def test_obs_baseline_judges_overhead_honestly(self):
        # Every overhead record must say whether the host was quiet
        # enough for its measured number to mean anything, and carry
        # the min-of-N convention it was timed under.
        path = REPO_ROOT / "BENCH_obs.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        workloads = record["workloads"]
        for name in ("primitives", "campaign", "reconstruction",
                     "service", "profile_build", "health_evaluate",
                     "prom_render"):
            assert name in workloads, name
        for name in ("campaign", "reconstruction", "service"):
            overhead = workloads[name]
            assert overhead["timing"] == "min-of-N interleaved laps"
            assert isinstance(overhead["overhead_meaningful"], bool)
            assert overhead["jitter_pct"] >= 0.0
            assert overhead["spread_pct"] >= overhead["jitter_pct"]
            assert overhead["bit_identical"] is True, name
            assert overhead["within_budget"] is True, name

    def test_obs_service_overhead_claim_is_meaningful(self):
        # The acceptance claim: telemetry-enabled service overhead is
        # within the budget, and the host was quiet enough at record
        # time for that claim to carry information.
        path = REPO_ROOT / "BENCH_obs.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        service = record["workloads"]["service"]
        assert service["overhead_meaningful"] is True
        assert service["implied_enabled_overhead_pct"] \
            <= record["overhead_budget_pct"]
        assert service["n_telemetry_observations"] > 0

    def test_obs_report_machinery_workloads_recorded(self):
        path = REPO_ROOT / "BENCH_obs.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        profile = record["workloads"]["profile_build"]
        assert profile["telescoping_ok"] is True
        assert profile["items_per_second"] > 0
        health = record["workloads"]["health_evaluate"]
        assert health["verdict"] == "ok"
        assert health["n_objectives"] >= 1
        prom = record["workloads"]["prom_render"]
        assert prom["n_exposition_lines"] > 0


class TestEnvelopePinning:
    """The schema identity is load-bearing: bumping it must be a
    deliberate, versioned decision, not a drive-by edit."""

    def test_format_and_version_are_pinned(self):
        assert BENCH_FORMAT == "repro-bench-report"
        assert BENCH_SCHEMA_VERSION == 1

    def test_environment_fields_are_pinned(self):
        assert ENVIRONMENT_FIELDS == (
            "python", "implementation", "machine", "system", "host",
            "cpu_count", "started_at",
        )

    def test_fresh_envelope_matches_the_pin(self):
        record = bench_envelope("pin-check")
        assert record["schema"] == {"format": BENCH_FORMAT,
                                    "version": BENCH_SCHEMA_VERSION}
        assert set(record["environment"]) == set(ENVIRONMENT_FIELDS)
        validate_bench_report(record)
