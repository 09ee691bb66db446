"""End-to-end tests for the ``repro serve`` subcommand."""

import json

import pytest

from repro.cli import main


SPEED = ["--events", "30", "--toys", "150"]


class TestServeDemo:
    def test_demo_run_reports_tickets(self, capsys):
        assert main(["serve", *SPEED]) == 0
        out = capsys.readouterr().out
        assert "queued" in out
        assert "subscribed" in out
        assert "cached" in out
        assert "pending_approval" in out

    def test_event_log_written_and_canonical(self, tmp_path, capsys):
        log_path = tmp_path / "events.jsonl"
        assert main(["serve", *SPEED,
                     "--event-log", str(log_path)]) == 0
        lines = log_path.read_text(encoding="utf-8").splitlines()
        assert lines
        events = [json.loads(line) for line in lines]
        assert [e["seq"] for e in events] == list(range(len(events)))
        kinds = [e["event"] for e in events]
        assert "enqueue" in kinds
        assert "dedup_subscribe" in kinds
        assert "cache_hit" in kinds
        assert "committed" in kinds

    def test_replay_is_byte_identical(self, tmp_path):
        logs = []
        for name in ("one.jsonl", "two.jsonl"):
            path = tmp_path / name
            assert main(["serve", *SPEED,
                         "--event-log", str(path)]) == 0
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]


class TestServeScripts:
    def test_write_script_then_replay_it(self, tmp_path, capsys):
        script_path = tmp_path / "script.json"
        assert main(["serve", "--write-script", str(script_path)]) == 0
        script = json.loads(script_path.read_text(encoding="utf-8"))
        assert script["format"] == "repro-service-script"
        assert main(["serve", *SPEED,
                     "--script", str(script_path)]) == 0
        assert "served 4 submission(s)" in capsys.readouterr().out

    def test_invalid_script_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "nope"}), encoding="utf-8")
        assert main(["serve", "--script", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_quota_overflow_script_rejects_politely(self, tmp_path,
                                                    capsys):
        script = {
            "format": "repro-service-script",
            "version": 1,
            "tenants": [{"name": "t",
                         "quota": {"max_queued": 1}}],
            "actions": [
                {"action": "submit", "tenant": "t",
                 "analysis": "GPD-EXO-01",
                 "model": {"name": "Zp-a", "process": "zprime",
                           "parameters": {"mass": 1500.0,
                                          "cross_section_pb": 0.05}}},
                {"action": "submit", "tenant": "t",
                 "analysis": "GPD-EXO-01",
                 "model": {"name": "Zp-b", "process": "zprime",
                           "parameters": {"mass": 1700.0,
                                          "cross_section_pb": 0.05}}},
            ],
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(script), encoding="utf-8")
        assert main(["serve", *SPEED, "--script", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rejected" in out


class TestServeSlo:
    def test_slo_without_health_out_is_rejected(self, tmp_path, capsys):
        spec = tmp_path / "slo.json"
        spec.write_text("{", encoding="utf-8")
        assert main(["serve", *SPEED, "--slo", str(spec)]) == 2
        captured = capsys.readouterr()
        assert "--health-out" in captured.err
        assert "served" not in captured.out

    def test_damaged_spec_fails_before_the_run(self, tmp_path, capsys):
        spec = tmp_path / "slo.json"
        spec.write_text('{"format": "repro-slo', encoding="utf-8")
        health = tmp_path / "health.json"
        assert main(["serve", *SPEED, "--slo", str(spec),
                     "--health-out", str(health)]) == 2
        captured = capsys.readouterr()
        assert "slo.json" in captured.err
        assert "served" not in captured.out
        assert not health.exists()


class TestServeTracing:
    def test_deterministic_run_report(self, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(["serve", *SPEED, "--trace-out", str(path),
                         "--trace-deterministic"]) == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_report_carries_service_spans(self, tmp_path):
        from repro.obs import RunReport

        path = tmp_path / "report.json"
        assert main(["serve", *SPEED, "--trace-out", str(path)]) == 0
        report = RunReport.load(path)
        names = {span["name"] for span in report.spans}
        assert "service.submit" in names
        assert "service.step" in names
