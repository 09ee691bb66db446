"""CLI observability: --trace-out, repro trace, repro metrics."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import RunReport, validate_run_report


@pytest.fixture(scope="module")
def traced_campaign(tmp_path_factory):
    """One deterministic traced campaign run in its own directory."""
    directory = tmp_path_factory.mktemp("obs_cli")
    report_path = directory / "runreport.json"
    code = main(["campaign", "--name", "obs-cli", "--runs", "3",
                 "--sections", "10", "--seed", "11",
                 "--output", str(directory / "aods.jsonl"),
                 "--trace-out", str(report_path),
                 "--trace-deterministic"])
    assert code == 0
    return report_path


class TestTraceOut:
    def test_report_validates(self, traced_campaign):
        record = json.loads(traced_campaign.read_text())
        validate_run_report(record)

    def test_campaign_trace_has_sweep_and_run_spans(self,
                                                    traced_campaign):
        report = RunReport.load(traced_campaign)
        assert [span["name"] for span in report.root_spans()] \
            == ["campaign.process"]
        runs = [span for span in report.spans
                if span["name"] == "campaign.run"]
        assert len(runs) == 3

    def test_provenance_names_command_and_campaign(self,
                                                   traced_campaign):
        report = RunReport.load(traced_campaign)
        assert report.provenance["command"] == "campaign"
        assert report.provenance["campaign"] == "obs-cli"
        assert len(report.provenance["runs"]) == 3

    def _relative_run(self, monkeypatch, directory, jobs="1"):
        """One traced campaign run from inside ``directory``.

        Relative paths keep the provenance block (which records the
        output path) identical across working directories — the same
        setup the CI byte-identity check uses.
        """
        directory.mkdir()
        monkeypatch.chdir(directory)
        assert main(["campaign", "--name", "obs-cli", "--runs", "3",
                     "--sections", "10", "--seed", "11",
                     "--jobs", jobs, "--output", "aods.jsonl",
                     "--trace-out", "runreport.json",
                     "--trace-deterministic"]) == 0
        return (directory / "runreport.json").read_bytes()

    def test_deterministic_runs_are_byte_identical(self, tmp_path,
                                                   monkeypatch):
        first = self._relative_run(monkeypatch, tmp_path / "run1")
        second = self._relative_run(monkeypatch, tmp_path / "run2")
        assert first == second

    def test_byte_identity_across_job_counts(self, tmp_path,
                                             monkeypatch):
        serial = self._relative_run(monkeypatch, tmp_path / "serial")
        pooled = self._relative_run(monkeypatch, tmp_path / "pooled",
                                    jobs="2")
        assert serial == pooled

    def test_write_is_announced(self, tmp_path, capsys):
        assert main(["campaign", "--name", "obs-cli", "--runs", "1",
                     "--sections", "5",
                     "--output", str(tmp_path / "aods.jsonl"),
                     "--trace-out", str(tmp_path / "rr.json"),
                     "--trace-deterministic"]) == 0
        # The status line goes to stderr: stdout may be a JSON document.
        captured = capsys.readouterr()
        assert "wrote run report" in captured.err
        assert "wrote run report" not in captured.out

    def test_without_flag_no_report_is_written(self, tmp_path):
        assert main(["campaign", "--name", "obs-cli", "--runs", "1",
                     "--sections", "5",
                     "--output", str(tmp_path / "aods.jsonl")]) == 0
        assert list(tmp_path.glob("*.json")) == []


class TestFailedCommandTraceOut:
    """A traced command that fails still exits 2 with its one-line
    error, and still writes its run report."""

    def _campaign(self, tmp_path, *extra, report="rr.json"):
        return main(["campaign", "--name", "obs-cli", "--sections", "2",
                     "--output", str(tmp_path / "aods.jsonl"),
                     "--trace-out", str(tmp_path / report),
                     "--trace-deterministic", *extra])

    def test_report_records_the_error(self, tmp_path, capsys):
        assert self._campaign(tmp_path, "--runs", "0") == 2
        err = capsys.readouterr().err
        assert "error: --runs must be >= 1, got 0" in err
        record = json.loads((tmp_path / "rr.json").read_bytes())
        validate_run_report(record)
        assert record["provenance"] == {
            "command": "campaign", "error": "--runs must be >= 1, got 0"}

    def test_report_keeps_the_finished_spans(self, tmp_path, capsys):
        assert self._campaign(tmp_path, "--runs", "2",
                              "--global-tag", "GT-MISSING") == 2
        assert "unknown global tag" in capsys.readouterr().err
        record = json.loads((tmp_path / "rr.json").read_bytes())
        validate_run_report(record)
        spans = record["trace"]["spans"]
        assert [(s["name"], s["status"]) for s in spans] == [
            ("campaign.process", "error")]
        assert "unknown global tag" in record["provenance"]["error"]

    def test_failed_save_reports_both_errors(self, tmp_path, capsys):
        assert self._campaign(tmp_path, "--runs", "0",
                              report="missing/rr.json") == 2
        err = capsys.readouterr().err
        assert "error: --runs must be >= 1, got 0" in err
        assert "error: cannot write run report" in err
        assert not (tmp_path / "missing").exists()


class TestProcessTraceOut:
    def test_process_writes_validating_report(self, tmp_path):
        gen_path = tmp_path / "gen.jsonl"
        assert main(["generate", "--process", "z_to_mumu", "--events",
                     "10", "--seed", "9", "--output",
                     str(gen_path)]) == 0
        report_path = tmp_path / "runreport.json"
        assert main(["process", "--input", str(gen_path), "--output",
                     str(tmp_path / "aod.jsonl"), "--run", "42",
                     "--trace-out", str(report_path),
                     "--trace-deterministic"]) == 0
        report = RunReport.load(report_path)
        assert report.provenance["command"] == "process"
        assert any(span["name"] == "reco.reconstruct_many"
                   for span in report.spans)


class TestGenerateTraceOut:
    def _run(self, monkeypatch, directory) -> bytes:
        directory.mkdir()
        monkeypatch.chdir(directory)
        assert main(["generate", "--process", "minbias", "--events", "12",
                     "--seed", "5", "--output", "gen.jsonl",
                     "--trace-out", "runreport.json",
                     "--trace-deterministic"]) == 0
        return (directory / "runreport.json").read_bytes()

    def test_profile_splits_generation_from_the_write(self, tmp_path,
                                                      monkeypatch,
                                                      capsys):
        self._run(monkeypatch, tmp_path / "run")
        report = RunReport.load(tmp_path / "run" / "runreport.json")
        assert [span["name"] for span in report.root_spans()] \
            == ["generate.events", "generate.write"]
        assert report.provenance["command"] == "generate"
        capsys.readouterr()
        assert main(["profile", "runreport.json"]) == 0
        paths = [line.split()[-1]
                 for line in capsys.readouterr().out.splitlines()[2:]]
        assert sorted(paths) == ["generate.events", "generate.write"]

    def test_deterministic_runs_are_byte_identical(self, tmp_path,
                                                   monkeypatch):
        first = self._run(monkeypatch, tmp_path / "run1")
        second = self._run(monkeypatch, tmp_path / "run2")
        assert first == second

    def test_tracing_leaves_the_dataset_unchanged(self, tmp_path,
                                                  monkeypatch):
        self._run(monkeypatch, tmp_path / "traced")
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--process", "minbias", "--events", "12",
                     "--seed", "5", "--output", "plain.jsonl"]) == 0
        assert (tmp_path / "plain.jsonl").read_bytes() \
            == (tmp_path / "traced" / "gen.jsonl").read_bytes()


class TestLintTraceOut:
    def test_lint_writes_report_with_target_spans(self, tmp_path):
        target = tmp_path / "analysis.py"
        target.write_text("import time\nnow = time.time()\n")
        report_path = tmp_path / "runreport.json"
        code = main(["lint", str(target),
                     "--trace-out", str(report_path),
                     "--trace-deterministic"])
        assert code != 0  # wall-clock read is a lint error
        report = RunReport.load(report_path)
        assert [span["name"] for span in report.root_spans()] \
            == ["lint.run"]
        (target_span,) = [span for span in report.spans
                          if span["name"] == "lint.target"]
        assert target_span["attributes"]["n_findings"] >= 1
        assert report.provenance["exit_code"] == code
        counters = {(c["name"], tuple(sorted(c["labels"].items()))): c
                    for c in report.metrics["counters"]}
        assert any(name == "lint.findings" for name, _ in counters)

    def test_json_stdout_stays_json_when_traced(self, tmp_path, capsys):
        target = tmp_path / "analysis.py"
        target.write_text("import time\nnow = time.time()\n")
        report_path = tmp_path / "runreport.json"
        main(["lint", "--deep", "--format", "json", str(target),
              "--trace-out", str(report_path)])
        captured = capsys.readouterr()
        assert json.loads(captured.out)["findings"]
        assert "wrote run report" in captured.err

    def test_deep_lint_opens_one_span_per_pass(self, tmp_path):
        target = tmp_path / "analysis.py"
        target.write_text("import time\nnow = time.time()\n")
        report_path = tmp_path / "runreport.json"
        main(["lint", "--deep", str(target), "--bundled",
              "--trace-out", str(report_path), "--trace-deterministic"])
        report = RunReport.load(report_path)
        targets = [span for span in report.spans
                   if span["name"] == "lint.target"]
        assert len(targets) == 2
        for span in targets:
            assert [child["name"]
                    for child in report.children_of(span["span_id"])] \
                == ["lint.shallow", "lint.graph", "lint.flow",
                    "lint.par", "lint.det"]


class TestTraceAndMetricsCommands:
    def test_trace_renders_the_tree(self, traced_campaign, capsys):
        assert main(["trace", str(traced_campaign)]) == 0
        out = capsys.readouterr().out
        assert "trace 'repro-campaign'" in out
        assert "campaign.run" in out
        assert "deterministic (timings normalized)" in out

    def test_metrics_renders_text(self, traced_campaign, capsys):
        assert main(["metrics", str(traced_campaign)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE campaign_runs_total counter" in out
        assert "campaign_runs_total" in out

    def test_metrics_json_mode(self, traced_campaign, capsys):
        assert main(["metrics", str(traced_campaign),
                     "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in snapshot["counters"]]
        assert "campaign.runs" in names

    def test_trace_on_invalid_file_fails_cleanly(self, tmp_path,
                                                 capsys):
        path = tmp_path / "not-a-report.json"
        path.write_text("{}")
        assert main(["trace", str(path)]) != 0


#: A small command line for every subcommand, two where an early
#: return writes a report too. ``{inputs}`` is the shared input
#: directory; outputs are relative, so they land in the run directory.
_COMMAND_LINES = {
    "generate": ["--events 3 --seed 5 --output gen.jsonl"],
    "process": ["--input {inputs}/gen.jsonl --output aod.jsonl --run 7"],
    "campaign": ["--runs 1 --sections 2 --output camp.jsonl "
                 "--manifest manifest.json"],
    "skim": ["--input {inputs}/aod.jsonl --spec {inputs}/skim.json "
             "--output skim.jsonl"],
    "convert-level2": ["--input {inputs}/aod.jsonl --output l2.jsonl"],
    "display": ["--input {inputs}/l2.jsonl",
                "--input {inputs}/l2.jsonl --svg event.svg"],
    "validate-bundle": ["--bundle {inputs}/bundle.json"],
    "lint": ["{inputs}/analysis.py --deep --format json",
             "--list-rules"],
    "closure": ["{closure} --output closure.json", "{closure}"],
    "trace": ["{inputs}/report.json"],
    "metrics": ["{inputs}/report.json",
                "{inputs}/report.json --format json"],
    "health": ["{inputs}/health.json --format json"],
    "profile": ["{inputs}/report.json --collapsed stacks.folded "
                "--format json"],
    "serve": ["--events 3 --toys 10 --event-log events.jsonl "
              "--telemetry-out telemetry.json --health-out health.json",
              "--write-script script.json"],
    "interview": ["--experiment CMS"],
    "table1": [""],
    "maturity": [""],
}


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory, z_aods):
    """The input files the command lines above read."""
    from repro.core import PreservedAnalysisBundle
    from repro.datamodel import CountCut, SkimSpec, SlimSpec

    inputs = tmp_path_factory.mktemp("command_inputs")
    assert main(["generate", "--events", "4", "--seed", "3",
                 "--output", str(inputs / "gen.jsonl"),
                 "--trace-out", str(inputs / "report.json")]) == 0
    assert main(["process", "--input", str(inputs / "gen.jsonl"),
                 "--output", str(inputs / "aod.jsonl")]) == 0
    assert main(["convert-level2", "--input", str(inputs / "aod.jsonl"),
                 "--output", str(inputs / "l2.jsonl")]) == 0
    assert main(["serve", "--events", "3", "--toys", "10",
                 "--health-out", str(inputs / "health.json")]) == 0
    (inputs / "skim.json").write_text(json.dumps({
        "name": "mu", "cut": {"kind": "count", "collection": "muons",
                              "min_count": 1, "min_pt": 10.0}}))
    bundle = PreservedAnalysisBundle.create(
        "cli-bundle", z_aods[:10], SkimSpec("s", CountCut("muons", 1)),
        SlimSpec("n", ("met",)))
    (inputs / "bundle.json").write_text(json.dumps(bundle.to_dict()))
    (inputs / "analysis.py").write_text("import time\nnow = time.time()\n")
    return inputs


def _command_cases():
    from repro.cli import _COMMANDS

    return [pytest.param(command, line, id=f"{command}:{line}")
            for command in sorted(_COMMANDS)
            for line in _COMMAND_LINES[command]]


class TestEveryCommandTraces:
    """``main()`` writes a run report for every subcommand, and
    tracing changes neither stdout nor any output file."""

    def _run(self, monkeypatch, capsys, directory, argv):
        directory.mkdir()
        monkeypatch.chdir(directory)
        code = main(argv)
        out = capsys.readouterr().out
        files = {path.name: path.read_bytes()
                 for path in directory.iterdir()}
        return code, out, files

    @pytest.mark.parametrize("command,line", _command_cases())
    def test_report_and_unchanged_outputs(self, command, line,
                                          command_inputs, tmp_path,
                                          monkeypatch, capsys):
        from repro.rivet import standard_analyses

        argv = [command] + line.format(
            inputs=command_inputs,
            closure=standard_analyses.__file__).split()
        traced = argv + ["--trace-out", "runreport.json",
                         "--trace-deterministic"]
        plain = self._run(monkeypatch, capsys, tmp_path / "plain", argv)
        first = self._run(monkeypatch, capsys, tmp_path / "one", traced)
        second = self._run(monkeypatch, capsys, tmp_path / "two", traced)

        report = first[2].pop("runreport.json")
        assert second[2].pop("runreport.json") == report
        assert first == plain
        assert second == plain
        record = json.loads(report)
        validate_run_report(record)
        assert record["provenance"]["command"] == command
