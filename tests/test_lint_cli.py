"""The `repro lint` subcommand: exit codes, formats, selection."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main


CLEAN = "def double(x):\n    return 2 * x\n"

WARNING_ONLY = textwrap.dedent("""
    import os

    def tag():
        return os.getenv("GLOBAL_TAG")
""")

WITH_ERROR = textwrap.dedent("""
    import time

    def stamp():
        return time.time()
""")


@pytest.fixture
def module(tmp_path):
    def write(source: str, name: str = "mod.py"):
        path = tmp_path / name
        path.write_text(source, encoding="utf-8")
        return str(path)
    return write


class TestExitCodes:
    def test_exit_0_on_clean_file(self, module, capsys):
        assert main(["lint", module(CLEAN)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_1_on_warning(self, module):
        assert main(["lint", module(WARNING_ONLY)]) == 1

    def test_exit_2_on_error(self, module, capsys):
        assert main(["lint", module(WITH_ERROR)]) == 2
        assert "DAS001" in capsys.readouterr().out

    def test_error_dominates_warning(self, module):
        assert main(["lint", module(WARNING_ONLY, "a.py"),
                     module(WITH_ERROR, "b.py")]) == 2


class TestFormats:
    def test_json_output_parses(self, module, capsys):
        assert main(["lint", "--format", "json",
                     module(WITH_ERROR)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2
        assert payload["findings"][0]["code"] == "DAS001"

    def test_json_clean_report(self, module, capsys):
        assert main(["lint", "--format", "json", module(CLEAN)]) == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []


class TestSelection:
    def test_ignore_downgrades_exit(self, module):
        assert main(["lint", "--ignore", "DAS001",
                     module(WITH_ERROR)]) == 0

    def test_select_limits_to_prefix(self, module, capsys):
        assert main(["lint", "--select", "DAS005",
                     module(WARNING_ONLY + WITH_ERROR)]) == 1
        out = capsys.readouterr().out
        assert "DAS005" in out
        assert "DAS001" not in out


class TestTargets:
    def test_missing_target_is_an_error(self, capsys):
        assert main(["lint", "/nonexistent/analysis.py"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_no_targets_is_an_error(self, capsys):
        assert main(["lint"]) == 2

    def test_directory_target_recurses(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "bad.py").write_text(WITH_ERROR,
                                                 encoding="utf-8")
        assert main(["lint", str(tmp_path)]) == 2

    def test_json_document_target(self, tmp_path):
        spec = tmp_path / "skim.json"
        spec.write_text(json.dumps({"name": "s", "cut": {
            "kind": "count", "collection": "axions", "min_count": 1,
        }}), encoding="utf-8")
        assert main(["lint", str(spec)]) == 2

    def test_list_rules_prints_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DAS001" in out
        assert "DAS112" in out


class TestBundledArtifacts:
    def test_bundled_corpus_is_clean(self, capsys):
        assert main(["lint", "--bundled"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_repo_examples_are_clean(self):
        import pathlib

        import repro.rivet.standard_analyses as module

        repo_root = pathlib.Path(__file__).resolve().parent.parent
        examples = repo_root / "examples"
        assert main(["lint", "--bundled", str(examples),
                     module.__file__]) == 0


DEEP_TREE = {
    "base.py": textwrap.dedent("""
        class Analysis:
            pass

        class AnalysisMetadata:
            def __init__(self, name, inspire_id=""):
                self.name = name
    """),
    "analysis.py": textwrap.dedent("""
        from base import Analysis, AnalysisMetadata
        import helpers

        class ZPeakAnalysis(Analysis):
            def __init__(self):
                self.metadata = AnalysisMetadata(
                    name="TOY_2013_I0042", inspire_id="I0042")

            def analyze(self, event):
                return helpers.smear(event)
    """),
    "helpers.py": textwrap.dedent("""
        import util

        def smear(value):
            return value + util.clock_offset()
    """),
    "util.py": textwrap.dedent("""
        import time

        def clock_offset():
            return time.time() % 1.0
    """),
}


@pytest.fixture
def deep_tree(tmp_path):
    for relative, source in DEEP_TREE.items():
        (tmp_path / relative).write_text(source, encoding="utf-8")
    return tmp_path


class TestDeepPass:
    def test_shallow_misses_the_entry_point_hazard(self, deep_tree):
        assert main(["lint", str(deep_tree / "analysis.py")]) == 0

    def test_deep_flags_it_with_the_chain(self, deep_tree, capsys):
        assert main(["lint", "--deep", str(deep_tree)]) == 2
        out = capsys.readouterr().out
        assert "DAS201" in out
        assert "helpers.smear -> util.clock_offset" in out

    def test_deep_on_a_single_file_scans_its_tree(self, deep_tree,
                                                  capsys):
        assert main(["lint", "--deep",
                     str(deep_tree / "analysis.py")]) == 2
        assert "DAS201" in capsys.readouterr().out


class TestSuppress:
    def test_suppress_drops_a_code_with_reason(self, module):
        assert main(["lint", "--suppress",
                     "DAS001: wall clock is the fixture's point",
                     module(WITH_ERROR)]) == 0

    def test_suppress_without_reason_is_an_error(self, module, capsys):
        assert main(["lint", "--suppress", "DAS001",
                     module(WITH_ERROR)]) == 2
        assert "CODE:REASON" in capsys.readouterr().err

    def test_suppress_with_blank_reason_is_an_error(self, module,
                                                    capsys):
        assert main(["lint", "--suppress", "DAS001:  ",
                     module(WITH_ERROR)]) == 2
        assert "CODE:REASON" in capsys.readouterr().err


class TestSelfLint:
    def test_library_passes_its_own_shallow_lint(self, capsys):
        # The CI self-lint step's command: every rule but the three
        # reasoned suppressions runs over the library's own source.
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        assert main([
            "lint", str(src),
            "--suppress", "DAS004: the CLI and dataset writers are the "
            "file-IO layer; direct file access is their purpose",
            "--suppress", "DAS006: module-level registries and lookup "
            "tables are intentional, read-only library structure",
            "--suppress", "DAS007: validation and capture harnesses "
            "catch broadly to convert failures into recorded outcomes",
        ]) == 0, capsys.readouterr().out


class TestClosureCommand:
    def test_manifest_to_stdout_is_deterministic(self, deep_tree,
                                                 capsys):
        assert main(["closure", str(deep_tree)]) == 0
        first = capsys.readouterr().out
        assert main(["closure", str(deep_tree)]) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["format"] == "repro-closure-manifest"
        assert {m["module"] for m in payload["modules"]} >= {
            "analysis", "helpers", "util"}

    def test_output_file_written(self, deep_tree, tmp_path, capsys):
        target = tmp_path / "manifest.json"
        assert main(["closure", str(deep_tree),
                     "--output", str(target)]) == 0
        assert json.loads(target.read_text(encoding="utf-8"))
        assert "wrote closure manifest" in capsys.readouterr().out

    def test_check_repository_reports_findings(self, deep_tree,
                                               capsys):
        assert main(["closure", str(deep_tree),
                     "--check-repository"]) == 1
        assert "DAS210" in capsys.readouterr().out

    def test_check_archive_missing_blob_exits_2(self, deep_tree,
                                                tmp_path, capsys):
        from repro.core.archive import PreservationArchive
        from repro.lint import archive_closure_sources
        from repro.lint.flow import analyze_tree

        graph = analyze_tree(deep_tree)
        archive = PreservationArchive("cli-closure")
        archive_closure_sources(archive, graph)
        directory = tmp_path / "archive"
        archive.save(directory)
        assert main(["closure", str(deep_tree),
                     "--check-archive", str(directory)]) == 0

        victim = next(
            entry["digest"]
            for entry in json.loads((directory / "catalogue.json")
                                    .read_text(encoding="utf-8"))["entries"]
            if json.loads((directory / "blobs" / entry["digest"])
                          .read_text(encoding="utf-8"))
            .get("module") == "util")
        (directory / "blobs" / victim).unlink()
        capsys.readouterr()
        assert main(["closure", str(deep_tree),
                     "--check-archive", str(directory)]) == 2
        assert "DAS208" in capsys.readouterr().out

    def test_unknown_entry_is_an_error(self, deep_tree, capsys):
        assert main(["closure", str(deep_tree),
                     "--entry", "Nope"]) == 2
        assert "Nope" in capsys.readouterr().err

    def test_missing_target_is_an_error(self, capsys):
        assert main(["closure", "/nonexistent/tree"]) == 2
        assert "does not exist" in capsys.readouterr().err
