"""Closure extraction, manifest determinism, and archive cross-checks."""

from __future__ import annotations

import hashlib
import json
import textwrap

import pytest

from repro.core.archive import PreservationArchive
from repro.core.metadata import PreservationMetadata
from repro.errors import ConfigurationError, PreservationError
from repro.lint import (
    LintReport,
    archive_closure_sources,
    check_manifest_against_archive,
    check_manifest_against_recast,
    check_manifest_against_repository,
    extract_closure,
)
from repro.lint.flow import ClosureManifest, analyze_tree

TREE = {
    "base.py": """
        class Analysis:
            pass

        class AnalysisMetadata:
            def __init__(self, name, inspire_id=""):
                self.name = name
    """,
    "analysis.py": """
        from base import Analysis, AnalysisMetadata
        import helpers

        class ZPeakAnalysis(Analysis):
            def __init__(self):
                self.metadata = AnalysisMetadata(
                    name="TOY_2013_I0042", inspire_id="I0042")

            def init(self):
                self.book("mass", 60, 60.0, 120.0)

            def analyze(self, event):
                return helpers.smear(event, "GT-FINAL")
    """,
    "helpers.py": """
        import util

        def smear(value, tag):
            return value + util.offset()
    """,
    "util.py": """
        def offset():
            return 0.5
    """,
    "unused.py": """
        def never_called():
            return None
    """,
}


def write_tree(root, files: dict) -> None:
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


@pytest.fixture
def tree(tmp_path):
    write_tree(tmp_path, TREE)
    return tmp_path


class TestExtraction:
    def test_closure_contains_reachable_modules_only(self, tree):
        manifest = extract_closure(tree)
        modules = {m["module"] for m in manifest.modules}
        assert {"analysis", "base", "helpers", "util"} <= modules
        assert "unused" not in modules

    def test_closure_records_booked_keys_and_tags(self, tree):
        manifest = extract_closure(tree)
        analysis = next(a for a in manifest.analyses
                        if a["class"] == "ZPeakAnalysis")
        assert analysis["booked_keys"] == ["mass"]
        assert "GT-FINAL" in manifest.conditions_tags

    def test_entry_restriction_by_metadata_name(self, tree):
        manifest = extract_closure(tree, entry="TOY_2013_I0042")
        assert len(manifest.analyses) == 1

    def test_unknown_entry_raises(self, tree):
        with pytest.raises(ConfigurationError):
            extract_closure(tree, entry="NoSuchAnalysis")


class TestDeterminism:
    def test_two_extractions_are_byte_identical(self, tree):
        first = extract_closure(tree).to_json_bytes()
        second = extract_closure(tree).to_json_bytes()
        assert first == second

    def test_manifest_has_no_absolute_paths(self, tree):
        payload = extract_closure(tree).to_json_bytes().decode("utf-8")
        assert str(tree) not in payload

    def test_round_trip_through_dict(self, tree):
        manifest = extract_closure(tree)
        clone = ClosureManifest.from_dict(
            json.loads(manifest.to_json_bytes()))
        assert clone.to_json_bytes() == manifest.to_json_bytes()

    def test_from_dict_rejects_foreign_documents(self):
        with pytest.raises(PreservationError):
            ClosureManifest.from_dict({"format": "something-else"})


def _snapshot_payload(tag: str) -> dict:
    return {
        "schema": {"format": "repro-conditions-snapshot"},
        "global_tag": tag,
        "records": [],
    }


def _snapshot_metadata(tag: str) -> PreservationMetadata:
    return PreservationMetadata.build(
        title=f"conditions snapshot {tag}",
        creator="tests",
        experiment="TOY",
        created="2013-01-01",
        artifact_format="json",
        size_bytes=0,
        checksum="",
        producer="tests",
        access_policy="public",
    )


@pytest.fixture
def archived(tree, tmp_path):
    """The tree fully preserved: sources and the GT-FINAL snapshot."""
    graph = analyze_tree(tree)
    archive = PreservationArchive("closure-test")
    archive_closure_sources(archive, graph)
    archive.store(_snapshot_payload("GT-FINAL"), kind="snapshot",
                  metadata=_snapshot_metadata("GT-FINAL"))
    directory = tmp_path / "archive"
    archive.save(directory)
    return directory


class TestArchiveCheck:
    def test_fully_archived_tree_is_clean(self, tree, archived):
        manifest = extract_closure(tree)
        assert check_manifest_against_archive(manifest, archived) == []

    def test_deleting_one_blob_flips_exactly_one_rule(self, tree,
                                                      archived):
        catalogue = json.loads(
            (archived / "catalogue.json").read_text(encoding="utf-8"))
        victim = next(
            entry["digest"] for entry in catalogue["entries"]
            if json.loads(
                (archived / "blobs" / entry["digest"])
                .read_text(encoding="utf-8")).get("module") == "util")
        (archived / "blobs" / victim).unlink()
        manifest = extract_closure(tree)
        findings = check_manifest_against_archive(manifest, archived)
        assert [f.code for f in findings] == ["DAS208"]
        assert "'util'" in findings[0].message
        assert LintReport.from_findings(findings).exit_code == 2

    def test_source_drift_is_reported(self, tree, archived):
        path = tree / "util.py"
        path.write_text(path.read_text(encoding="utf-8")
                        + "\nEXTRA = 1\n", encoding="utf-8")
        manifest = extract_closure(tree)
        findings = check_manifest_against_archive(manifest, archived)
        das208 = [f for f in findings if f.code == "DAS208"]
        assert len(das208) == 1 and "differs" in das208[0].message

    def test_missing_snapshot_tag_is_an_error(self, tree, tmp_path):
        graph = analyze_tree(tree)
        archive = PreservationArchive("no-snapshot")
        archive_closure_sources(archive, graph)
        directory = tmp_path / "bare"
        archive.save(directory)
        findings = check_manifest_against_archive(
            extract_closure(tree), directory)
        assert [f.code for f in findings] == ["DAS209"]
        assert "GT-FINAL" in findings[0].message

    def test_unreadable_catalogue_is_a_finding_not_a_crash(self, tree,
                                                           tmp_path):
        directory = tmp_path / "damaged"
        directory.mkdir()
        (directory / "catalogue.json").write_text("{not json",
                                                  encoding="utf-8")
        findings = check_manifest_against_archive(
            extract_closure(tree), directory)
        assert [f.code for f in findings] == ["DAS208"]
        assert "unreadable" in findings[0].message


class TestRepositoryCheck:
    def test_unregistered_analysis_warns(self, tree):
        from repro.rivet.standard_analyses import standard_repository

        manifest = extract_closure(tree)
        findings = check_manifest_against_repository(
            manifest, standard_repository())
        das210 = [f for f in findings if f.code == "DAS210"]
        assert len(das210) == 1
        assert das210[0].severity.name == "WARNING"

    def test_dynamic_name_downgrades_to_info(self):
        import repro.rivet.standard_analyses as standard_analyses
        from repro.rivet.standard_analyses import standard_repository

        manifest = extract_closure(standard_analyses.__file__)
        findings = check_manifest_against_repository(
            manifest, standard_repository())
        das210 = [f for f in findings if f.code == "DAS210"]
        assert das210 and all(f.severity.name == "INFO"
                              for f in das210)


class TestRecastCheck:
    def test_mapping_outside_closure_warns(self, tree):
        from repro.recast.bridge import RivetSignalRegion

        manifest = extract_closure(tree)
        regions = {
            "TOY-EXO-001": RivetSignalRegion(
                analysis_name="TOY_2013_I0042", histogram_key="mass",
                window_low=60.0, window_high=120.0),
            "TOY-EXO-002": RivetSignalRegion(
                analysis_name="TOY_2013_I9999", histogram_key="mass",
                window_low=0.0, window_high=1.0),
        }
        findings = check_manifest_against_recast(manifest, regions)
        assert [f.code for f in findings] == ["DAS212"]
        assert findings[0].artifact == "TOY-EXO-002"


#: Where book keys and tags come from: a ``global_tag=`` keyword, a
#: ``GT-`` constant that only an unreachable function holds, and
#: ``book(...)`` calls outside any method.
TAGGED = {
    "base.py": """
        class Analysis:
            def book(self, key, *bins):
                return key

        class AnalysisMetadata:
            def __init__(self, name, inspire_id=""):
                self.name = name
    """,
    "conditions.py": """
        def load(global_tag):
            return global_tag

        def unreachable():
            return "GT-NEVER"
    """,
    "helpers.py": """
        def book(key):
            return key

        def fill(self):
            book("free")
            self.book("outside")
            return self
    """,
    "analysis.py": """
        from base import Analysis, AnalysisMetadata
        import conditions
        import helpers

        class TaggedAnalysis(Analysis):
            metadata = AnalysisMetadata(name="TOY_2014_TAGS")

            def init(self):
                self.book("pt", 10, 0.0, 100.0)
                return conditions.load(global_tag="GT-KEYWORD")

            def analyze(self, event):
                self.book("eta")
                return helpers.fill(self)
    """,
}

#: SHA-256 of ``ClosureManifest.to_json_bytes()`` per tree, each built
#: under a directory named ``tree`` (the manifest records the anchor's
#: name); they must never move without a reviewed reason.
MANIFEST_PINS = {
    "closure_tree":
        "88975ff9246105f87bbad8190727f795f303d5a78d683c36238701a2eb8d6326",
    "corpus_seed_1":
        "9ddece5afdb6a202fbff8f1793defb9bd3d47e4490dcac7e84484b184c4feb29",
    "corpus_seed_2":
        "ce74d4c424ab05bcfb58c37f6d236ccb6312eb3813d77cefb72223b8335dd273",
    "corpus_seed_3":
        "02fa451e5de83ba3255f9c4d00c99651c4408632ef4d59effe30c6922e100c7d",
    "tagged_tree":
        "86c5a91bb4769a09b9d2986905f6bf470b79f6fc3835fcdf22ed29372341600a",
}


def _build_pinned(name: str, root) -> None:
    from perfbench.corpus import write_corpus

    if name.startswith("corpus_seed_"):
        write_corpus(root, int(name.rpartition("_")[2]))
    else:
        write_tree(root, TREE if name == "closure_tree" else TAGGED)


class TestManifestPins:
    @pytest.mark.parametrize("name", sorted(MANIFEST_PINS))
    def test_manifest_matches_pinned_digest(self, name, tmp_path):
        root = tmp_path / "tree"
        _build_pinned(name, root)
        payload = extract_closure(root).to_json_bytes()
        assert hashlib.sha256(payload).hexdigest() == MANIFEST_PINS[name]

    def test_tagged_tree_collects_keys_and_tags(self, tmp_path):
        write_tree(tmp_path, TAGGED)
        manifest = extract_closure(tmp_path)
        assert manifest.conditions_tags == ("GT-KEYWORD",)
        [analysis] = manifest.analyses
        assert analysis["booked_keys"] == ["eta", "pt"]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
