"""File-based lint targets: identify artifacts on disk and lint them.

The CLI hands this module paths; each is classified by *content*, not
by name — a JSON document is recognised as a bundle, snapshot, skim,
slim, or provenance export from its structure, a directory holding a
``catalogue.json`` is an archive, and ``.py`` files (or directories of
them) go through the AST checker.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.canonical import load_json_document
from repro.errors import PreservationError
from repro.lint.consistency import (
    lint_archive_directory,
    lint_bundle,
    lint_conditions_coverage,
    lint_conditions_snapshot,
    lint_maturity_vs_sharing,
    lint_provenance_document,
    lint_recast_bridge,
    lint_skim_spec,
    lint_slim_spec,
)
from repro.lint.engine import get_rule
from repro.lint.findings import Finding
from repro.lint.pycheck import lint_source_file


def classify_document(record: dict) -> str:
    """The artifact kind of one JSON document (``"unknown"`` if none)."""
    if record.get("format") == "repro-preserved-analysis":
        return "bundle"
    if (record.get("schema", {}).get("format")
            == "repro-conditions-snapshot"):
        return "snapshot"
    if "artifacts" in record:
        return "provenance"
    if "cut" in record and "name" in record:
        return "skim"
    if "columns" in record and "name" in record:
        return "slim"
    return "unknown"


def lint_document(record: dict, *, file: str = "") -> list[Finding]:
    """Dispatch one JSON document to the matching rule set."""
    kind = classify_document(record)
    if kind == "bundle":
        return lint_bundle(record, file=file)
    if kind == "snapshot":
        return lint_conditions_snapshot(record, file=file)
    if kind == "provenance":
        return lint_provenance_document(record, file=file)
    if kind == "skim":
        return lint_skim_spec(record, file=file)
    if kind == "slim":
        return lint_slim_spec(record, file=file)
    return []


def lint_path(path: str | Path) -> list[Finding]:
    """Lint one file or directory from disk.

    Unknown or unreadable documents produce an ``DAS010`` finding
    rather than an exception — a linter should never crash on the
    content it was built to distrust.
    """
    path = Path(path)
    if path.is_dir():
        if (path / "catalogue.json").is_file():
            return lint_archive_directory(path)
        findings: list[Finding] = []
        archives = sorted(catalogue.parent
                          for catalogue in path.rglob("catalogue.json")
                          if catalogue.is_file())
        for archive in archives:
            findings.extend(lint_archive_directory(archive))

        def in_archive(candidate: Path) -> bool:
            return any(archive in candidate.parents
                       for archive in archives)

        for source in sorted(path.rglob("*.py")):
            if in_archive(source):
                continue
            findings.extend(lint_source_file(source))
        for document in sorted(path.rglob("*.json")):
            if document.parent.name == "blobs" or in_archive(document):
                continue
            findings.extend(_lint_json_file(document))
        return findings
    if path.suffix == ".py":
        return lint_source_file(path)
    if path.suffix == ".json":
        return _lint_json_file(path)
    return [get_rule("DAS010").finding(
        f"cannot classify lint target {path.name!r}", file=str(path),
    )]


def _lint_json_file(path: Path) -> list[Finding]:
    try:
        record = load_json_document(path, lambda record: record,
                                    PreservationError, "document")
    except PreservationError as exc:
        return [get_rule("DAS010").finding(
            f"document unreadable: {exc}", file=str(path),
        )]
    if not isinstance(record, dict):
        return []
    return lint_document(record, file=str(path))


def lint_bundled_artifacts() -> list[Finding]:
    """Lint the artifacts the library itself ships.

    Covers the standard RIVET analysis sources, conditions coverage of
    the default store over its calibration range, the demo RECAST
    bridge wiring, and every bundled experiment's maturity ratings
    against its sharing grid. This is what CI runs to keep the repo
    honest against its own linter.
    """
    import repro.rivet.standard_analyses as standard_analyses
    from repro.conditions import default_conditions
    from repro.experiments import all_experiments
    from repro.interview.maturity import (
        SHARING_ACCESS_SCALE,
        rate_from_evidence,
    )
    from repro.interview.responses import response_for_experiment
    from repro.rivet.standard_analyses import standard_repository

    findings = lint_source_file(standard_analyses.__file__)
    store = default_conditions()
    for tag in ("GT-PROMPT", "GT-FINAL"):
        findings.extend(lint_conditions_coverage(
            store, tag, list(range(1, 101))))
    repository = standard_repository()
    catalog, signal_regions = _demo_recast_setup()
    findings.extend(lint_recast_bridge(catalog, signal_regions,
                                       repository))
    for profile in all_experiments():
        rating = rate_from_evidence(SHARING_ACCESS_SCALE,
                                    profile.interview_evidence)
        response = response_for_experiment(profile)
        if response.sharing_grid is not None:
            findings.extend(lint_maturity_vs_sharing(
                profile.name, rating, response.sharing_grid))
    return findings


def _demo_recast_setup():
    """The high-mass dimuon search wired to its bridge mapping."""
    from repro.datamodel.skimslim import (
        CountCut,
        MassWindowCut,
        AndCut,
        SkimSpec,
    )
    from repro.recast.bridge import RivetSignalRegion
    from repro.recast.catalog import AnalysisCatalog, PreservedSearch

    catalog = AnalysisCatalog("TOY-GPD")
    catalog.register(PreservedSearch(
        analysis_id="TOY-GPD-EXO-001",
        title="High-mass dimuon resonance search",
        experiment="TOY-GPD",
        selection=SkimSpec("highmass-dimuon", AndCut((
            CountCut("muons", 2, min_pt=30.0),
            MassWindowCut("muons", 400.0, 3000.0,
                          opposite_charge=True),
        ))),
        n_observed=3,
        background=2.8,
        background_uncertainty=0.9,
        luminosity_ipb=20000.0,
    ))
    signal_regions = {
        "TOY-GPD-EXO-001": RivetSignalRegion(
            analysis_name="TOY_2013_I0007",
            histogram_key="mass",
            window_low=400.0,
            window_high=3000.0,
        ),
    }
    return catalog, signal_regions
