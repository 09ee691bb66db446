"""Cross-artifact consistency rules.

Each function here takes preserved *documents* (plain dicts, the
serialised forms the archive actually stores) or live registry objects,
and cross-checks them against the schemas and catalogues the rest of
the library defines — without executing any preserved processing.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.conditions.iov import INFINITE_RUN
from repro.core.canonical import load_json_document
from repro.datamodel.schema import field_documentation
from repro.errors import InterviewError, PreservationError
from repro.datamodel.skimslim import available_derived_columns
from repro.datamodel.tiers import DataTier
from repro.interview.sharing import DataSharingGrid
from repro.lint.engine import register_rule
from repro.lint.findings import Finding, Severity

RULE_SKIM_COLLECTION = register_rule(
    "DAS101", "skim-unknown-collection", Severity.ERROR, "datamodel",
    "A skim spec cuts on a collection absent from the AOD tier schema.",
    "A preserved selection that names a field the tier does not carry "
    "can never be re-applied; the mismatch is invisible until re-run "
    "time without this check.",
    '``{"kind": "count", "collection": "taus", ...}``',
)

RULE_SLIM_COLUMN = register_rule(
    "DAS102", "slim-unknown-column", Severity.ERROR, "datamodel",
    "A slim spec requests a derived column outside the fixed vocabulary.",
    "Slims are descriptions, not code: a column name with no registered "
    "expression makes the description unexecutable.",
    '``{"name": "s", "columns": ["met", "sphericity"]}``',
)

RULE_IOV_GAP = register_rule(
    "DAS103", "iov-coverage-gap", Severity.ERROR, "conditions",
    "A conditions folder leaves declared runs without a valid payload.",
    "Reconstruction of a run in the gap fails (or silently picks "
    "nothing) at re-run time; campaigns must declare runs whose "
    "conditions are fully covered.",
    "a snapshot of runs [1, 40] whose alignment folder stops at run 29",
)

RULE_IOV_OVERLAP = register_rule(
    "DAS104", "iov-overlap", Severity.ERROR, "conditions",
    "A conditions document holds overlapping IOVs within one folder.",
    "Overlaps make the payload for a run ambiguous; the live store "
    "rejects them at insert, so an overlapping document was corrupted "
    "or hand-edited after export.",
    "two IOVs [1, 20] and [15, 30] under the same folder",
)

RULE_PROV_DANGLING = register_rule(
    "DAS105", "provenance-dangling-parent", Severity.ERROR, "provenance",
    "A provenance record references a parent that is not registered.",
    "Dangling parents are exactly the lost-parentage failure the audit "
    "quantifies: the derivation chain cannot be walked back.",
    'a record with ``"parents": ["gen-missing"]`` and no such artifact',
)

RULE_PROV_CYCLE = register_rule(
    "DAS106", "provenance-cycle", Severity.ERROR, "provenance",
    "A provenance document contains a derivation cycle.",
    "An artifact cannot be its own ancestor; a cyclic document cannot "
    "even be loaded into the lineage graph.",
    "A derived from B derived from A",
)

RULE_PROV_NO_PRODUCER = register_rule(
    "DAS107", "provenance-missing-producer", Severity.WARNING,
    "provenance",
    "A provenance record carries no computing description.",
    "Without the producer record the artifact can be verified but "
    "never regenerated — the audit will report it non-reproducible.",
    'a record with ``"producer": null``',
)

RULE_ARCHIVE_FIXITY = register_rule(
    "DAS108", "archive-fixity-mismatch", Severity.ERROR, "core",
    "An archive entry's digest disagrees with its stored blob.",
    "A catalogue row whose blob is missing or hashes differently is "
    "silent corruption; retrieval would raise only when someone "
    "finally asks for that artifact.",
    "a blob file edited after ``save()``",
)

RULE_ARCHIVE_ORPHAN = register_rule(
    "DAS109", "archive-orphan-blob", Severity.WARNING, "core",
    "An archive directory holds blobs absent from the catalogue.",
    "Orphan content is unreachable through the catalogue and will be "
    "lost by any migration that walks entries rather than files.",
    "a ``blobs/<digest>`` file with no catalogue row",
)

RULE_RECAST_UNREGISTERED = register_rule(
    "DAS110", "recast-unregistered-analysis", Severity.ERROR, "recast",
    "A RECAST signal-region mapping names an unregistered RIVET "
    "analysis.",
    "The bridge back end will fail every request for the search; the "
    "catalogue promises a re-interpretation it cannot deliver.",
    "a mapping to ``TOY_2013_I9999`` with no such plugin",
)

RULE_RECAST_UNMAPPED = register_rule(
    "DAS111", "recast-unmapped-search", Severity.WARNING, "recast",
    "A catalogued search has no signal-region mapping in the bridge.",
    "The search is advertised but cannot be processed by the RIVET "
    "bridge; requests against it die in the back end.",
    "a catalogue entry missing from the bridge's mapping table",
)

RULE_MATURITY_GRID = register_rule(
    "DAS112", "maturity-sharing-mismatch", Severity.WARNING,
    "interview",
    "A sharing/access maturity rating contradicts the sharing grid.",
    "A 9F rating of 4-5 claims systematic open sharing, which the "
    "grid's preservation row must reflect (and vice versa); "
    "disagreement means one of the two records is wrong.",
    "rating 5 with a preservation row shared with 'no one'",
)

RULE_DATASET_NO_RUN_REPORT = register_rule(
    "DAS113", "dataset-missing-run-report", Severity.WARNING, "obs",
    "An archived dataset's provenance references no run report.",
    "Without the run report (trace, metrics, environment) of the "
    "producing execution, the archived dataset cannot show how it was "
    "made — re-execution has no recorded baseline to diff against.",
    'a ``*_dataset`` entry whose provenance block has no '
    '``run_report`` digest',
)


# ----------------------------------------------------------------------
# Skim / slim specs vs the tier schema
# ----------------------------------------------------------------------

def _aod_collections() -> set[str]:
    """Collections a skim may cut on: AOD list fields plus 'leptons'."""
    fields = set(field_documentation(DataTier.AOD))
    collections = {name for name in ("electrons", "muons", "photons",
                                     "jets") if name in fields}
    collections.add("leptons")
    return collections


def _walk_cuts(cut: dict):
    """Yield every node of a serialised cut tree."""
    yield cut
    for child in cut.get("children", []):
        yield from _walk_cuts(child)
    if isinstance(cut.get("child"), dict):
        yield from _walk_cuts(cut["child"])


def lint_skim_spec(record: dict, *, artifact: str = "",
                   file: str = "") -> list[Finding]:
    """DAS101 over one serialised skim spec."""
    name = artifact or str(record.get("name", "<skim>"))
    known = _aod_collections()
    findings = []
    for node in _walk_cuts(record.get("cut", {})):
        collection = node.get("collection")
        if collection is not None and collection not in known:
            findings.append(RULE_SKIM_COLLECTION.finding(
                f"skim {name!r} cuts on collection {collection!r} "
                f"absent from the AOD schema (known: {sorted(known)})",
                artifact=name, file=file,
            ))
    return findings


def lint_slim_spec(record: dict, *, artifact: str = "",
                   file: str = "") -> list[Finding]:
    """DAS102 over one serialised slim spec."""
    name = artifact or str(record.get("name", "<slim>"))
    vocabulary = set(available_derived_columns())
    findings = []
    for column in record.get("columns", []):
        if column not in vocabulary:
            findings.append(RULE_SLIM_COLUMN.finding(
                f"slim {name!r} requests unknown derived column "
                f"{column!r} (available: {sorted(vocabulary)})",
                artifact=name, file=file,
            ))
    return findings


def lint_bundle(record: dict, *, file: str = "") -> list[Finding]:
    """Skim+slim checks over a preserved-analysis bundle document."""
    bundle_id = str(record.get("bundle_id", "<bundle>"))
    findings = []
    if isinstance(record.get("skim"), dict):
        findings.extend(lint_skim_spec(record["skim"],
                                       artifact=bundle_id, file=file))
    if isinstance(record.get("slim"), dict):
        findings.extend(lint_slim_spec(record["slim"],
                                       artifact=bundle_id, file=file))
    return findings


# ----------------------------------------------------------------------
# Conditions coverage
# ----------------------------------------------------------------------

def _coverage_findings(artifact: str, folder: str,
                       intervals: list[tuple[int, int]],
                       first_run: int, last_run: int,
                       file: str = "") -> list[Finding]:
    """Gap/overlap findings for one folder's sorted interval list."""
    findings = []
    ordered = sorted(intervals)
    for (_, left_last), (right_first, _) in zip(ordered, ordered[1:]):
        if right_first <= left_last:
            findings.append(RULE_IOV_OVERLAP.finding(
                f"{folder}: IOV starting at run {right_first} overlaps "
                f"the interval ending at run {left_last}",
                artifact=artifact, file=file,
            ))
    cursor = first_run
    for iov_first, iov_last in ordered:
        if iov_first > cursor:
            gap_end = min(iov_first - 1, last_run)
            if cursor <= gap_end:
                findings.append(RULE_IOV_GAP.finding(
                    f"{folder}: no payload covers runs "
                    f"[{cursor}, {gap_end}]",
                    artifact=artifact, file=file,
                ))
        cursor = max(cursor, iov_last + 1)
        if cursor > last_run:
            break
    if cursor <= last_run:
        findings.append(RULE_IOV_GAP.finding(
            f"{folder}: no payload covers runs [{cursor}, {last_run}]",
            artifact=artifact, file=file,
        ))
    return findings


def lint_conditions_snapshot(record: dict, *,
                             file: str = "") -> list[Finding]:
    """DAS103/DAS104 over a serialised conditions snapshot."""
    artifact = str(record.get("global_tag", "<snapshot>"))
    first_run = int(record.get("first_run", 0))
    last_run = int(record.get("last_run", INFINITE_RUN))
    findings = []
    for folder, pairs in sorted(record.get("folders", {}).items()):
        intervals = [(int(pair["iov"]["first_run"]),
                      int(pair["iov"]["last_run"])) for pair in pairs]
        findings.extend(_coverage_findings(
            artifact, folder, intervals, first_run, last_run, file,
        ))
    return findings


def lint_conditions_coverage(store, global_tag_name: str,
                             runs: list[int]) -> list[Finding]:
    """DAS103 for declared campaign runs against a live store."""
    if not runs:
        return []
    global_tag = store.global_tag(global_tag_name)
    findings = []
    for folder in global_tag.folders():
        tag = global_tag.tag_for(folder)
        iovs = store.iovs(folder, tag)
        for run in sorted(set(runs)):
            if not any(iov.contains(run) for iov in iovs):
                findings.append(RULE_IOV_GAP.finding(
                    f"{folder}/{tag}: no IOV covers declared run {run}",
                    artifact=global_tag_name,
                ))
    return findings


# ----------------------------------------------------------------------
# Provenance documents
# ----------------------------------------------------------------------

def lint_provenance_document(record: dict, *,
                             file: str = "") -> list[Finding]:
    """DAS105/DAS106/DAS107 over a serialised provenance graph."""
    artifacts = record.get("artifacts", [])
    parents: dict[str, tuple[str, ...]] = {}
    findings = []
    for entry in artifacts:
        artifact_id = str(entry.get("artifact_id", ""))
        parents[artifact_id] = tuple(entry.get("parents", ()))
        if not entry.get("producer"):
            findings.append(RULE_PROV_NO_PRODUCER.finding(
                f"artifact {artifact_id!r} has no producer record",
                artifact=artifact_id, file=file,
            ))
    for artifact_id, parent_ids in sorted(parents.items()):
        for parent in parent_ids:
            if parent not in parents:
                findings.append(RULE_PROV_DANGLING.finding(
                    f"artifact {artifact_id!r} references unregistered "
                    f"parent {parent!r}",
                    artifact=artifact_id, file=file,
                ))
    for cycle in _find_cycles(parents):
        findings.append(RULE_PROV_CYCLE.finding(
            "derivation cycle: " + " -> ".join(cycle),
            artifact=cycle[0], file=file,
        ))
    return findings


def _find_cycles(parents: dict[str, tuple[str, ...]]) -> list[list[str]]:
    """Deterministic cycle enumeration via iterative colouring."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in parents}
    cycles: list[list[str]] = []

    def visit(start: str) -> None:
        stack: list[tuple[str, list[str]]] = [(start, [start])]
        while stack:
            node, path = stack.pop()
            if colour.get(node, BLACK) == BLACK:
                continue
            colour[node] = GREY
            for parent in parents.get(node, ()):
                if parent not in parents:
                    continue
                if parent in path:
                    loop = path[path.index(parent):] + [parent]
                    cycles.append(loop)
                elif colour.get(parent) == WHITE:
                    stack.append((parent, path + [parent]))
            colour[node] = BLACK

    for node in sorted(parents):
        if colour[node] == WHITE:
            visit(node)
    return cycles


# ----------------------------------------------------------------------
# Archive directories
# ----------------------------------------------------------------------

def _is_dataset_kind(kind: str) -> bool:
    """Kinds DAS113 audits: ``dataset`` and ``*_dataset`` entries."""
    return kind == "dataset" or kind.endswith("_dataset")


def _catalogue_shape(record) -> dict:
    """``record`` if every field the lint reads has the right type."""
    entries = record.get("entries", []) if isinstance(record, dict) else 0
    if not isinstance(entries, list):
        raise TypeError("not an object with an 'entries' list")
    for entry in entries:
        metadata = entry.get("metadata", {}) \
            if isinstance(entry, dict) else 0
        if not (isinstance(metadata, dict) and all(
                isinstance(metadata.get(key, {}), dict)
                for key in ("technical", "provenance"))):
            raise TypeError("an entry is not an object with object "
                            "metadata")
    return record


def read_archive_catalogue(directory: Path) -> tuple[dict, str]:
    """``(catalogue, error)`` of a saved archive directory.

    Unreadable bytes, bad JSON and a catalogue of the wrong shape come
    back as an ``archive catalogue unreadable`` message, never raised.
    """
    try:
        return load_json_document(directory / "catalogue.json",
                                  _catalogue_shape, PreservationError,
                                  "archive catalogue"), ""
    except PreservationError as exc:
        return {}, f"archive catalogue unreadable: {exc}"


def lint_archive_directory(directory: str | Path) -> list[Finding]:
    """DAS108/DAS109/DAS113 over a saved archive directory."""
    directory = Path(directory)
    catalogue_path = directory / "catalogue.json"
    catalogue, error = read_archive_catalogue(directory)
    if error:
        return [RULE_ARCHIVE_FIXITY.finding(
            error, artifact=str(directory), file=str(catalogue_path),
        )]
    name = str(catalogue.get("name", directory.name))
    blobs_dir = directory / "blobs"
    findings = []
    catalogued = set()
    for entry in catalogue.get("entries", []):
        digest = str(entry.get("digest", ""))
        catalogued.add(digest)
        blob_path = blobs_dir / digest
        if not blob_path.is_file():
            findings.append(RULE_ARCHIVE_FIXITY.finding(
                f"entry {digest[:12]}... has no blob file",
                artifact=name, file=str(blob_path),
            ))
            continue
        actual = hashlib.sha256(blob_path.read_bytes()).hexdigest()
        if actual != digest:
            findings.append(RULE_ARCHIVE_FIXITY.finding(
                f"entry {digest[:12]}... blob hashes to "
                f"{actual[:12]}... (fixity broken)",
                artifact=name, file=str(blob_path),
            ))
        metadata = entry.get("metadata", {})
        recorded = metadata.get("technical", {}).get("checksum")
        if recorded is not None and recorded != digest:
            findings.append(RULE_ARCHIVE_FIXITY.finding(
                f"entry {digest[:12]}... metadata checksum "
                f"{str(recorded)[:12]}... disagrees with its digest",
                artifact=name, file=str(catalogue_path),
            ))
    if blobs_dir.is_dir():
        for blob_path in sorted(blobs_dir.iterdir()):
            if blob_path.name not in catalogued:
                findings.append(RULE_ARCHIVE_ORPHAN.finding(
                    f"blob {blob_path.name[:12]}... has no catalogue "
                    f"entry",
                    artifact=name, file=str(blob_path),
                ))
    # DAS113 needs the full digest set, so it runs after the sweep.
    for entry in catalogue.get("entries", []):
        if not _is_dataset_kind(str(entry.get("kind", ""))):
            continue
        digest = str(entry.get("digest", ""))
        provenance = entry.get("metadata", {}).get("provenance", {})
        run_report = provenance.get("run_report")
        if not run_report:
            findings.append(RULE_DATASET_NO_RUN_REPORT.finding(
                f"dataset entry {digest[:12]}... links no run report "
                f"in its provenance block",
                artifact=name, file=str(catalogue_path),
            ))
        elif str(run_report) not in catalogued:
            findings.append(RULE_DATASET_NO_RUN_REPORT.finding(
                f"dataset entry {digest[:12]}... links run report "
                f"{str(run_report)[:12]}... absent from the catalogue",
                artifact=name, file=str(catalogue_path),
            ))
    return findings


# ----------------------------------------------------------------------
# RECAST catalogue vs the RIVET repository
# ----------------------------------------------------------------------

def lint_recast_bridge(catalog, signal_regions: dict,
                       repository) -> list[Finding]:
    """DAS110/DAS111 for one catalogue against a bridge mapping."""
    findings = []
    for search in catalog.public_listing():
        analysis_id = search["analysis_id"]
        region = signal_regions.get(analysis_id)
        if region is None:
            findings.append(RULE_RECAST_UNMAPPED.finding(
                f"search {analysis_id!r} has no signal-region mapping",
                artifact=analysis_id,
            ))
            continue
        if region.analysis_name not in repository:
            findings.append(RULE_RECAST_UNREGISTERED.finding(
                f"search {analysis_id!r} maps to RIVET analysis "
                f"{region.analysis_name!r} which is not registered",
                artifact=analysis_id,
            ))
    return findings


# ----------------------------------------------------------------------
# Interview maturity vs the sharing grid
# ----------------------------------------------------------------------

def lint_maturity_vs_sharing(experiment: str, sharing_rating: int,
                             grid: DataSharingGrid) -> list[Finding]:
    """DAS112: the 9F rating against the grid's preservation row.

    High ratings (4-5) claim systematic sharing, so the preservation
    stage must be open at least to 'host institution'; low ratings
    (1-2) are contradicted by a 'whole world' preservation row.
    """
    try:
        entry = grid.entry_for("preservation")
    except InterviewError:
        return [RULE_MATURITY_GRID.finding(
            f"{experiment}: sharing grid has no preservation row to "
            f"support its 9F rating of {sharing_rating}",
            artifact=experiment,
        )]
    findings = []
    if sharing_rating >= 4 and entry.openness <= 1:
        findings.append(RULE_MATURITY_GRID.finding(
            f"{experiment}: 9F rating {sharing_rating} claims "
            f"systematic sharing but preserved data goes to "
            f"{entry.audience!r}",
            artifact=experiment,
        ))
    if sharing_rating <= 2 and entry.openness >= 4:
        findings.append(RULE_MATURITY_GRID.finding(
            f"{experiment}: 9F rating {sharing_rating} is contradicted "
            f"by a preservation row shared with {entry.audience!r}",
            artifact=experiment,
        ))
    return findings
