"""The closure manifest: serialisation and archive/catalog checks.

A :class:`ClosureManifest` is the lint-enforced artifact DASPOS-style
preservation needs: the *declared* dependency closure of an analysis,
written as deterministic JSON (two extractions of the same tree are
byte-identical), checked against what the archive *actually* holds.

Checks read archive directories the way the rest of the linter does —
straight from ``catalogue.json`` and the blob files, tolerating every
kind of damage and reporting findings instead of raising.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.canonical import canonical_document
from repro.errors import PreservationError
from repro.lint.consistency import read_archive_catalogue
from repro.lint.findings import Finding
from repro.lint.flow.rules import (
    RULE_CLOSURE_NO_REFERENCE,
    RULE_CLOSURE_UNARCHIVED_MODULE,
    RULE_CLOSURE_UNARCHIVED_TAG,
    RULE_CLOSURE_UNREGISTERED,
    RULE_CLOSURE_UNRESOLVED,
    RULE_RECAST_OUTSIDE_CLOSURE,
)

MANIFEST_FORMAT = "repro-closure-manifest"
SOURCE_MODULE_FORMAT = "repro-source-module"
_SNAPSHOT_FORMAT = "repro-conditions-snapshot"


@dataclass(frozen=True)
class ClosureManifest:
    """The statically extracted dependency closure of a source tree."""

    root: str
    analyses: list = field(default_factory=list)
    functions: tuple[str, ...] = ()
    modules: tuple[dict, ...] = ()
    external_modules: tuple[str, ...] = ()
    conditions_tags: tuple[str, ...] = ()
    unresolved_imports: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Serialise; every collection is sorted on the way in."""
        return {
            "format": MANIFEST_FORMAT,
            "version": 1,
            "root": self.root,
            "analyses": list(self.analyses),
            "functions": list(self.functions),
            "modules": [dict(m) for m in self.modules],
            "external_modules": list(self.external_modules),
            "conditions_tags": list(self.conditions_tags),
            "unresolved_imports": list(self.unresolved_imports),
        }

    def to_json_bytes(self) -> bytes:
        """Deterministic bytes: sorted keys, fixed indent, one LF."""
        return canonical_document(self.to_dict())

    @classmethod
    def from_dict(cls, record: dict) -> "ClosureManifest":
        """Inverse of :meth:`to_dict`, with format validation."""
        if record.get("format") != MANIFEST_FORMAT:
            raise PreservationError(
                f"not a closure manifest: "
                f"format={record.get('format')!r}"
            )
        return cls(
            root=str(record.get("root", "")),
            analyses=list(record.get("analyses", [])),
            functions=tuple(record.get("functions", ())),
            modules=tuple(dict(m) for m in record.get("modules", ())),
            external_modules=tuple(record.get("external_modules", ())),
            conditions_tags=tuple(record.get("conditions_tags", ())),
            unresolved_imports=tuple(
                record.get("unresolved_imports", ())),
        )

    def analysis_names(self) -> list[str]:
        """Metadata names of the closure's analyses (falls back to
        class names for analyses without extractable metadata)."""
        return sorted({(a.get("name") or a.get("class", ""))
                       for a in self.analyses} - {""})


def source_module_payload(module: str, source: str) -> dict:
    """The archive payload preserving one closure module's source."""
    return {
        "format": SOURCE_MODULE_FORMAT,
        "module": module,
        "source": source,
        "sha256": hashlib.sha256(source.encode("utf-8")).hexdigest(),
    }


def archive_closure_sources(archive, graph) -> list:
    """Store every internal module of a call graph into an archive.

    Returns the catalogue entries, one per module. A convenience for
    building fixtures and real preservation flows alike: the stored
    payloads are exactly what :func:`check_manifest_against_archive`
    looks for.
    """
    from repro.core.metadata import PreservationMetadata

    entries = []
    for name, node in sorted(graph.modules.modules.items()):
        metadata = PreservationMetadata.build(
            title=f"source module {name}",
            creator="repro.lint.flow",
            experiment="TOY",
            created="2013-01-01",
            artifact_format="python-source",
            size_bytes=len(node.source.encode("utf-8")),
            checksum=node.source_digest,
            producer="closure-extractor",
            access_policy="public",
        )
        entries.append(archive.store(
            source_module_payload(name, node.source),
            kind="source-module", metadata=metadata,
        ))
    return entries


def _read_archive_holdings(directory: Path) -> tuple[dict, set, str]:
    """(module -> source sha256, snapshot tags, error) of a directory.

    Reads the catalogue and blob files directly — a damaged archive
    yields partial holdings, never an exception, so every missing
    member is reported as the finding it is.
    """
    catalogue, error = read_archive_catalogue(directory)
    if error:
        return {}, set(), error
    modules: dict[str, str] = {}
    tags: set[str] = set()
    blobs = directory / "blobs"
    for entry in catalogue.get("entries", []):
        digest = str(entry.get("digest", ""))
        try:
            payload = json.loads(
                (blobs / digest).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            continue  # missing/corrupt blob: simply not a holding
        if not isinstance(payload, dict):
            continue
        if payload.get("format") == SOURCE_MODULE_FORMAT:
            source = str(payload.get("source", ""))
            modules[str(payload.get("module", ""))] = (
                hashlib.sha256(source.encode("utf-8")).hexdigest())
        elif (payload.get("schema", {}).get("format")
                == _SNAPSHOT_FORMAT):
            tags.add(str(payload.get("global_tag", "")))
    return modules, tags, ""


def check_manifest_against_archive(manifest: ClosureManifest,
                                   directory: str | Path
                                   ) -> list[Finding]:
    """DAS207/DAS208/DAS209 for one manifest against one archive."""
    directory = Path(directory)
    archived, tags, error = _read_archive_holdings(directory)
    if error:
        return [RULE_CLOSURE_UNARCHIVED_MODULE.finding(
            error, artifact=manifest.root,
            file=str(directory / "catalogue.json"),
        )]
    findings: list[Finding] = []
    for module in manifest.modules:
        name = module["module"]
        held = archived.get(name)
        if held is None:
            findings.append(RULE_CLOSURE_UNARCHIVED_MODULE.finding(
                f"closure module {name!r} ({module['path']}) is not "
                f"archived",
                artifact=manifest.root, file=module["path"],
            ))
        elif held != module["sha256"]:
            findings.append(RULE_CLOSURE_UNARCHIVED_MODULE.finding(
                f"closure module {name!r} is archived but its source "
                f"differs from the tree "
                f"({held[:12]}... != {module['sha256'][:12]}...)",
                artifact=manifest.root, file=module["path"],
            ))
    for tag in manifest.conditions_tags:
        if tag not in tags:
            findings.append(RULE_CLOSURE_UNARCHIVED_TAG.finding(
                f"conditions tag {tag!r} used by the closure has no "
                f"archived snapshot",
                artifact=manifest.root,
            ))
    for rendered in manifest.unresolved_imports:
        findings.append(RULE_CLOSURE_UNRESOLVED.finding(
            f"closure contains unresolved import {rendered!r}; the "
            f"manifest under-reports the true dependency set",
            artifact=manifest.root,
        ))
    return findings


def check_manifest_against_repository(manifest: ClosureManifest,
                                      repository) -> list[Finding]:
    """DAS210/DAS211 for one manifest against an analysis repository."""
    from repro.lint.findings import Severity

    findings: list[Finding] = []
    for analysis in manifest.analyses:
        name = analysis.get("name", "")
        label = analysis.get("class", name)
        if not name:
            # The metadata name is built dynamically; registration
            # cannot be verified statically — note it, don't warn.
            findings.append(RULE_CLOSURE_UNREGISTERED.finding(
                f"closure analysis {label!r} has a dynamic metadata "
                f"name; registration in {repository.name!r} cannot "
                f"be verified statically",
                artifact=label, severity=Severity.INFO,
            ))
            continue
        if name not in repository:
            findings.append(RULE_CLOSURE_UNREGISTERED.finding(
                f"closure analysis {label!r} "
                f"(metadata name {name!r}) is not registered in "
                f"repository {repository.name!r}",
                artifact=label,
            ))
            continue
        if analysis.get("booked_keys") and \
                repository.reference(name) is None:
            findings.append(RULE_CLOSURE_NO_REFERENCE.finding(
                f"closure analysis {name!r} books "
                f"{len(analysis['booked_keys'])} histogram(s) but the "
                f"repository holds no reference data for it",
                artifact=name,
            ))
    return findings


def check_manifest_against_recast(manifest: ClosureManifest,
                                  signal_regions: dict
                                  ) -> list[Finding]:
    """DAS212: every bridge mapping must stay inside the closure."""
    names = set(manifest.analysis_names())
    findings: list[Finding] = []
    for analysis_id in sorted(signal_regions):
        region = signal_regions[analysis_id]
        if region.analysis_name not in names:
            findings.append(RULE_RECAST_OUTSIDE_CLOSURE.finding(
                f"search {analysis_id!r} maps to RIVET analysis "
                f"{region.analysis_name!r} which is outside the "
                f"preserved closure",
                artifact=analysis_id,
            ))
    return findings
