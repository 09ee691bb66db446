"""Flat-file conditions snapshots (the ALICE constants-handling style).

A snapshot extracts, for one global tag and one run range, every payload a
processing job could need, and writes it to a single self-describing JSON
file that can be "easily shipped around with the data" — the paper's words
for the ALICE approach. :class:`ConditionsSnapshot` then answers the same
``payload(folder, run)`` queries as the live store, so reconstruction code
is agnostic about which mode it is running in.

Snapshots are also what the preservation layer archives: they freeze the
external conditions dependency of a workflow into a portable artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.conditions.iov import IOV
from repro.conditions.store import ConditionsStore
from repro.core.canonical import load_json_document
from repro.errors import ConditionsError, IOVError, PersistenceError

_SNAPSHOT_FORMAT = "repro-conditions-snapshot"
_SNAPSHOT_VERSION = "1.0"


@dataclass
class ConditionsSnapshot:
    """An immutable, file-backed slice of a conditions store."""

    global_tag_name: str
    first_run: int
    last_run: int
    #: folder -> list of (IOV, payload) pairs.
    entries: dict[str, list[tuple[IOV, dict]]]

    def payload(self, folder: str, run: int) -> dict:
        """The payload valid for ``run``; same contract as the live store."""
        if folder not in self.entries:
            raise ConditionsError(
                f"snapshot has no folder {folder!r} "
                f"(global tag {self.global_tag_name})"
            )
        if not self.first_run <= run <= self.last_run:
            raise IOVError(
                f"run {run} outside snapshot range "
                f"[{self.first_run}, {self.last_run}]"
            )
        for iov, payload in self.entries[folder]:
            if iov.contains(run):
                return dict(payload)
        raise IOVError(f"snapshot {folder}: no IOV covers run {run}")

    def folders(self) -> list[str]:
        """Folders captured in this snapshot, sorted."""
        return sorted(self.entries)

    def to_dict(self) -> dict:
        """Full serialisation, including a schema header."""
        return {
            "schema": {
                "format": _SNAPSHOT_FORMAT,
                "version": _SNAPSHOT_VERSION,
                "description": (
                    "Self-contained conditions constants for a run range; "
                    "shippable alongside event data."
                ),
            },
            "global_tag": self.global_tag_name,
            "first_run": self.first_run,
            "last_run": self.last_run,
            "folders": {
                folder: [
                    {"iov": iov.to_dict(), "payload": payload}
                    for iov, payload in pairs
                ]
                for folder, pairs in self.entries.items()
            },
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ConditionsSnapshot":
        """Inverse of :meth:`to_dict`, with format validation."""
        schema = record.get("schema", {})
        if schema.get("format") != _SNAPSHOT_FORMAT:
            raise PersistenceError(
                f"not a conditions snapshot: format={schema.get('format')!r}"
            )
        entries = {}
        for folder, pairs in record.get("folders", {}).items():
            entries[folder] = [
                (IOV.from_dict(pair["iov"]), dict(pair["payload"]))
                for pair in pairs
            ]
        return cls(
            global_tag_name=str(record["global_tag"]),
            first_run=int(record["first_run"]),
            last_run=int(record["last_run"]),
            entries=entries,
        )


def export_snapshot(
    store: ConditionsStore,
    global_tag_name: str,
    first_run: int,
    last_run: int,
    path: str | Path | None = None,
) -> ConditionsSnapshot:
    """Extract a snapshot from a live store, optionally writing it to disk."""
    global_tag = store.global_tag(global_tag_name)
    entries: dict[str, list[tuple[IOV, dict]]] = {}
    window = IOV(first_run, last_run)
    for folder in global_tag.folders():
        tag = global_tag.tag_for(folder)
        pairs = []
        for iov in store.iovs(folder, tag):
            if iov.overlaps(window):
                pairs.append((iov, store.payload(folder, tag,
                                                 max(iov.first_run,
                                                     first_run))))
        if not pairs:
            raise IOVError(
                f"{folder}/{tag} has no IOVs overlapping "
                f"[{first_run}, {last_run}]"
            )
        entries[folder] = pairs
    snapshot = ConditionsSnapshot(
        global_tag_name=global_tag_name,
        first_run=first_run,
        last_run=last_run,
        entries=entries,
    )
    if path is not None:
        path = Path(path)
        try:
            with path.open("w", encoding="utf-8") as handle:
                json.dump(snapshot.to_dict(), handle, indent=1)
        except OSError as exc:
            raise PersistenceError(f"cannot write snapshot {path}: {exc}")
    return snapshot


def load_snapshot(path: str | Path) -> ConditionsSnapshot:
    """Read a snapshot previously written by :func:`export_snapshot`."""
    return load_json_document(path, ConditionsSnapshot.from_dict,
                              PersistenceError, "snapshot")
