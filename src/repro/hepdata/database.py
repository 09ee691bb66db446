"""The archive itself: versioned record storage with persistence."""

from __future__ import annotations

from pathlib import Path

from repro.core.canonical import (
    canonical_document,
    load_json_document,
    write_atomic,
)
from repro.errors import HepDataError, PersistenceError, RecordNotFoundError
from repro.hepdata.records import HepDataRecord

_FORMAT_TAG = "repro-hepdata-archive"


class HepDataArchive:
    """In-memory archive of :class:`HepDataRecord` with version history."""

    def __init__(self, name: str = "hepdata") -> None:
        self.name = name
        #: record_id -> list of versions, oldest first.
        self._records: dict[str, list[HepDataRecord]] = {}

    # ------------------------------------------------------------------

    def submit(self, record: HepDataRecord) -> int:
        """Add a new record or a new version of an existing one.

        Returns the stored version number. A resubmission must carry the
        next consecutive version.
        """
        versions = self._records.setdefault(record.record_id, [])
        expected_version = len(versions) + 1
        if record.version != expected_version:
            raise HepDataError(
                f"record {record.record_id!r}: expected version "
                f"{expected_version}, got {record.version}"
            )
        versions.append(record)
        return record.version

    def get(self, record_id: str,
            version: int | None = None) -> HepDataRecord:
        """Fetch a record (latest version by default)."""
        try:
            versions = self._records[record_id]
        except KeyError:
            raise RecordNotFoundError(
                f"no record {record_id!r} in archive {self.name!r}"
            ) from None
        if version is None:
            return versions[-1]
        if not 1 <= version <= len(versions):
            raise RecordNotFoundError(
                f"record {record_id!r} has no version {version}"
            )
        return versions[version - 1]

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def record_ids(self) -> list[str]:
        """All archived record ids, sorted."""
        return sorted(self._records)

    def all_latest(self) -> list[HepDataRecord]:
        """The latest version of every record."""
        return [versions[-1]
                for _, versions in sorted(self._records.items())]

    def n_versions(self, record_id: str) -> int:
        """How many versions a record has."""
        if record_id not in self._records:
            raise RecordNotFoundError(f"no record {record_id!r}")
        return len(self._records[record_id])

    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the whole archive (all versions) to one JSON file."""
        payload = {
            "format": _FORMAT_TAG,
            "name": self.name,
            "records": {
                record_id: [version.to_dict() for version in versions]
                for record_id, versions in self._records.items()
            },
        }
        write_atomic(path, canonical_document(payload, indent=None),
                     "hepdata archive")

    @classmethod
    def load(cls, path: str | Path) -> "HepDataArchive":
        """Read an archive written by :meth:`save`."""
        def parse(payload: dict) -> "HepDataArchive":
            if payload.get("format") != _FORMAT_TAG:
                raise PersistenceError(
                    f"unknown format {payload.get('format')!r}")
            archive = cls(name=str(payload.get("name", "hepdata")))
            for record_id, versions in payload.get("records", {}).items():
                archive._records[record_id] = [
                    HepDataRecord.from_dict(version)
                    for version in versions
                ]
            return archive
        return load_json_document(path, parse, PersistenceError,
                                  "hepdata archive")
