"""The content-addressed preservation archive.

Artifacts are stored as canonical JSON blobs keyed by their SHA-256
digest; every retrieval re-verifies fixity. Metadata travels with the
content and is validated at ingest. An archive can be persisted to a
directory of plain files — no databases, no pickles — so the archive
itself satisfies the self-documentation standard it enforces.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.canonical import (
    canonical_document,
    canonical_json,
    load_json_document,
    write_atomic,
)
from repro.core.metadata import PreservationMetadata
from repro.errors import ArchiveError, FixityError, PersistenceError

__all__ = ["ArchiveEntry", "PreservationArchive", "canonical_json",
           "sha256_digest"]


def sha256_digest(content: bytes) -> str:
    """Hex SHA-256 of a byte string."""
    return hashlib.sha256(content).hexdigest()


@dataclass(frozen=True)
class ArchiveEntry:
    """Catalogue row for one stored artifact."""

    digest: str
    kind: str
    size_bytes: int
    metadata: PreservationMetadata

    def to_dict(self) -> dict:
        """Serialise for the archive catalogue file."""
        return {
            "digest": self.digest,
            "kind": self.kind,
            "size_bytes": self.size_bytes,
            "metadata": self.metadata.to_dict(),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ArchiveEntry":
        """Inverse of :meth:`to_dict`."""
        return cls(
            digest=str(record["digest"]),
            kind=str(record["kind"]),
            size_bytes=int(record["size_bytes"]),
            metadata=PreservationMetadata.from_dict(record["metadata"]),
        )


class PreservationArchive:
    """In-memory content store with optional directory persistence."""

    def __init__(self, name: str = "archive") -> None:
        self.name = name
        self._blobs: dict[str, bytes] = {}
        self._entries: dict[str, ArchiveEntry] = {}

    # ------------------------------------------------------------------
    # Ingest / retrieve
    # ------------------------------------------------------------------

    def store(self, payload: dict, kind: str,
              metadata: PreservationMetadata) -> ArchiveEntry:
        """Store a JSON-serialisable payload; returns its catalogue entry.

        The metadata's technical checksum is *overwritten* with the true
        content digest, so a dishonest submission cannot poison fixity.
        Storing identical content twice is idempotent.
        """
        metadata.validate()
        content = canonical_json(payload)
        digest = sha256_digest(content)
        if digest in self._entries:
            return self._entries[digest]
        from repro.core.metadata import MetadataBlock

        metadata.blocks[MetadataBlock.TECHNICAL]["checksum"] = digest
        metadata.blocks[MetadataBlock.TECHNICAL]["size_bytes"] = len(content)
        entry = ArchiveEntry(
            digest=digest,
            kind=kind,
            size_bytes=len(content),
            metadata=metadata,
        )
        self._blobs[digest] = content
        self._entries[digest] = entry
        return entry

    def retrieve(self, digest: str) -> dict:
        """Fetch a payload, verifying fixity on the way out."""
        try:
            content = self._blobs[digest]
        except KeyError:
            raise ArchiveError(
                f"no artifact {digest[:12]}... in archive {self.name!r}"
            ) from None
        actual = sha256_digest(content)
        if actual != digest:
            raise FixityError(
                f"artifact {digest[:12]}... failed fixity: content "
                f"hashes to {actual[:12]}..."
            )
        return json.loads(content.decode("utf-8"))

    def entry(self, digest: str) -> ArchiveEntry:
        """The catalogue entry for a stored artifact."""
        try:
            return self._entries[digest]
        except KeyError:
            raise ArchiveError(
                f"no artifact {digest[:12]}... in archive {self.name!r}"
            ) from None

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def digests(self) -> list[str]:
        """All stored digests, sorted."""
        return sorted(self._entries)

    def entries_of_kind(self, kind: str) -> list[ArchiveEntry]:
        """Catalogue entries of one artifact kind."""
        return [entry for _, entry in sorted(self._entries.items())
                if entry.kind == kind]

    def total_size_bytes(self) -> int:
        """Summed stored content size."""
        return sum(entry.size_bytes for entry in self._entries.values())

    # ------------------------------------------------------------------
    # Fixity
    # ------------------------------------------------------------------

    def verify(self, digest: str) -> bool:
        """Fixity check of one artifact (False on corruption)."""
        try:
            self.retrieve(digest)
        except FixityError:
            return False
        return True

    def verify_all(self) -> dict[str, bool]:
        """Fixity check of the whole archive: digest -> ok."""
        return {digest: self.verify(digest) for digest in self.digests()}

    def _corrupt_for_testing(self, digest: str) -> None:
        """Deliberately damage one blob (failure-injection hook)."""
        if digest not in self._blobs:
            raise ArchiveError(f"no artifact {digest[:12]}... to corrupt")
        self._blobs[digest] = self._blobs[digest] + b" "

    # ------------------------------------------------------------------
    # Directory persistence
    # ------------------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Write the blobs, then the catalogue: a save cut short leaves
        the previous catalogue, and every blob it names, in force."""
        directory = Path(directory)
        blobs_dir = directory / "blobs"
        try:
            blobs_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise PersistenceError(
                f"cannot save archive to {directory}: {exc}") from None
        # lint: ignore[DAS403] -- each blob lands in its own
        # digest-named file; write order never reaches the bytes
        # of any stored artifact
        for digest, content in self._blobs.items():
            write_atomic(blobs_dir / digest, content, "archive blob")
        catalogue = {
            "format": "repro-preservation-archive",
            "name": self.name,
            "entries": [entry.to_dict()
                        for _, entry in sorted(self._entries.items())],
        }
        write_atomic(directory / "catalogue.json",
                     canonical_document(catalogue), "archive catalogue")

    @classmethod
    def load(cls, directory: str | Path) -> "PreservationArchive":
        """Read an archive directory written by :meth:`save`.

        A damaged catalogue or an unreadable blob raises
        :class:`PersistenceError` naming the catalogue file.
        """
        directory = Path(directory)

        def parse(catalogue: dict) -> "PreservationArchive":
            if catalogue.get("format") != "repro-preservation-archive":
                raise PersistenceError(
                    f"{directory} is not a preservation archive"
                )
            archive = cls(name=str(catalogue.get("name", "archive")))
            blobs_dir = directory / "blobs"
            for entry_record in catalogue.get("entries", []):
                entry = ArchiveEntry.from_dict(entry_record)
                blob_path = blobs_dir / entry.digest
                try:
                    content = blob_path.read_bytes()
                except OSError as exc:
                    raise PersistenceError(
                        f"archive blob {blob_path} unreadable: {exc}"
                    )
                archive._blobs[entry.digest] = content
                archive._entries[entry.digest] = entry
            return archive

        return load_json_document(directory / "catalogue.json", parse,
                                  PersistenceError, "archive catalogue")
