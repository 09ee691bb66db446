"""Self-documenting JSON-lines dataset files.

Layout: the first line of a dataset file is a :class:`DatasetHeader` —
format tag, tier, schema documentation, and a free-form provenance block —
followed by one JSON object per event. Plain text, no pickles: a file is
readable by anything that can parse JSON, which is the preservation
property the paper's "self-documenting?" row in Table 1 is probing.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.canonical import canonical_json
from repro.datamodel.schema import field_documentation, validate_record
from repro.datamodel.tiers import DataTier
from repro.errors import PersistenceError, SchemaError

_FORMAT_TAG = "repro-dataset"
_FORMAT_VERSION = "1.0"


@dataclass
class DatasetHeader:
    """The first line of every dataset file."""

    dataset_name: str
    tier: DataTier
    provenance: dict = field(default_factory=dict)
    n_events: int | None = None

    def to_dict(self) -> dict:
        """Serialise, embedding the tier's field documentation."""
        return {
            "format": _FORMAT_TAG,
            "format_version": _FORMAT_VERSION,
            "dataset": self.dataset_name,
            "tier": self.tier.value,
            "n_events": self.n_events,
            "schema": field_documentation(self.tier),
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "DatasetHeader":
        """Inverse of :meth:`to_dict`, with format validation."""
        if record.get("format") != _FORMAT_TAG:
            raise PersistenceError(
                f"not a repro dataset: format={record.get('format')!r}"
            )
        try:
            tier = DataTier(record["tier"])
        except (KeyError, ValueError):
            raise PersistenceError(
                f"dataset has unknown tier {record.get('tier')!r}"
            ) from None
        n_events = record.get("n_events")
        return cls(
            dataset_name=str(record.get("dataset", "")),
            tier=tier,
            provenance=dict(record.get("provenance", {})),
            n_events=int(n_events) if n_events is not None else None,
        )


class DatasetWriter:
    """Streams event records into a dataset file.

    Use as a context manager; the header is finalised (with the event
    count) when the writer closes, by rewriting the first line.
    """

    def __init__(self, path: str | Path, dataset_name: str, tier: DataTier,
                 provenance: dict | None = None,
                 validate: bool = True) -> None:
        self.path = Path(path)
        self.header = DatasetHeader(
            dataset_name=dataset_name,
            tier=tier,
            provenance=provenance if provenance is not None else {},
        )
        self._validate = validate
        self._records: list[dict] = []
        self._closed = False

    def write(self, record: dict) -> None:
        """Append one event record."""
        if self._closed:
            raise PersistenceError("writer is closed")
        if self._validate:
            validate_record(record, self.header.tier)
        self._records.append(record)

    def write_all(self, records: Iterable[dict]) -> None:
        """Append many event records."""
        for record in records:
            self.write(record)

    def close(self) -> None:
        """Finalise the header and flush the file."""
        if self._closed:
            return
        self.header.n_events = len(self._records)
        try:
            with self.path.open("w", encoding="utf-8") as handle:
                handle.write(
                    canonical_json(self.header.to_dict()).decode("utf-8")
                    + "\n")
                for record in self._records:
                    handle.write(
                        canonical_json(record).decode("utf-8") + "\n")
        except OSError as exc:
            raise PersistenceError(
                f"cannot write dataset {self.path}: {exc}"
            )
        self._closed = True

    def __enter__(self) -> "DatasetWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


class DatasetReader:
    """Reads a dataset file: header plus streamed event records."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise PersistenceError(f"dataset file not found: {self.path}")
        self.header = self._read_header()

    def _read_header(self) -> DatasetHeader:
        try:
            with self.path.open("rb") as handle:
                first_line = handle.readline()
        except OSError as exc:
            raise PersistenceError(
                f"cannot read dataset {self.path}: {exc}"
            )
        if not first_line.strip():
            raise PersistenceError(f"dataset {self.path} is empty")
        record = self._decode(first_line, 1)
        try:
            return DatasetHeader.from_dict(record)
        except PersistenceError as exc:
            raise PersistenceError(f"{self.path}:1: {exc}") from None
        except (AttributeError, KeyError, TypeError, ValueError,
                OverflowError) as exc:
            raise PersistenceError(
                f"{self.path}:1: malformed header: "
                f"{type(exc).__name__}: {exc}"
            ) from None

    def _decode(self, line: bytes, line_number: int) -> dict:
        """One line as a JSON object, or a typed error naming
        ``path:line``."""
        try:
            record = json.loads(line.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise PersistenceError(
                f"{self.path}:{line_number}: not UTF-8: {exc}") from None
        except json.JSONDecodeError as exc:
            raise PersistenceError(
                f"{self.path}:{line_number}: bad record: {exc}") from None
        if not isinstance(record, dict):
            raise PersistenceError(
                f"{self.path}:{line_number}: record is a "
                f"{type(record).__name__}, not a JSON object")
        return record

    def records(self) -> Iterator[dict]:
        """Stream the event records, one dictionary at a time."""
        with self.path.open("rb") as handle:
            handle.readline()  # skip the header
            for line_number, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                yield self._decode(line, line_number)

    def read_all(self) -> list[dict]:
        """All event records as a list."""
        return list(self.records())

    def __len__(self) -> int:
        if self.header.n_events is not None:
            return self.header.n_events
        return sum(1 for _ in self.records())


def write_dataset(path: str | Path, dataset_name: str, tier: DataTier,
                  records: Iterable[dict],
                  provenance: dict | None = None) -> DatasetHeader:
    """One-shot dataset write; returns the finalised header."""
    with DatasetWriter(path, dataset_name, tier, provenance) as writer:
        writer.write_all(records)
    return writer.header


def read_dataset(path: str | Path) -> tuple[DatasetHeader, list[dict]]:
    """One-shot dataset read: ``(header, records)``."""
    reader = DatasetReader(path)
    return reader.header, reader.read_all()


def dataset_size_bytes(path: str | Path) -> int:
    """On-disk size of a dataset file."""
    try:
        return Path(path).stat().st_size
    except OSError as exc:
        raise PersistenceError(f"cannot stat dataset {path}: {exc}")


def check_records(path: str | Path) -> int:
    """Validate every record against the tier schema; returns the count.

    Raises :class:`SchemaError` on the first invalid record.
    """
    reader = DatasetReader(path)
    count = 0
    for record in reader.records():
        try:
            validate_record(record, reader.header.tier)
        except SchemaError as exc:
            raise SchemaError(f"{path}: record {count}: {exc}") from exc
        count += 1
    return count
