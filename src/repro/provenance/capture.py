"""The external provenance-capture structure.

When enabled, every dataset a workflow produces is reported here and a
full :class:`ArtifactRecord` is kept. When disabled (``enabled=False``),
reports are dropped — modelling the processing configurations the paper
warns about, where "the parentage and computing (producer) description of
a given file may not be included". The audit benchmark contrasts the two.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.canonical import (
    canonical_document,
    load_json_document,
    write_atomic,
)
from repro.errors import PersistenceError, ProvenanceError
from repro.provenance.graph import ProvenanceGraph
from repro.provenance.records import ArtifactRecord, ProducerRecord


class ProvenanceCapture:
    """Collects artifact records as a workflow runs."""

    def __init__(self, enabled: bool = True,
                 record_producer: bool = True) -> None:
        self.enabled = enabled
        self.record_producer = record_producer
        self.graph = ProvenanceGraph()
        self._sequence = 0

    def new_artifact_id(self, stem: str) -> str:
        """Mint a unique artifact id with a readable stem."""
        self._sequence += 1
        return f"{stem}#{self._sequence:04d}"

    def report(
        self,
        artifact_id: str,
        kind: str,
        tier: str,
        parents: tuple[str, ...] = (),
        producer: ProducerRecord | None = None,
        externals: dict | None = None,
        attributes: dict | None = None,
    ) -> ArtifactRecord | None:
        """Record one produced artifact; a no-op when capture is disabled."""
        if not self.enabled:
            return None
        record = ArtifactRecord(
            artifact_id=artifact_id,
            kind=kind,
            tier=tier,
            parents=parents,
            producer=producer if self.record_producer else None,
            externals=externals if externals is not None else {},
            attributes=attributes if attributes is not None else {},
        )
        self.graph.add(record)
        return record

    def export(self, path: str | Path) -> None:
        """Write the captured graph to a JSON file."""
        write_atomic(path, canonical_document(self.graph.to_dict()),
                     "provenance export")

    @classmethod
    def load(cls, path: str | Path) -> "ProvenanceCapture":
        """Rebuild a capture (enabled) from an exported graph."""
        def parse(record: dict) -> "ProvenanceCapture":
            capture = cls(enabled=True)
            capture.graph = ProvenanceGraph.from_dict(record)
            if len(capture.graph) == 0 and record.get("artifacts"):
                raise ProvenanceError("failed to load")
            return capture
        return load_json_document(path, parse, PersistenceError,
                                  "provenance file")
