"""Reference data: the archived measurement an analysis is compared to.

"RIVET is distributed as a software package with accompanying data from
the included analyses." A :class:`ReferenceData` bundle holds the unfolded
measurement histograms for one analysis, serialisable to a JSON file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.canonical import load_json_document
from repro.errors import PersistenceError, RivetError
from repro.stats.histogram import Histogram1D

_FORMAT_TAG = "repro-reference-data"


@dataclass
class ReferenceData:
    """Unfolded measurement histograms keyed like the analysis's bookings."""

    analysis_name: str
    histograms: dict[str, Histogram1D] = field(default_factory=dict)
    source: str = ""

    def add(self, key: str, histogram: Histogram1D) -> None:
        """Attach one measurement histogram."""
        if key in self.histograms:
            raise RivetError(
                f"reference for {self.analysis_name!r} already has {key!r}"
            )
        self.histograms[key] = histogram

    def histogram(self, key: str) -> Histogram1D:
        """Look up a measurement histogram."""
        try:
            return self.histograms[key]
        except KeyError:
            raise RivetError(
                f"reference for {self.analysis_name!r} has no {key!r}; "
                f"available: {sorted(self.histograms)}"
            ) from None

    def keys(self) -> list[str]:
        """All measurement keys, sorted."""
        return sorted(self.histograms)

    def to_dict(self) -> dict:
        """Serialise for archive payloads."""
        return {
            "format": _FORMAT_TAG,
            "analysis": self.analysis_name,
            "source": self.source,
            "histograms": {key: histogram.to_dict()
                           for key, histogram in self.histograms.items()},
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ReferenceData":
        """Inverse of :meth:`to_dict`."""
        if record.get("format") != _FORMAT_TAG:
            raise PersistenceError(
                f"not reference data: format={record.get('format')!r}"
            )
        reference = cls(
            analysis_name=str(record["analysis"]),
            source=str(record.get("source", "")),
        )
        for key, histogram_record in record.get("histograms", {}).items():
            reference.histograms[key] = Histogram1D.from_dict(
                histogram_record
            )
        return reference

    def save(self, path: str | Path) -> None:
        """Write to a JSON file."""
        path = Path(path)
        try:
            with path.open("w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, indent=1)
        except OSError as exc:
            raise PersistenceError(
                f"cannot write reference data {path}: {exc}"
            )

    @classmethod
    def load(cls, path: str | Path) -> "ReferenceData":
        """Read from a JSON file written by :meth:`save`."""
        return load_json_document(path, cls.from_dict, PersistenceError,
                                  "reference data")
