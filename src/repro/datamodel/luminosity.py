"""Run and luminosity bookkeeping with good-run lists.

Another class of metadata the Data Interview Template probes: which runs
exist, how much integrated luminosity each carries, and which of it is
certified for physics. A :class:`GoodRunList` is a preservation artifact
in its own right — an analysis's luminosity (and therefore every
cross-section and limit it quotes) is meaningless without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.canonical import (
    canonical_document,
    load_json_document,
    write_atomic,
)
from repro.errors import DataModelError, PersistenceError


@dataclass(frozen=True)
class RunRecord:
    """Bookkeeping for one data-taking run."""

    run_number: int
    n_lumi_sections: int
    luminosity_per_section_ipb: float
    detector_ok: bool = True

    def __post_init__(self) -> None:
        if self.run_number < 0:
            raise DataModelError("run_number must be >= 0")
        if self.n_lumi_sections <= 0:
            raise DataModelError("a run needs at least one lumi section")
        if self.luminosity_per_section_ipb < 0.0:
            raise DataModelError("luminosity must be >= 0")

    @property
    def luminosity_ipb(self) -> float:
        """Total delivered luminosity of the run."""
        return self.n_lumi_sections * self.luminosity_per_section_ipb

    def to_dict(self) -> dict:
        """Serialise for the run registry."""
        return {
            "run": self.run_number,
            "sections": self.n_lumi_sections,
            "lumi_per_section_ipb": self.luminosity_per_section_ipb,
            "detector_ok": self.detector_ok,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "RunRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            run_number=int(record["run"]),
            n_lumi_sections=int(record["sections"]),
            luminosity_per_section_ipb=float(
                record["lumi_per_section_ipb"]
            ),
            detector_ok=bool(record.get("detector_ok", True)),
        )


class RunRegistry:
    """All runs of a data-taking period."""

    def __init__(self, period: str = "RunA") -> None:
        self.period = period
        self._runs: dict[int, RunRecord] = {}

    def add(self, run: RunRecord) -> None:
        """Register a run; run numbers must be unique."""
        if run.run_number in self._runs:
            raise DataModelError(
                f"run {run.run_number} already registered"
            )
        self._runs[run.run_number] = run

    def get(self, run_number: int) -> RunRecord:
        """Look one run up."""
        try:
            return self._runs[run_number]
        except KeyError:
            raise DataModelError(
                f"unknown run {run_number}"
            ) from None

    def __contains__(self, run_number: int) -> bool:
        return run_number in self._runs

    def __len__(self) -> int:
        return len(self._runs)

    def run_numbers(self) -> list[int]:
        """All run numbers, sorted."""
        return sorted(self._runs)

    def total_luminosity_ipb(self) -> float:
        """Delivered luminosity over all runs (certified or not)."""
        return sum(run.luminosity_ipb for run in self._runs.values())


@dataclass
class GoodRunList:
    """The certified (run -> good lumi-section ranges) map.

    Ranges are inclusive ``(first_section, last_section)`` pairs,
    1-indexed like the real thing.
    """

    name: str
    #: run number -> list of (first, last) certified section ranges.
    ranges: dict[int, list[tuple[int, int]]] = field(
        default_factory=dict
    )

    def certify(self, run_number: int, first_section: int,
                last_section: int) -> None:
        """Mark a section range of a run as good."""
        if first_section < 1 or last_section < first_section:
            raise DataModelError(
                f"bad section range [{first_section}, {last_section}]"
            )
        run_ranges = self.ranges.setdefault(run_number, [])
        for existing_first, existing_last in run_ranges:
            if (first_section <= existing_last
                    and existing_first <= last_section):
                raise DataModelError(
                    f"run {run_number}: range [{first_section}, "
                    f"{last_section}] overlaps [{existing_first}, "
                    f"{existing_last}]"
                )
        run_ranges.append((first_section, last_section))
        run_ranges.sort()

    def is_good(self, run_number: int, section: int) -> bool:
        """Is one lumi section certified?"""
        for first, last in self.ranges.get(run_number, []):
            if first <= section <= last:
                return True
        return False

    def certified_sections(self, run_number: int) -> int:
        """Number of certified sections of a run."""
        return sum(last - first + 1
                   for first, last in self.ranges.get(run_number, []))

    def certified_luminosity_ipb(self, registry: RunRegistry) -> float:
        """Integrated luminosity of the certified sections.

        Ranges extending past a run's actual section count are clipped
        (a GRL made against a newer registry must not inflate the
        luminosity).
        """
        total = 0.0
        for run_number, run_ranges in sorted(self.ranges.items()):
            if run_number not in registry:
                continue
            run = registry.get(run_number)
            for first, last in run_ranges:
                clipped_last = min(last, run.n_lumi_sections)
                if clipped_last >= first:
                    total += ((clipped_last - first + 1)
                              * run.luminosity_per_section_ipb)
        return total

    def to_dict(self) -> dict:
        """Serialise for preservation."""
        return {
            "format": "repro-good-run-list",
            "name": self.name,
            "ranges": {str(run): [list(r) for r in run_ranges]
                       for run, run_ranges in self.ranges.items()},
        }

    @classmethod
    def from_dict(cls, record: dict) -> "GoodRunList":
        """Inverse of :meth:`to_dict`."""
        if record.get("format") != "repro-good-run-list":
            raise PersistenceError(
                f"not a good-run list: format={record.get('format')!r}"
            )
        grl = cls(name=str(record["name"]))
        for run, run_ranges in record.get("ranges", {}).items():
            for first, last in run_ranges:
                grl.certify(int(run), int(first), int(last))
        return grl

    def save(self, path: str | Path) -> None:
        """Write to a JSON file."""
        write_atomic(path, canonical_document(self.to_dict()), "GRL")

    @classmethod
    def load(cls, path: str | Path) -> "GoodRunList":
        """Read a file written by :meth:`save`."""
        return load_json_document(path, cls.from_dict, PersistenceError,
                                  "GRL")


def certify_good_runs(registry: RunRegistry,
                      name: str = "GRL-v1") -> GoodRunList:
    """Build a GRL certifying every section of detector-ok runs."""
    grl = GoodRunList(name=name)
    for run_number in registry.run_numbers():
        run = registry.get(run_number)
        if run.detector_ok:
            grl.certify(run_number, 1, run.n_lumi_sections)
    return grl
