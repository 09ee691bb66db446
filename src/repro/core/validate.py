"""Re-execution validation of preserved analyses.

"The analysis can be re-run at any time. The outputs could be used, for
example, for validation purposes." A :class:`PreservedAnalysisBundle`
freezes the three things a re-run needs — archived input events, the
declarative processing (skim + slim specs), and the archived expected
outputs. :func:`revalidate` re-executes the processing on the archived
inputs and compares against the archived outputs, row by row.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.core.canonical import load_json_document
from repro.datamodel.event import AODEvent, NtupleRow
from repro.datamodel.skimslim import SkimSpec, SlimSpec
from repro.errors import PreservationError


@dataclass
class PreservedAnalysisBundle:
    """Everything needed to re-run and check one preserved analysis."""

    bundle_id: str
    #: Archived AOD input events (as serialised dicts).
    input_events: list[dict]
    skim: SkimSpec
    slim: SlimSpec
    #: Archived expected ntuple rows (as serialised dicts).
    expected_rows: list[dict]

    def to_dict(self) -> dict:
        """Serialise for archive storage.

        Deep-copies the event and row records so callers can never
        mutate the bundle through the returned structure — archival
        content must stay immutable.
        """
        return {
            "format": "repro-preserved-analysis",
            "bundle_id": self.bundle_id,
            "input_events": copy.deepcopy(self.input_events),
            "skim": self.skim.to_dict(),
            "slim": self.slim.to_dict(),
            "expected_rows": copy.deepcopy(self.expected_rows),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "PreservedAnalysisBundle":
        """Inverse of :meth:`to_dict`."""
        if not isinstance(record, dict):
            raise PreservationError(
                f"a preserved-analysis bundle must be a JSON object, "
                f"got {type(record).__name__}"
            )
        if record.get("format") != "repro-preserved-analysis":
            raise PreservationError(
                f"not a preserved-analysis bundle: "
                f"format={record.get('format')!r}"
            )
        return cls(
            bundle_id=str(record["bundle_id"]),
            input_events=copy.deepcopy(record["input_events"]),
            skim=SkimSpec.from_dict(record["skim"]),
            slim=SlimSpec.from_dict(record["slim"]),
            expected_rows=copy.deepcopy(record["expected_rows"]),
        )

    @classmethod
    def load(cls, path) -> "PreservedAnalysisBundle":
        """Read and validate a bundle document from ``path``."""
        return load_json_document(path, cls.from_dict, PreservationError,
                                  "bundle")

    @classmethod
    def create(cls, bundle_id: str, events: list[AODEvent],
               skim: SkimSpec, slim: SlimSpec) -> "PreservedAnalysisBundle":
        """Build a bundle by running the processing once and freezing it."""
        selected = skim.apply(events)
        rows = slim.apply(selected)
        return cls(
            bundle_id=bundle_id,
            input_events=[event.to_dict() for event in events],
            skim=skim,
            slim=slim,
            expected_rows=[row.to_dict() for row in rows],
        )


@dataclass
class ValidationOutcome:
    """The verdict of one re-validation."""

    bundle_id: str
    passed: bool
    n_expected: int
    n_reproduced: int
    mismatches: list[str] = field(default_factory=list)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        status = "PASS" if self.passed else "FAIL"
        detail = (f"; first mismatch: {self.mismatches[0]}"
                  if self.mismatches else "")
        return (
            f"{self.bundle_id}: {status} "
            f"({self.n_reproduced}/{self.n_expected} rows reproduced"
            f"{detail})"
        )


def _rows_equal(expected: dict, actual: dict,
                tolerance: float) -> str | None:
    """None if rows match; otherwise a description of the difference."""
    if expected.get("run") != actual.get("run"):
        return (f"run {expected.get('run')} != {actual.get('run')}")
    if expected.get("event") != actual.get("event"):
        return (f"event {expected.get('event')} != "
                f"{actual.get('event')}")
    expected_cols = expected.get("cols", {})
    actual_cols = actual.get("cols", {})
    if set(expected_cols) != set(actual_cols):
        return (f"column sets differ: {sorted(expected_cols)} vs "
                f"{sorted(actual_cols)}")
    for name, expected_value in expected_cols.items():
        actual_value = actual_cols[name]
        if isinstance(expected_value, float):
            if abs(expected_value - float(actual_value)) > tolerance * max(
                1.0, abs(expected_value)
            ):
                return (f"column {name!r}: {expected_value} != "
                        f"{actual_value}")
        elif expected_value != actual_value:
            return (f"column {name!r}: {expected_value!r} != "
                    f"{actual_value!r}")
    return None


def revalidate(bundle: PreservedAnalysisBundle,
               tolerance: float = 1e-9) -> ValidationOutcome:
    """Re-execute a preserved analysis and compare against its outputs."""
    events = [AODEvent.from_dict(record)
              for record in bundle.input_events]
    selected = bundle.skim.apply(events)
    rows: list[NtupleRow] = bundle.slim.apply(selected)
    actual = [row.to_dict() for row in rows]
    expected = bundle.expected_rows

    mismatches = []
    if len(actual) != len(expected):
        mismatches.append(
            f"row count: expected {len(expected)}, got {len(actual)}"
        )
    for index, (expected_row, actual_row) in enumerate(
        zip(expected, actual)
    ):
        problem = _rows_equal(expected_row, actual_row, tolerance)
        if problem is not None:
            mismatches.append(f"row {index}: {problem}")
    return ValidationOutcome(
        bundle_id=bundle.bundle_id,
        passed=not mismatches,
        n_expected=len(expected),
        n_reproduced=len(actual),
        mismatches=mismatches,
    )
