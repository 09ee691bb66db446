"""Les Houches Recommendation 1b: the common analysis database.

"The community should identify, develop and adopt a common platform to
store analysis databases, collecting object definitions, cuts, and all
other information, including well-encapsulated functions, necessary to
reproduce or use the results of the analyses."

:class:`AnalysisDatabase` is that platform: it stores
:class:`~repro.core.describe.AnalysisDescription` records, supports the
queries a phenomenologist needs, and can *execute* any stored description
against AOD events — reproducing the analysis from its description alone.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.canonical import (
    canonical_document,
    load_json_document,
    write_atomic,
)
from repro.core.describe import AnalysisDescription
from repro.datamodel.event import AODEvent
from repro.errors import PersistenceError, PreservationError

_FORMAT_TAG = "repro-analysis-database"


class AnalysisDatabase:
    """Queryable store of structured analysis descriptions."""

    def __init__(self, name: str = "analysis-db") -> None:
        self.name = name
        self._descriptions: dict[str, AnalysisDescription] = {}

    # ------------------------------------------------------------------

    def add(self, description: AnalysisDescription) -> None:
        """Store a description; ids must be unique."""
        if description.analysis_id in self._descriptions:
            raise PreservationError(
                f"analysis {description.analysis_id!r} already stored"
            )
        self._descriptions[description.analysis_id] = description

    def get(self, analysis_id: str) -> AnalysisDescription:
        """Look a description up by id."""
        try:
            return self._descriptions[analysis_id]
        except KeyError:
            raise PreservationError(
                f"no analysis {analysis_id!r} in database {self.name!r}"
            ) from None

    def __contains__(self, analysis_id: str) -> bool:
        return analysis_id in self._descriptions

    def __len__(self) -> int:
        return len(self._descriptions)

    def analysis_ids(self) -> list[str]:
        """All stored analysis ids, sorted."""
        return sorted(self._descriptions)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def by_experiment(self, experiment: str) -> list[AnalysisDescription]:
        """All descriptions from one experiment."""
        return [d for _, d in sorted(self._descriptions.items())
                if d.experiment == experiment]

    def by_final_state(self, final_state: str) -> list[AnalysisDescription]:
        """All descriptions targeting a final state."""
        return [d for _, d in sorted(self._descriptions.items())
                if d.final_state == final_state]

    def using_object(self, object_type: str) -> list[AnalysisDescription]:
        """All descriptions whose object definitions include a type."""
        return [
            d for _, d in sorted(self._descriptions.items())
            if any(o.object_type == object_type for o in d.objects)
        ]

    # ------------------------------------------------------------------
    # Reproduction
    # ------------------------------------------------------------------

    def reproduce(self, analysis_id: str,
                  events: list[AODEvent]) -> dict:
        """Re-run a stored analysis on a new event sample.

        Executes the preserved event selection and returns the cut flow
        plus the final acceptance — no analyst code involved, which is
        exactly the reproduce-from-description capability Rec. 1b asks
        for.
        """
        description = self.get(analysis_id)
        cutflow = description.selection.cutflow(events)
        n_initial = cutflow[0][1]
        n_final = cutflow[-1][1]
        return {
            "analysis_id": analysis_id,
            "cutflow": cutflow,
            "n_initial": n_initial,
            "n_selected": n_final,
            "acceptance": (n_final / n_initial) if n_initial else 0.0,
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist all descriptions to one JSON file."""
        payload = {
            "format": _FORMAT_TAG,
            "name": self.name,
            "analyses": [d.to_dict()
                         for _, d in sorted(self._descriptions.items())],
        }
        write_atomic(path, canonical_document(payload), "analysis database")

    @classmethod
    def load(cls, path: str | Path) -> "AnalysisDatabase":
        """Read a database written by :meth:`save`."""
        def parse(payload: dict) -> "AnalysisDatabase":
            if payload.get("format") != _FORMAT_TAG:
                raise PersistenceError(
                    f"unknown format {payload.get('format')!r}")
            database = cls(name=str(payload.get("name", "analysis-db")))
            for record in payload.get("analyses", []):
                database.add(AnalysisDescription.from_dict(record))
            return database
        return load_json_document(path, parse, PersistenceError,
                                  "analysis database")
