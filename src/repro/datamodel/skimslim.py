"""Declarative, preservable skim/slim descriptions.

The paper's observation: "each processing step between the final
centrally-processed format and some reduced format can be reduced to a
logical skimming/slimming description." This module is that logical
language. A :class:`SkimSpec` (event selection) is a tree of
:class:`SelectionCut` nodes; a :class:`SlimSpec` names the collections and
derived columns to keep. Both are fully JSON-serialisable, so a post-AOD
processing step can be *preserved as a description* rather than as opaque
code — one of the two preservation strategies Section 3.2 contrasts.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.canonical import load_json_document
from repro.datamodel.event import AODEvent, NtupleRow
from repro.errors import DataModelError
from repro.kinematics import invariant_mass


class SelectionCut(abc.ABC):
    """A node of the declarative event-selection language."""

    #: Registry used by :func:`cut_from_dict`; populated by subclasses.
    _registry: dict[str, type["SelectionCut"]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        SelectionCut._registry[cls.kind()] = cls

    @classmethod
    @abc.abstractmethod
    def kind(cls) -> str:
        """The serialisation tag for this node type."""

    @abc.abstractmethod
    def passes(self, event: AODEvent) -> bool:
        """Evaluate the cut on one AOD event."""

    @abc.abstractmethod
    def to_dict(self) -> dict:
        """Serialise the node (must include ``{"kind": self.kind()}``)."""

    @classmethod
    @abc.abstractmethod
    def _from_dict(cls, record: dict) -> "SelectionCut":
        """Deserialise the node body (``kind`` already dispatched)."""

    def describe(self) -> str:
        """One-line human-readable rendering (for publications' cut tables)."""
        return str(self.to_dict())


def cut_from_dict(record: dict) -> SelectionCut:
    """Deserialise any cut tree from its dictionary form."""
    kind = record.get("kind")
    if kind not in SelectionCut._registry:
        raise DataModelError(f"unknown selection-cut kind {kind!r}")
    return SelectionCut._registry[kind]._from_dict(record)


_COLLECTIONS = ("electrons", "muons", "photons", "jets", "leptons")


def _collection(event: AODEvent, name: str) -> list:
    if name == "leptons":
        return event.leptons()
    if name not in _COLLECTIONS:
        raise DataModelError(f"unknown collection {name!r}")
    return getattr(event, name)


@dataclass(frozen=True)
class CountCut(SelectionCut):
    """Require at least ``min_count`` objects above ``min_pt``."""

    collection: str
    min_count: int
    min_pt: float = 0.0
    max_abs_eta: float | None = None

    @classmethod
    def kind(cls) -> str:
        return "count"

    def passes(self, event: AODEvent) -> bool:
        objects = _collection(event, self.collection)
        count = 0
        for obj in objects:
            if obj.p4.pt < self.min_pt:
                continue
            if (self.max_abs_eta is not None
                    and abs(obj.p4.eta) > self.max_abs_eta):
                continue
            count += 1
        return count >= self.min_count

    def to_dict(self) -> dict:
        record = {"kind": self.kind(), "collection": self.collection,
                  "min_count": self.min_count, "min_pt": self.min_pt}
        if self.max_abs_eta is not None:
            record["max_abs_eta"] = self.max_abs_eta
        return record

    @classmethod
    def _from_dict(cls, record: dict) -> "CountCut":
        return cls(
            collection=str(record["collection"]),
            min_count=int(record["min_count"]),
            min_pt=float(record.get("min_pt", 0.0)),
            max_abs_eta=(float(record["max_abs_eta"])
                         if "max_abs_eta" in record else None),
        )

    def describe(self) -> str:
        eta = (f", |eta| < {self.max_abs_eta}"
               if self.max_abs_eta is not None else "")
        return (f">= {self.min_count} {self.collection} with "
                f"pt > {self.min_pt} GeV{eta}")


@dataclass(frozen=True)
class MetCut(SelectionCut):
    """Require missing transverse momentum above a threshold."""

    min_met: float

    @classmethod
    def kind(cls) -> str:
        return "met"

    def passes(self, event: AODEvent) -> bool:
        return event.met.met >= self.min_met

    def to_dict(self) -> dict:
        return {"kind": self.kind(), "min_met": self.min_met}

    @classmethod
    def _from_dict(cls, record: dict) -> "MetCut":
        return cls(min_met=float(record["min_met"]))

    def describe(self) -> str:
        return f"MET > {self.min_met} GeV"


@dataclass(frozen=True)
class HtCut(SelectionCut):
    """Require the scalar jet-pt sum above a threshold."""

    min_ht: float

    @classmethod
    def kind(cls) -> str:
        return "ht"

    def passes(self, event: AODEvent) -> bool:
        return event.ht() >= self.min_ht

    def to_dict(self) -> dict:
        return {"kind": self.kind(), "min_ht": self.min_ht}

    @classmethod
    def _from_dict(cls, record: dict) -> "HtCut":
        return cls(min_ht=float(record["min_ht"]))

    def describe(self) -> str:
        return f"HT > {self.min_ht} GeV"


@dataclass(frozen=True)
class MassWindowCut(SelectionCut):
    """Require the invariant mass of the two leading objects in a window.

    ``opposite_charge`` additionally demands the pair be oppositely
    charged (only meaningful for lepton collections).
    """

    collection: str
    min_mass: float
    max_mass: float
    opposite_charge: bool = False

    @classmethod
    def kind(cls) -> str:
        return "mass_window"

    def passes(self, event: AODEvent) -> bool:
        objects = sorted(_collection(event, self.collection),
                         key=lambda obj: obj.p4.pt, reverse=True)
        if len(objects) < 2:
            return False
        first, second = objects[0], objects[1]
        if self.opposite_charge:
            charge1 = getattr(first, "charge", 0)
            charge2 = getattr(second, "charge", 0)
            if charge1 * charge2 >= 0:
                return False
        mass = invariant_mass([first.p4, second.p4])
        return self.min_mass <= mass <= self.max_mass

    def to_dict(self) -> dict:
        return {
            "kind": self.kind(), "collection": self.collection,
            "min_mass": self.min_mass, "max_mass": self.max_mass,
            "opposite_charge": self.opposite_charge,
        }

    @classmethod
    def _from_dict(cls, record: dict) -> "MassWindowCut":
        return cls(
            collection=str(record["collection"]),
            min_mass=float(record["min_mass"]),
            max_mass=float(record["max_mass"]),
            opposite_charge=bool(record.get("opposite_charge", False)),
        )

    def describe(self) -> str:
        charge = " (opposite charge)" if self.opposite_charge else ""
        return (f"{self.min_mass} < m({self.collection}[0,1]) < "
                f"{self.max_mass} GeV{charge}")


@dataclass(frozen=True)
class AndCut(SelectionCut):
    """Logical AND of child cuts."""

    children: tuple[SelectionCut, ...]

    @classmethod
    def kind(cls) -> str:
        return "and"

    def passes(self, event: AODEvent) -> bool:
        return all(child.passes(event) for child in self.children)

    def to_dict(self) -> dict:
        return {"kind": self.kind(),
                "children": [c.to_dict() for c in self.children]}

    @classmethod
    def _from_dict(cls, record: dict) -> "AndCut":
        return cls(children=tuple(cut_from_dict(c)
                                  for c in record["children"]))

    def describe(self) -> str:
        return " AND ".join(f"({c.describe()})" for c in self.children)


@dataclass(frozen=True)
class OrCut(SelectionCut):
    """Logical OR of child cuts."""

    children: tuple[SelectionCut, ...]

    @classmethod
    def kind(cls) -> str:
        return "or"

    def passes(self, event: AODEvent) -> bool:
        return any(child.passes(event) for child in self.children)

    def to_dict(self) -> dict:
        return {"kind": self.kind(),
                "children": [c.to_dict() for c in self.children]}

    @classmethod
    def _from_dict(cls, record: dict) -> "OrCut":
        return cls(children=tuple(cut_from_dict(c)
                                  for c in record["children"]))

    def describe(self) -> str:
        return " OR ".join(f"({c.describe()})" for c in self.children)


@dataclass(frozen=True)
class NotCut(SelectionCut):
    """Logical negation of a child cut."""

    child: SelectionCut

    @classmethod
    def kind(cls) -> str:
        return "not"

    def passes(self, event: AODEvent) -> bool:
        return not self.child.passes(event)

    def to_dict(self) -> dict:
        return {"kind": self.kind(), "child": self.child.to_dict()}

    @classmethod
    def _from_dict(cls, record: dict) -> "NotCut":
        return cls(child=cut_from_dict(record["child"]))

    def describe(self) -> str:
        return f"NOT ({self.child.describe()})"


@dataclass(frozen=True)
class TriggerCut(SelectionCut):
    """Require one of the listed trigger paths to have fired."""

    paths: tuple[str, ...]

    @classmethod
    def kind(cls) -> str:
        return "trigger"

    def passes(self, event: AODEvent) -> bool:
        return any(path in event.trigger_bits for path in self.paths)

    def to_dict(self) -> dict:
        return {"kind": self.kind(), "paths": list(self.paths)}

    @classmethod
    def _from_dict(cls, record: dict) -> "TriggerCut":
        return cls(paths=tuple(str(p) for p in record["paths"]))

    def describe(self) -> str:
        return "trigger in {" + ", ".join(self.paths) + "}"


@dataclass(frozen=True)
class SkimSpec:
    """A named event selection — the "skimming" half of a reduction step."""

    name: str
    cut: SelectionCut

    def apply(self, events: list[AODEvent]) -> list[AODEvent]:
        """Events passing the selection, order preserved."""
        return [event for event in events if self.cut.passes(event)]

    def efficiency(self, events: list[AODEvent]) -> float:
        """Fraction of events passing (0 for an empty input)."""
        if not events:
            return 0.0
        return len(self.apply(events)) / len(events)

    def to_dict(self) -> dict:
        """Serialise for preservation records."""
        return {"name": self.name, "cut": self.cut.to_dict()}

    @classmethod
    def from_dict(cls, record: dict) -> "SkimSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(name=str(record["name"]),
                   cut=cut_from_dict(record["cut"]))

    @classmethod
    def load(cls, path) -> "SkimSpec":
        """Read a JSON skim spec file, as ``repro skim --spec`` does."""
        return load_json_document(path, cls.from_dict, DataModelError,
                                  "skim spec")


#: Derived-column expressions available to slims, by name. Keeping this a
#: fixed vocabulary (rather than arbitrary code) is what makes a SlimSpec
#: a *description* instead of software that must itself be preserved.
_DERIVED_COLUMNS = {
    "n_electrons": lambda event: len(event.electrons),
    "n_muons": lambda event: len(event.muons),
    "n_jets": lambda event: len(event.jets),
    "met": lambda event: event.met.met,
    "ht": lambda event: event.ht(),
    "lead_lepton_pt": lambda event: (
        event.leptons()[0].p4.pt if event.leptons() else 0.0
    ),
    "lead_jet_pt": lambda event: (
        event.jets[0].p4.pt if event.jets else 0.0
    ),
    "dilepton_mass": lambda event: (
        invariant_mass([lepton.p4 for lepton in event.leptons()[:2]])
        if len(event.leptons()) >= 2 else 0.0
    ),
    "dimuon_mass": lambda event: (
        invariant_mass([muon.p4 for muon in sorted(
            event.muons, key=lambda m: m.p4.pt, reverse=True)[:2]])
        if len(event.muons) >= 2 else 0.0
    ),
}


@dataclass(frozen=True)
class SlimSpec:
    """A named content reduction — the "slimming" half of a step.

    Produces flat :class:`NtupleRow` records with the requested derived
    columns; column names must come from the fixed vocabulary.
    """

    name: str
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        unknown = [c for c in self.columns if c not in _DERIVED_COLUMNS]
        if unknown:
            raise DataModelError(
                f"slim {self.name!r}: unknown derived columns {unknown}; "
                f"available: {sorted(_DERIVED_COLUMNS)}"
            )

    def apply(self, events: list[AODEvent]) -> list[NtupleRow]:
        """Flatten each event to its derived columns."""
        rows = []
        for event in events:
            rows.append(NtupleRow(
                run_number=event.run_number,
                event_number=event.event_number,
                columns={name: _DERIVED_COLUMNS[name](event)
                         for name in self.columns},
            ))
        return rows

    def to_dict(self) -> dict:
        """Serialise for preservation records."""
        return {"name": self.name, "columns": list(self.columns)}

    @classmethod
    def from_dict(cls, record: dict) -> "SlimSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(name=str(record["name"]),
                   columns=tuple(str(c) for c in record["columns"]))


def available_derived_columns() -> list[str]:
    """The fixed derived-column vocabulary, sorted."""
    return sorted(_DERIVED_COLUMNS)
