"""The AOD event container and flat ntuple rows."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DataModelError
from repro.reconstruction.objects import (
    Electron,
    Jet,
    MissingEnergy,
    Muon,
    Photon,
    RecoEvent,
)


@dataclass
class AODEvent:
    """Analysis Object Data: the refined physics objects for one event.

    Basic objects (tracks, clusters) have been dropped — "after the initial
    commissioning phase ... only the refined objects necessary for further
    analysis are kept". ``trigger_bits`` records which toy trigger paths
    fired, computed at AOD production time.
    """

    run_number: int
    event_number: int
    electrons: list[Electron] = field(default_factory=list)
    muons: list[Muon] = field(default_factory=list)
    photons: list[Photon] = field(default_factory=list)
    jets: list[Jet] = field(default_factory=list)
    met: MissingEnergy = field(
        default_factory=lambda: MissingEnergy(0.0, 0.0)
    )
    trigger_bits: list[str] = field(default_factory=list)
    n_tracks: int = 0

    def leptons(self) -> list[Electron | Muon]:
        """All charged leptons, pt-sorted (descending).

        Ties are broken deterministically by flavour (electrons before
        muons) and then stored order — an *explicit* secondary key, so
        the ordering is part of the preserved selection semantics
        rather than an accident of sort stability: a mass-window cut
        on the leading pair, and so every archived skim, depends on it.
        """
        return sorted(self.electrons + self.muons,
                      key=lambda lepton: (-lepton.p4.pt,
                                          isinstance(lepton, Muon)))

    def ht(self) -> float:
        """Scalar sum of jet transverse momenta."""
        return sum(jet.p4.pt for jet in self.jets)

    def approximate_size_bytes(self) -> int:
        """Rough persistent size, used by tier-volume accounting."""
        return (
            80
            + 48 * (len(self.electrons) + len(self.muons))
            + 40 * len(self.photons)
            + 48 * len(self.jets)
            + 8 * len(self.trigger_bits)
        )

    def to_dict(self) -> dict:
        """Serialise for the AOD JSON-lines format."""
        return {
            "run": self.run_number,
            "event": self.event_number,
            "electrons": [e.to_dict() for e in self.electrons],
            "muons": [m.to_dict() for m in self.muons],
            "photons": [p.to_dict() for p in self.photons],
            "jets": [j.to_dict() for j in self.jets],
            "met": self.met.to_dict(),
            "triggers": list(self.trigger_bits),
            "ntracks": self.n_tracks,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "AODEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            run_number=int(record["run"]),
            event_number=int(record["event"]),
            electrons=[Electron.from_dict(e)
                       for e in record.get("electrons", [])],
            muons=[Muon.from_dict(m) for m in record.get("muons", [])],
            photons=[Photon.from_dict(p) for p in record.get("photons", [])],
            jets=[Jet.from_dict(j) for j in record.get("jets", [])],
            met=MissingEnergy.from_dict(record["met"]),
            trigger_bits=[str(t) for t in record.get("triggers", [])],
            n_tracks=int(record.get("ntracks", 0)),
        )


#: Toy trigger menu evaluated at AOD production.
TRIGGER_MENU = {
    "HLT_SingleMu20": lambda reco: any(m.p4.pt > 20.0 for m in reco.muons),
    "HLT_SingleEl25": lambda reco: any(e.p4.pt > 25.0
                                       for e in reco.electrons),
    "HLT_DiMu10": lambda reco: sum(1 for m in reco.muons
                                   if m.p4.pt > 10.0) >= 2,
    "HLT_DiEl12": lambda reco: sum(1 for e in reco.electrons
                                   if e.p4.pt > 12.0) >= 2,
    "HLT_Jet100": lambda reco: any(j.p4.pt > 100.0 for j in reco.jets),
    "HLT_Met80": lambda reco: reco.met.met > 80.0,
}


def make_aod(reco: RecoEvent) -> AODEvent:
    """Produce the AOD tier from a RECO event (the RECO->AOD step)."""
    fired = [name for name, condition in TRIGGER_MENU.items()
             if condition(reco)]
    return AODEvent(
        run_number=reco.run_number,
        event_number=reco.event_number,
        electrons=list(reco.electrons),
        muons=list(reco.muons),
        photons=list(reco.photons),
        jets=list(reco.jets),
        met=reco.met,
        trigger_bits=fired,
        n_tracks=len(reco.tracks),
    )


@dataclass
class NtupleRow:
    """A flat row of derived quantities — the analysis-group format.

    Unlike the structured tiers, an ntuple's columns are analysis-defined.
    The ``columns`` mapping must have JSON-scalar values only.
    """

    run_number: int
    event_number: int
    columns: dict[str, float | int | bool | str]

    def __post_init__(self) -> None:
        for key, value in self.columns.items():
            if not isinstance(value, (int, float, bool, str)):
                raise DataModelError(
                    f"ntuple column {key!r} has non-scalar value "
                    f"{type(value).__name__}"
                )

    def approximate_size_bytes(self) -> int:
        """Rough persistent size, used by tier-volume accounting."""
        return 16 + 12 * len(self.columns)

    def to_dict(self) -> dict:
        """Serialise for the NTUPLE JSON-lines format."""
        return {"run": self.run_number, "event": self.event_number,
                "cols": dict(self.columns)}

    @classmethod
    def from_dict(cls, record: dict) -> "NtupleRow":
        """Inverse of :meth:`to_dict`."""
        return cls(int(record["run"]), int(record["event"]),
                   dict(record["cols"]))
