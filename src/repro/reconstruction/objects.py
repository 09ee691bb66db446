"""Candidate physics objects and the RECO event container.

The paper: "Further refinement of the interpretation of these objects is
also done, resulting in the creation of 'candidate physics objects'
(electrons, muons, particle jets) that are combinations of the basic
objects." This module performs that combination step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.detector.digitization import MuonChamberHit
from repro.kinematics import FourVector
from repro.kinematics.fourvector import delta_phi, finite
from repro.reconstruction.clustering import CaloCluster
from repro.reconstruction.tracking import Track

ELECTRON_MASS = 0.000511
MUON_MASS = 0.10566


@dataclass(frozen=True)
class Electron:
    """A track matched to an ECAL cluster with compatible energy."""

    p4: FourVector
    charge: int
    e_over_p: float
    isolation: float

    def to_dict(self) -> dict:
        """Serialise for the RECO/AOD file formats."""
        return {"p4": self.p4.to_list(), "q": self.charge,
                "eop": self.e_over_p, "iso": self.isolation}

    @classmethod
    def from_dict(cls, record: dict) -> "Electron":
        """Inverse of :meth:`to_dict`."""
        return cls(FourVector.from_list(record["p4"]), int(record["q"]),
                   finite(record["eop"]), finite(record["iso"]))


@dataclass(frozen=True)
class Muon:
    """A track matched to muon-chamber segments."""

    p4: FourVector
    charge: int
    n_stations: int
    isolation: float

    def to_dict(self) -> dict:
        """Serialise for the RECO/AOD file formats."""
        return {"p4": self.p4.to_list(), "q": self.charge,
                "stations": self.n_stations, "iso": self.isolation}

    @classmethod
    def from_dict(cls, record: dict) -> "Muon":
        """Inverse of :meth:`to_dict`."""
        return cls(FourVector.from_list(record["p4"]), int(record["q"]),
                   int(record["stations"]), finite(record["iso"]))


@dataclass(frozen=True)
class Photon:
    """An ECAL cluster with no matching track."""

    p4: FourVector

    def to_dict(self) -> dict:
        """Serialise for the RECO/AOD file formats."""
        return {"p4": self.p4.to_list()}

    @classmethod
    def from_dict(cls, record: dict) -> "Photon":
        """Inverse of :meth:`to_dict`."""
        return cls(FourVector.from_list(record["p4"]))


@dataclass(frozen=True)
class Jet:
    """A cone-clustered hadronic jet."""

    p4: FourVector
    n_constituents: int
    em_fraction: float

    def to_dict(self) -> dict:
        """Serialise for the RECO/AOD file formats."""
        return {"p4": self.p4.to_list(), "ncon": self.n_constituents,
                "emf": self.em_fraction}

    @classmethod
    def from_dict(cls, record: dict) -> "Jet":
        """Inverse of :meth:`to_dict`."""
        return cls(FourVector.from_list(record["p4"]), int(record["ncon"]),
                   finite(record["emf"]))


@dataclass(frozen=True)
class MissingEnergy:
    """Missing transverse momentum: the neutrino/invisible proxy."""

    met: float
    phi: float

    def p4(self) -> FourVector:
        """A massless transverse four-vector for mT calculations."""
        return FourVector.from_ptetaphim(self.met, 0.0, self.phi, 0.0)

    def to_dict(self) -> dict:
        """Serialise for the RECO/AOD file formats."""
        return {"met": self.met, "phi": self.phi}

    @classmethod
    def from_dict(cls, record: dict) -> "MissingEnergy":
        """Inverse of :meth:`to_dict`."""
        return cls(finite(record["met"]), finite(record["phi"]))


@dataclass
class RecoEvent:
    """The RECO tier: full reconstruction output for one event.

    Retains the basic objects (tracks, clusters) *and* the candidate
    physics objects; the AOD tier drops the basics, exactly as the paper
    describes the post-commissioning reduction.
    """

    run_number: int
    event_number: int
    tracks: list[Track] = field(default_factory=list)
    ecal_clusters: list[CaloCluster] = field(default_factory=list)
    hcal_clusters: list[CaloCluster] = field(default_factory=list)
    electrons: list[Electron] = field(default_factory=list)
    muons: list[Muon] = field(default_factory=list)
    photons: list[Photon] = field(default_factory=list)
    jets: list[Jet] = field(default_factory=list)
    met: MissingEnergy = field(
        default_factory=lambda: MissingEnergy(0.0, 0.0)
    )

    def approximate_size_bytes(self) -> int:
        """Rough persistent size, used by tier-volume accounting."""
        return (
            96
            + 64 * len(self.tracks)
            + 40 * (len(self.ecal_clusters) + len(self.hcal_clusters))
            + 48 * (len(self.electrons) + len(self.muons))
            + 40 * len(self.photons)
            + 48 * len(self.jets)
        )

    def to_dict(self) -> dict:
        """Serialise for the RECO JSON-lines format."""
        return {
            "run": self.run_number,
            "event": self.event_number,
            "tracks": [t.to_dict() for t in self.tracks],
            "ecal_clusters": [c.to_dict() for c in self.ecal_clusters],
            "hcal_clusters": [c.to_dict() for c in self.hcal_clusters],
            "electrons": [e.to_dict() for e in self.electrons],
            "muons": [m.to_dict() for m in self.muons],
            "photons": [p.to_dict() for p in self.photons],
            "jets": [j.to_dict() for j in self.jets],
            "met": self.met.to_dict(),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "RecoEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            run_number=int(record["run"]),
            event_number=int(record["event"]),
            tracks=[Track.from_dict(t) for t in record.get("tracks", [])],
            ecal_clusters=[CaloCluster.from_dict(c)
                           for c in record.get("ecal_clusters", [])],
            hcal_clusters=[CaloCluster.from_dict(c)
                           for c in record.get("hcal_clusters", [])],
            electrons=[Electron.from_dict(e)
                       for e in record.get("electrons", [])],
            muons=[Muon.from_dict(m) for m in record.get("muons", [])],
            photons=[Photon.from_dict(p) for p in record.get("photons", [])],
            jets=[Jet.from_dict(j) for j in record.get("jets", [])],
            met=MissingEnergy.from_dict(record["met"]),
        )


@dataclass(frozen=True)
class ObjectBuilderConfig:
    """Matching windows and identification cuts."""

    match_delta_r: float = 0.15
    e_over_p_min: float = 0.7
    e_over_p_max: float = 1.4
    electron_min_pt: float = 2.0
    muon_min_pt: float = 3.0
    muon_min_stations: int = 2
    photon_min_energy: float = 2.0
    isolation_cone: float = 0.3


class ObjectBuilder:
    """Builds candidate physics objects from tracks, clusters, segments."""

    def __init__(self, config: ObjectBuilderConfig | None = None) -> None:
        self.config = config if config is not None else ObjectBuilderConfig()

    @staticmethod
    def _delta_r(eta1: float, phi1: float, eta2: float, phi2: float) -> float:
        # sqrt-of-squares, not hypot: hypot rounds differently, and
        # isolation sums and matching decisions derived from this value
        # are archived, so changing it would change archived bytes.
        d_eta = eta1 - eta2
        d_phi = delta_phi(phi1, phi2)
        return math.sqrt(d_eta * d_eta + d_phi * d_phi)

    def _isolation(self, track: Track, tracks: list[Track]) -> float:
        """Scalar pt sum of other tracks in the isolation cone."""
        total = 0.0
        for other in tracks:
            if other is track:
                continue
            if self._delta_r(track.eta, track.phi, other.eta,
                             other.phi) < self.config.isolation_cone:
                total += other.pt
        return total

    def build_muons(self, tracks: list[Track],
                    muon_hits: list[MuonChamberHit]) -> list[Muon]:
        """Match tracks to muon-chamber segments."""
        muons = []
        for track in tracks:
            if track.pt < self.config.muon_min_pt:
                continue
            stations = set()
            for hit in muon_hits:
                if self._delta_r(track.eta, track.phi, hit.eta,
                                 hit.phi) < self.config.match_delta_r:
                    stations.add(hit.station)
            if len(stations) >= self.config.muon_min_stations:
                muons.append(Muon(
                    p4=track.p4(MUON_MASS),
                    charge=track.charge,
                    n_stations=len(stations),
                    isolation=self._isolation(track, tracks),
                ))
        return muons

    def build_electrons(self, tracks: list[Track],
                        ecal_clusters: list[CaloCluster],
                        muons: list[Muon]) -> list[Electron]:
        """Match tracks to ECAL clusters with compatible energy."""
        muon_directions = [(m.p4.eta, m.p4.phi) for m in muons]
        electrons = []
        used_clusters: set[int] = set()
        for track in tracks:
            if track.pt < self.config.electron_min_pt:
                continue
            if any(self._delta_r(track.eta, track.phi, eta, phi) < 0.05
                   for eta, phi in muon_directions):
                continue
            best_index = None
            best_dr = self.config.match_delta_r
            for index, cluster in enumerate(ecal_clusters):
                if index in used_clusters:
                    continue
                dr = self._delta_r(track.eta, track.phi, cluster.eta,
                                   cluster.phi)
                if dr < best_dr:
                    best_dr = dr
                    best_index = index
            if best_index is None:
                continue
            cluster = ecal_clusters[best_index]
            momentum = track.p4(ELECTRON_MASS).p
            if momentum <= 0.0:
                continue
            e_over_p = cluster.energy / momentum
            if not (self.config.e_over_p_min <= e_over_p
                    <= self.config.e_over_p_max):
                continue
            used_clusters.add(best_index)
            # Direction from the track, energy from the calorimeter.
            pt = cluster.energy / math.cosh(track.eta)
            electrons.append(Electron(
                p4=FourVector.from_ptetaphim(pt, track.eta, track.phi,
                                             ELECTRON_MASS),
                charge=track.charge,
                e_over_p=e_over_p,
                isolation=self._isolation(track, tracks),
            ))
        return electrons

    def build_photons(self, tracks: list[Track],
                      ecal_clusters: list[CaloCluster],
                      electrons: list[Electron]) -> list[Photon]:
        """ECAL clusters with no nearby track and enough energy."""
        electron_directions = [(e.p4.eta, e.p4.phi) for e in electrons]
        photons = []
        for cluster in ecal_clusters:
            if cluster.energy < self.config.photon_min_energy:
                continue
            if any(self._delta_r(cluster.eta, cluster.phi, track.eta,
                                 track.phi) < self.config.match_delta_r
                   for track in tracks):
                continue
            if any(self._delta_r(cluster.eta, cluster.phi, eta,
                                 phi) < self.config.match_delta_r
                   for eta, phi in electron_directions):
                continue
            photons.append(Photon(p4=cluster.p4()))
        return photons

    def build_met(self, ecal_clusters: list[CaloCluster],
                  hcal_clusters: list[CaloCluster],
                  muons: list[Muon]) -> MissingEnergy:
        """Negative vector sum of calorimeter clusters plus muons."""
        px = 0.0
        py = 0.0
        for cluster in ecal_clusters + hcal_clusters:
            p4 = cluster.p4()
            px += p4.px
            py += p4.py
        for muon in muons:
            px += muon.p4.px
            py += muon.p4.py
        met = math.hypot(px, py)
        phi = math.atan2(-py, -px) if met > 0.0 else 0.0
        return MissingEnergy(met=met, phi=phi)
