"""Digitisation: simulation output -> the RAW data tier.

The digitiser converts particle traversals into anonymous detector hits —
tracker space points along each helix, calorimeter cell energies, muon
chamber segments — plus electronic noise. Crucially, **truth links do not
survive digitisation**: the RAW tier contains only what the detector would
actually read out, so downstream reconstruction has to do genuine pattern
recognition, exactly as the paper describes the Reconstruction step.

Helix model
-----------
In a solenoid field ``B`` a particle of charge ``q`` and transverse
momentum ``pt`` follows, to first order in the sagitta, the azimuth

    phi(r) = phi0 + d0 / r - q * K * B * r / (2 * pt)

where ``K = 0.0003 GeV / (T mm)`` and ``d0`` is the signed transverse
impact parameter. Longitudinally ``z(r) = z0 + r * sinh(eta)``. Both are
linear in the fit basis ``(1, 1/r, r)`` and ``(1, r)``, which is what the
track fitter exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.detector.geometry import DetectorGeometry
from repro.detector.simulation import SimulatedEvent, Traversal
from repro.errors import DetectorError
from repro.generation.decays import uniform
from repro.kinematics.fourvector import wrap_phi

#: Curvature constant: dphi/dr = -q * KAPPA * B / (2 pt), r in mm, B in T.
KAPPA = 0.0003


@dataclass(frozen=True)
class TrackerHit:
    """One tracker space point: ``(layer, r, phi, z)`` with noise applied."""

    layer: int
    r_mm: float
    phi: float
    z_mm: float

    def to_dict(self) -> dict:
        """Serialise for the RAW file format."""
        return {"layer": self.layer, "r": self.r_mm, "phi": self.phi,
                "z": self.z_mm}

    @classmethod
    def from_dict(cls, record: dict) -> "TrackerHit":
        """Inverse of :meth:`to_dict`."""
        return cls(int(record["layer"]), float(record["r"]),
                   float(record["phi"]), float(record["z"]))


@dataclass(frozen=True)
class CaloCellHit:
    """Energy recorded in one calorimeter cell."""

    subdetector: str
    ieta: int
    iphi: int
    energy: float

    def to_dict(self) -> dict:
        """Serialise for the RAW file format."""
        return {"sub": self.subdetector, "ieta": self.ieta,
                "iphi": self.iphi, "e": self.energy}

    @classmethod
    def from_dict(cls, record: dict) -> "CaloCellHit":
        """Inverse of :meth:`to_dict`."""
        return cls(str(record["sub"]), int(record["ieta"]),
                   int(record["iphi"]), float(record["e"]))


@dataclass(frozen=True)
class MuonChamberHit:
    """A muon-chamber segment: station index plus direction estimate."""

    station: int
    eta: float
    phi: float

    def to_dict(self) -> dict:
        """Serialise for the RAW file format."""
        return {"station": self.station, "eta": self.eta, "phi": self.phi}

    @classmethod
    def from_dict(cls, record: dict) -> "MuonChamberHit":
        """Inverse of :meth:`to_dict`."""
        return cls(int(record["station"]), float(record["eta"]),
                   float(record["phi"]))


@dataclass
class RawEvent:
    """The RAW data tier for one event: detector signals only."""

    run_number: int
    event_number: int
    bunch_crossing: int
    tracker_hits: list[TrackerHit] = field(default_factory=list)
    calo_hits: list[CaloCellHit] = field(default_factory=list)
    muon_hits: list[MuonChamberHit] = field(default_factory=list)

    def approximate_size_bytes(self) -> int:
        """Rough persistent size, used by tier-volume accounting."""
        return (
            64
            + 32 * len(self.tracker_hits)
            + 24 * len(self.calo_hits)
            + 24 * len(self.muon_hits)
        )

    def to_dict(self) -> dict:
        """Serialise for the RAW JSON-lines format."""
        return {
            "run": self.run_number,
            "event": self.event_number,
            "bx": self.bunch_crossing,
            "tracker_hits": [h.to_dict() for h in self.tracker_hits],
            "calo_hits": [h.to_dict() for h in self.calo_hits],
            "muon_hits": [h.to_dict() for h in self.muon_hits],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "RawEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            run_number=int(record["run"]),
            event_number=int(record["event"]),
            bunch_crossing=int(record["bx"]),
            tracker_hits=[TrackerHit.from_dict(h)
                          for h in record.get("tracker_hits", [])],
            calo_hits=[CaloCellHit.from_dict(h)
                       for h in record.get("calo_hits", [])],
            muon_hits=[MuonChamberHit.from_dict(h)
                       for h in record.get("muon_hits", [])],
        )


@dataclass(frozen=True)
class DigitizerConfig:
    """Noise and inefficiency parameters of the readout electronics."""

    #: Probability that any given tracker layer misses a crossing particle.
    layer_inefficiency: float = 0.02
    #: Mean number of random tracker noise hits per event.
    tracker_noise_hits: float = 3.0
    #: Gaussian noise per calorimeter cell, GeV.
    calo_cell_noise: float = 0.05
    #: Zero-suppression threshold for calorimeter cells, GeV.
    calo_cell_threshold: float = 0.15
    #: Mean number of noise calorimeter cells surviving zero suppression.
    calo_noise_cells: float = 2.0


class Digitizer:
    """Converts :class:`SimulatedEvent` records to :class:`RawEvent`."""

    def __init__(
        self,
        geometry: DetectorGeometry,
        config: DigitizerConfig | None = None,
        run_number: int = 1,
        seed: int = 4242,
    ) -> None:
        self.geometry = geometry
        self.config = config if config is not None else DigitizerConfig()
        self.run_number = run_number
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._bx = 0

    # ------------------------------------------------------------------
    # Helix hit generation
    # ------------------------------------------------------------------

    def _tracker_hits_for(self, traversal: Traversal) -> list[TrackerHit]:
        tracker = self.geometry.tracker
        rng = self._rng
        momentum = traversal.momentum
        pt = momentum.pt
        if pt <= 0.0:
            raise DetectorError("cannot digitise a zero-pt traversal")
        eta = momentum.eta
        phi0 = momentum.phi
        x0, y0, z0 = traversal.origin
        # Signed transverse impact parameter of a straight line through
        # (x0, y0) with direction phi0.
        d0 = x0 * math.sin(phi0) - y0 * math.cos(phi0)
        curvature = (
            -traversal.charge * KAPPA * self.geometry.bfield_tesla / (2.0 * pt)
        )
        transverse_origin = math.hypot(x0, y0)
        sinh_eta = math.sinh(eta)
        hits = []
        for layer, radius in enumerate(tracker.layer_radii_mm):
            if radius <= transverse_origin:
                # Particle produced outside this layer (displaced decay).
                continue
            if rng.random() < self.config.layer_inefficiency:
                continue
            z = z0 + radius * sinh_eta
            # Longitudinal acceptance from the eta_max envelope.
            if abs(z) > radius * math.sinh(tracker.eta_max) + 200.0:
                continue
            phi_noise = rng.normal(0.0, tracker.hit_resolution_mm / radius)
            z_noise = rng.normal(0.0, 3.0 * tracker.hit_resolution_mm)
            phi = wrap_phi(phi0 + d0 / radius + curvature * radius
                           + phi_noise)
            hits.append(TrackerHit(layer=layer, r_mm=radius, phi=phi,
                                   z_mm=z + z_noise))
        return hits

    def _noise_tracker_hits(self) -> list[TrackerHit]:
        tracker = self.geometry.tracker
        rng = self._rng
        n_noise = int(rng.poisson(self.config.tracker_noise_hits))
        hits = []
        for _ in range(n_noise):
            layer = int(rng.integers(0, len(tracker.layer_radii_mm)))
            radius = tracker.layer_radii_mm[layer]
            hits.append(TrackerHit(
                layer=layer,
                r_mm=radius,
                phi=uniform(rng, -math.pi, math.pi),
                z_mm=uniform(rng, -2500.0, 2500.0),
            ))
        return hits

    # ------------------------------------------------------------------
    # Calorimeter cells
    # ------------------------------------------------------------------

    def _cell_index(self, subdetector_name: str, eta: float,
                    phi: float) -> tuple[int, int] | None:
        sub = self.geometry.subdetectors[subdetector_name]
        if abs(eta) > sub.eta_max or sub.eta_cells == 0:
            return None
        ieta = int((eta + sub.eta_max) / (2.0 * sub.eta_max) * sub.eta_cells)
        ieta = min(max(ieta, 0), sub.eta_cells - 1)
        iphi = int((phi + math.pi) / (2.0 * math.pi) * sub.phi_cells)
        iphi = min(max(iphi, 0), sub.phi_cells - 1)
        return ieta, iphi

    def cell_center(self, subdetector_name: str, ieta: int,
                    iphi: int) -> tuple[float, float]:
        """The (eta, phi) centre of a cell — used by clustering."""
        sub = self.geometry.subdetectors[subdetector_name]
        eta = -sub.eta_max + (ieta + 0.5) * (2.0 * sub.eta_max
                                             / sub.eta_cells)
        phi = -math.pi + (iphi + 0.5) * (2.0 * math.pi / sub.phi_cells)
        return eta, phi

    def _calo_cells(self, sim_event: SimulatedEvent) -> list[CaloCellHit]:
        rng = self._rng
        cells: dict[tuple[str, int, int], float] = {}
        for deposit in sim_event.deposits:
            index = self._cell_index(deposit.subdetector, deposit.eta,
                                     deposit.phi)
            if index is None:
                continue
            # Split the shower over a 1+neighbour footprint: 80% core,
            # 20% shared with a random adjacent cell in phi.
            core_key = (deposit.subdetector, index[0], index[1])
            cells[core_key] = cells.get(core_key, 0.0) + 0.8 * deposit.measured_energy
            sub = self.geometry.subdetectors[deposit.subdetector]
            # Same draw as ``rng.choice([-1, 1])``, a quarter of the cost.
            step = (-1, 1)[rng.integers(0, 2)]
            neighbour_phi = (index[1] + step) % sub.phi_cells
            neighbour_key = (deposit.subdetector, index[0], neighbour_phi)
            cells[neighbour_key] = (
                cells.get(neighbour_key, 0.0) + 0.2 * deposit.measured_energy
            )
        # Electronic noise on hit cells.
        hits = []
        for (sub_name, ieta, iphi), energy in cells.items():
            noisy = energy + rng.normal(0.0, self.config.calo_cell_noise)
            if noisy >= self.config.calo_cell_threshold:
                hits.append(CaloCellHit(sub_name, ieta, iphi, noisy))
        # Pure-noise cells.
        for sub_name in ("ecal", "hcal"):
            if sub_name not in self.geometry.subdetectors:
                continue
            sub = self.geometry.subdetectors[sub_name]
            n_noise = int(rng.poisson(self.config.calo_noise_cells))
            for _ in range(n_noise):
                hits.append(CaloCellHit(
                    sub.name,
                    int(rng.integers(0, sub.eta_cells)),
                    int(rng.integers(0, sub.phi_cells)),
                    float(self.config.calo_cell_threshold
                          + rng.exponential(0.1)),
                ))
        return hits

    # ------------------------------------------------------------------
    # Muon chambers
    # ------------------------------------------------------------------

    def _muon_hits(self, sim_event: SimulatedEvent) -> list[MuonChamberHit]:
        muon_system = self.geometry.muon_system
        rng = self._rng
        hits = []
        for traversal in sim_event.traversals:
            if not traversal.reaches_muon_system:
                continue
            for station, radius in enumerate(muon_system.layer_radii_mm):
                if rng.random() < self.config.layer_inefficiency:
                    continue
                angular_noise = muon_system.hit_resolution_mm / radius
                hits.append(MuonChamberHit(
                    station=station,
                    eta=traversal.momentum.eta + float(
                        rng.normal(0.0, 5.0 * angular_noise)),
                    phi=wrap_phi(traversal.momentum.phi + float(
                        rng.normal(0.0, angular_noise))),
                ))
        return hits

    # ------------------------------------------------------------------

    def digitize(self, sim_event: SimulatedEvent) -> RawEvent:
        """Produce the RAW record for one simulated event."""
        self._bx += 1
        raw = RawEvent(
            run_number=self.run_number,
            event_number=sim_event.event_number,
            bunch_crossing=self._bx,
        )
        for traversal in sim_event.traversals:
            raw.tracker_hits.extend(self._tracker_hits_for(traversal))
        raw.tracker_hits.extend(self._noise_tracker_hits())
        raw.calo_hits.extend(self._calo_cells(sim_event))
        raw.muon_hits.extend(self._muon_hits(sim_event))
        return raw

    def digitize_many(self, sim_events: list[SimulatedEvent]) -> list[RawEvent]:
        """Digitise a list of simulated events in order."""
        return [self.digitize(event) for event in sim_events]

    def digitize_many_batch(
            self, sim_events: list[SimulatedEvent]) -> list[RawEvent]:
        """Digitise a list of simulated events serially: one call to
        :meth:`digitize_many`. The name stays public because
        ``perfbench/layers.py`` traces it."""
        return self.digitize_many(sim_events)

    def describe(self) -> dict:
        """Provenance description of the digitiser configuration."""
        return {
            "digitizer": "repro-digi",
            "version": "1.0.0",
            "run_number": self.run_number,
            "layer_inefficiency": self.config.layer_inefficiency,
            "calo_cell_threshold": self.config.calo_cell_threshold,
        }
