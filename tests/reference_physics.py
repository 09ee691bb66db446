"""Reference implementations of the physics hot path, kept as oracles.

These are the straightforward forms of code that production now runs
through precomputed per-event tables: the track finder's road search
and helix fit over numpy arrays, the calorimeter clusterer's per-cell
centre lookups, the cone jet finder that rebuilds each cluster's
four-momentum on every use, and the final-state projection family that
computes kinematics before filtering on PDG id. The differential tests in
``tests/test_hot_path_oracle.py`` require production to return
``repr``-equal results on the same inputs; none of this module is used
by the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.detector.digitization import KAPPA, CaloCellHit, TrackerHit
from repro.detector.simulation import INVISIBLE_PDG_IDS
from repro.errors import ReconstructionError
from repro.generation.hepmc import GenEvent, GenParticle
from repro.kinematics import FourVector
from repro.kinematics.fourvector import delta_phi, wrap_phi
from repro.reconstruction.clustering import CaloCluster, CaloClusterer
from repro.reconstruction.jets import ConeJetFinder
from repro.reconstruction.objects import Jet
from repro.reconstruction.tracking import _MAX_PT, Track, TrackFinder


class ReferenceTrackFinder(TrackFinder):
    """Road search and fit over per-seed and per-fit numpy arrays."""

    def find(self, hits: list[TrackerHit]) -> list[Track]:
        if len(hits) < self.config.min_hits:
            return []
        r = np.array([h.r_mm for h in hits])
        phi = np.array([h.phi for h in hits])
        z = np.array([h.z_mm for h in hits])
        layer = np.array([h.layer for h in hits])
        used = np.zeros(len(hits), dtype=bool)
        tracks = []
        layers_present = sorted(set(layer.tolist()), reverse=True)
        for i_outer, outer_layer in enumerate(layers_present[:-1]):
            inner_layer = layers_present[i_outer + 1]
            outer_indices = np.where((layer == outer_layer) & ~used)[0]
            inner_indices = np.where((layer == inner_layer) & ~used)[0]
            for seed_outer in outer_indices:
                if used[seed_outer]:
                    continue
                for seed_inner in inner_indices:
                    if used[seed_inner] or used[seed_outer]:
                        continue
                    track = self._try_seed(
                        seed_outer, seed_inner, r, phi, z, layer, used
                    )
                    if track is not None:
                        tracks.append(track)
        return tracks

    def _try_seed(self, i1, i2, r, phi, z, layer, used) -> Track | None:
        r1, r2 = r[i1], r[i2]
        if r1 == r2:
            return None
        dphi = wrap_phi(phi[i1] - phi[i2])
        slope_phi = dphi / (r1 - r2)
        max_slope = KAPPA * self._bfield / (2.0 * self.config.min_pt)
        if abs(slope_phi) > max_slope:
            return None
        intercept_phi = phi[i2] - slope_phi * r2
        slope_z = (z[i1] - z[i2]) / (r1 - r2)
        intercept_z = z[i2] - slope_z * r2

        predicted_phi = intercept_phi + slope_phi * r
        predicted_z = intercept_z + slope_z * r
        residual_phi = np.abs(
            np.mod(phi - predicted_phi + math.pi, 2.0 * math.pi) - math.pi
        )
        residual_z = np.abs(z - predicted_z)
        phi_window = self.config.phi_road
        if self.config.d0_allowance_mm > 0.0:
            phi_window = phi_window + self.config.d0_allowance_mm / r
        in_road = (
            (residual_phi < phi_window)
            & (residual_z < self.config.z_road_mm)
            & ~used
        )
        candidate_indices = np.where(in_road)[0]
        best_per_layer: dict[int, int] = {}
        for index in candidate_indices:
            this_layer = int(layer[index])
            current = best_per_layer.get(this_layer)
            if current is None or residual_phi[index] < residual_phi[current]:
                best_per_layer[this_layer] = int(index)
        chosen = sorted(best_per_layer.values())
        if len(chosen) < self.config.min_hits:
            return None
        track = self._fit(r[chosen], phi[chosen], z[chosen])
        if track is None:
            return None
        used[chosen] = True
        return track

    def _fit(self, r, phi, z) -> Track | None:
        n = len(r)
        reference = phi[0]
        unwrapped = reference + np.array(
            [wrap_phi(p - reference) for p in phi]
        )
        basis = np.column_stack([np.ones(n), 1.0 / r, r])
        sigma_phi = self.geometry.tracker.hit_resolution_mm / r
        weights = 1.0 / sigma_phi
        coeffs, residuals, rank, _ = np.linalg.lstsq(
            basis * weights[:, None], unwrapped * weights, rcond=None
        )
        if rank < 3:
            return None
        phi0, d0, curvature = coeffs
        chi2 = float(residuals[0]) if residuals.size else 0.0

        z_basis = np.column_stack([np.ones(n), r])
        z_coeffs, z_residuals, _, _ = np.linalg.lstsq(z_basis, z, rcond=None)
        z0, slope_z = z_coeffs
        sigma_z = 3.0 * self.geometry.tracker.hit_resolution_mm
        if z_residuals.size:
            chi2 += float(z_residuals[0]) / sigma_z**2

        dof = max(1, 2 * n - 5)
        if chi2 / dof > self.config.max_chi2_per_dof:
            return None

        if curvature == 0.0:
            pt = _MAX_PT
            charge = 1
        else:
            pt = KAPPA * self._bfield / (2.0 * abs(curvature))
            pt = min(pt, _MAX_PT)
            charge = -1 if curvature > 0.0 else 1
        if pt < self.config.min_pt:
            return None
        eta = math.asinh(slope_z)
        return Track(
            pt=float(pt),
            eta=float(eta),
            phi=float(wrap_phi(phi0)),
            charge=charge,
            d0_mm=float(d0),
            z0_mm=float(z0),
            chi2=float(chi2),
            n_hits=n,
        )


class ReferenceCaloClusterer(CaloClusterer):
    """Clustering that looks up each neighbour's cell centre and takes
    its cosine and sine on the spot."""

    def _cell_center(self, subdetector_name: str, ieta: int,
                     iphi: int) -> tuple[float, float]:
        sub = self.geometry.subdetectors[subdetector_name]
        if sub.eta_cells == 0 or sub.phi_cells == 0:
            raise ReconstructionError(
                f"{subdetector_name} has no cell granularity"
            )
        eta = -sub.eta_max + (ieta + 0.5) * (2.0 * sub.eta_max
                                             / sub.eta_cells)
        phi = -math.pi + (iphi + 0.5) * (2.0 * math.pi / sub.phi_cells)
        return eta, phi

    def cluster(self, calo_hits: list[CaloCellHit], subdetector_name: str,
                energy_scale: float = 1.0) -> list[CaloCluster]:
        if energy_scale <= 0.0:
            raise ReconstructionError(
                f"energy scale must be positive, got {energy_scale}"
            )
        sub = self.geometry.subdetectors[subdetector_name]
        grid: dict[tuple[int, int], float] = {}
        for hit in calo_hits:
            if hit.subdetector != subdetector_name:
                continue
            if hit.energy < self.config.cell_threshold:
                continue
            key = (hit.ieta, hit.iphi)
            grid[key] = grid.get(key, 0.0) + hit.energy / energy_scale

        clusters = []
        claimed: set[tuple[int, int]] = set()
        for (ieta, iphi) in sorted(grid, key=grid.get, reverse=True):
            if (ieta, iphi) in claimed:
                continue
            energy = grid[(ieta, iphi)]
            if energy < self.config.seed_threshold:
                break
            if not self._is_local_maximum(grid, sub.phi_cells, ieta, iphi):
                continue
            total = 0.0
            weighted_eta = 0.0
            weighted_phi_x = 0.0
            weighted_phi_y = 0.0
            n_cells = 0
            for d_eta in (-1, 0, 1):
                for d_phi in (-1, 0, 1):
                    neighbour = (ieta + d_eta, (iphi + d_phi) % sub.phi_cells)
                    if neighbour in claimed or neighbour not in grid:
                        continue
                    cell_energy = grid[neighbour]
                    cell_eta, cell_phi = self._cell_center(
                        subdetector_name, neighbour[0], neighbour[1]
                    )
                    total += cell_energy
                    weighted_eta += cell_energy * cell_eta
                    weighted_phi_x += cell_energy * math.cos(cell_phi)
                    weighted_phi_y += cell_energy * math.sin(cell_phi)
                    n_cells += 1
                    claimed.add(neighbour)
            if total < self.config.cluster_min_energy:
                continue
            clusters.append(CaloCluster(
                subdetector=subdetector_name,
                energy=total,
                eta=weighted_eta / total,
                phi=math.atan2(weighted_phi_y, weighted_phi_x),
                n_cells=n_cells,
            ))
        return clusters


class ReferenceConeJetFinder(ConeJetFinder):
    """Cone jets that rebuild each cluster's four-momentum on every use."""

    def find(self, clusters: list[CaloCluster]) -> list[Jet]:
        remaining = sorted(clusters, key=lambda c: c.p4().pt, reverse=True)
        jets = []
        while remaining:
            seed = remaining[0]
            seed_p4 = seed.p4()
            if seed_p4.pt < self.config.seed_et:
                break
            axis_eta = seed.eta
            axis_phi = seed.phi
            members: list[CaloCluster] = []
            for _ in range(self.config.max_iterations):
                members = [
                    c for c in remaining
                    if math.hypot(c.eta - axis_eta,
                                  delta_phi(c.phi, axis_phi))
                    < self.config.cone_radius
                ]
                if not members:
                    break
                total = FourVector.zero()
                for member in members:
                    total = total + member.p4()
                new_eta = total.eta
                new_phi = total.phi
                if (abs(new_eta - axis_eta) < 1e-4
                        and abs(delta_phi(new_phi, axis_phi)) < 1e-4):
                    axis_eta, axis_phi = new_eta, new_phi
                    break
                axis_eta, axis_phi = new_eta, new_phi
            if not members:
                remaining.pop(0)
                continue
            total = FourVector.zero()
            em_energy = 0.0
            for member in members:
                total = total + member.p4()
                if member.subdetector == "ecal":
                    em_energy += member.energy
            member_ids = {id(m) for m in members}
            remaining = [c for c in remaining if id(c) not in member_ids]
            if total.pt < self.config.jet_min_pt:
                continue
            em_fraction = em_energy / total.e if total.e > 0.0 else 0.0
            jets.append(Jet(
                p4=total,
                n_constituents=len(members),
                em_fraction=em_fraction,
            ))
        return sorted(jets, key=lambda j: j.p4.pt, reverse=True)


@dataclass(frozen=True)
class ReferenceFinalState:
    eta_max: float = 5.0
    pt_min: float = 0.0

    def particles(self, event: GenEvent) -> list[GenParticle]:
        selected = []
        for particle in event.final_state():
            momentum = particle.momentum
            if momentum.pt < self.pt_min:
                continue
            eta = momentum.eta
            if math.isinf(eta) or abs(eta) > self.eta_max:
                continue
            selected.append(particle)
        return selected


@dataclass(frozen=True)
class ReferenceChargedFinalState:
    eta_max: float = 2.5
    pt_min: float = 0.1

    _CHARGED_IDS = frozenset({
        11, -11, 13, -13, 15, -15, 211, -211, 321, -321, 2212, -2212,
        411, -411, 24, -24,
    })

    def particles(self, event: GenEvent) -> list[GenParticle]:
        base = ReferenceFinalState(eta_max=self.eta_max, pt_min=self.pt_min)
        return [p for p in base.particles(event)
                if p.pdg_id in self._CHARGED_IDS]


@dataclass(frozen=True)
class ReferenceIdentifiedFinalState:
    pdg_ids: tuple[int, ...]
    eta_max: float = 5.0
    pt_min: float = 0.0

    def particles(self, event: GenEvent) -> list[GenParticle]:
        wanted = set(self.pdg_ids)
        base = ReferenceFinalState(eta_max=self.eta_max, pt_min=self.pt_min)
        return [p for p in base.particles(event) if p.pdg_id in wanted]


@dataclass(frozen=True)
class ReferenceVisibleMomentum:
    eta_max: float = 5.0

    def missing_pt(self, event: GenEvent) -> FourVector:
        total = FourVector.zero()
        for particle in ReferenceFinalState(
                eta_max=self.eta_max).particles(event):
            if particle.pdg_id in INVISIBLE_PDG_IDS:
                continue
            total = total + particle.momentum
        return FourVector.from_ptetaphim(
            total.pt, 0.0, math.atan2(-total.py, -total.px)
            if total.pt > 0.0 else 0.0, 0.0
        )


@dataclass(frozen=True)
class ReferenceTruthJets:
    cone_radius: float = 0.4
    jet_pt_min: float = 10.0
    eta_max: float = 4.5

    _LEPTON_IDS = frozenset({11, -11, 13, -13})

    def jets(self, event: GenEvent) -> list[FourVector]:
        inputs = []
        for particle in ReferenceFinalState(
                eta_max=self.eta_max).particles(event):
            if particle.pdg_id in INVISIBLE_PDG_IDS:
                continue
            if particle.pdg_id in self._LEPTON_IDS:
                continue
            momentum = particle.momentum
            inputs.append((momentum, momentum.eta, momentum.phi))
        inputs.sort(key=lambda entry: entry[0].pt, reverse=True)
        jets = []
        while inputs:
            _, seed_eta, seed_phi = inputs[0]
            members = [p for p, eta, phi in inputs
                       if math.hypot(eta - seed_eta,
                                     delta_phi(phi, seed_phi))
                       < self.cone_radius]
            total = FourVector.zero()
            for member in members:
                total = total + member
            member_ids = {id(m) for m in members}
            inputs = [entry for entry in inputs
                      if id(entry[0]) not in member_ids]
            if total.pt >= self.jet_pt_min:
                jets.append(total)
        return sorted(jets, key=lambda j: j.pt, reverse=True)
