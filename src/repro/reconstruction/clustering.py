"""Calorimeter clustering: local-maximum seeding plus neighbourhood sums."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.detector.digitization import CaloCellHit
from repro.detector.geometry import DetectorGeometry, SubDetector
from repro.errors import ReconstructionError
from repro.kinematics import FourVector


@dataclass(frozen=True)
class CaloCluster:
    """A reconstructed calorimeter cluster."""

    subdetector: str
    energy: float
    eta: float
    phi: float
    n_cells: int

    def p4(self) -> FourVector:
        """Massless four-momentum pointing at the cluster centroid."""
        pt = self.energy / math.cosh(self.eta)
        return FourVector.from_ptetaphim(pt, self.eta, self.phi, 0.0)

    def to_dict(self) -> dict:
        """Serialise for the RECO/AOD file formats."""
        return {
            "sub": self.subdetector, "e": self.energy, "eta": self.eta,
            "phi": self.phi, "ncells": self.n_cells,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "CaloCluster":
        """Inverse of :meth:`to_dict`."""
        return cls(
            subdetector=str(record["sub"]), energy=float(record["e"]),
            eta=float(record["eta"]), phi=float(record["phi"]),
            n_cells=int(record["ncells"]),
        )


@dataclass(frozen=True)
class ClustererConfig:
    """Seeding and summation thresholds."""

    seed_threshold: float = 0.5
    cell_threshold: float = 0.1
    cluster_min_energy: float = 1.0


class CaloClusterer:
    """Local-maximum clustering over a calorimeter's cell grid."""

    def __init__(self, geometry: DetectorGeometry,
                 config: ClustererConfig | None = None) -> None:
        self.geometry = geometry
        self.config = config if config is not None else ClustererConfig()
        self._cells = {name: _CellTable(sub)
                       for name, sub in geometry.subdetectors.items()
                       if sub.eta_cells != 0 and sub.phi_cells != 0}

    def cluster(self, calo_hits: list[CaloCellHit],
                subdetector_name: str, energy_scale: float = 1.0) -> list[CaloCluster]:
        """Cluster the cells of one calorimeter.

        ``energy_scale`` is the calibration correction from the conditions
        database: measured cell energies are *divided* by the recorded
        scale, undoing the detector's miscalibration.
        """
        if energy_scale <= 0.0:
            raise ReconstructionError(
                f"energy scale must be positive, got {energy_scale}"
            )
        sub = self.geometry.subdetectors[subdetector_name]
        cells = self._cells.get(subdetector_name)
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
        # Visit cells in descending energy so the highest seed claims its
        # neighbourhood first (standard topological-clustering tiebreak).
        for (ieta, iphi) in sorted(grid, key=grid.get, reverse=True):
            if (ieta, iphi) in claimed:
                continue
            energy = grid[(ieta, iphi)]
            if energy < self.config.seed_threshold:
                break
            if not self._is_local_maximum(grid, sub.phi_cells, ieta, iphi):
                continue
            # Every seed that gets here sums at least itself, so this is
            # where a per-cell centre lookup would first fail.
            if cells is None:
                raise ReconstructionError(
                    f"{subdetector_name} has no cell granularity"
                )
            total = 0.0
            weighted_eta = 0.0
            weighted_phi_x = 0.0
            weighted_phi_y = 0.0
            n_cells = 0
            for d_eta in (-1, 0, 1):
                cell_ieta = ieta + d_eta
                cell_eta = cells.eta_low + (cell_ieta + 0.5) * cells.eta_step
                for d_phi in (-1, 0, 1):
                    cell_iphi = (iphi + d_phi) % sub.phi_cells
                    neighbour = (cell_ieta, cell_iphi)
                    if neighbour in claimed:
                        continue
                    cell_energy = grid.get(neighbour)
                    if cell_energy is None:
                        continue
                    total += cell_energy
                    weighted_eta += cell_energy * cell_eta
                    # Average phi on the circle to dodge the wrap.
                    weighted_phi_x += cell_energy * cells.cos_phi[cell_iphi]
                    weighted_phi_y += cell_energy * cells.sin_phi[cell_iphi]
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

    @staticmethod
    def _is_local_maximum(grid: dict[tuple[int, int], float],
                          phi_cells: int, ieta: int, iphi: int) -> bool:
        energy = grid[(ieta, iphi)]
        for d_eta in (-1, 0, 1):
            for d_phi in (-1, 0, 1):
                if d_eta == 0 and d_phi == 0:
                    continue
                neighbour = (ieta + d_eta, (iphi + d_phi) % phi_cells)
                if grid.get(neighbour, 0.0) > energy:
                    return False
        return True


class _CellTable:
    """Cell-centre geometry of one calorimeter, computed once.

    A cell's centre is ``eta = -eta_max + (ieta + 0.5) * eta_step`` and
    ``phi = -pi + (iphi + 0.5) * (2 pi / phi_cells)``; the table keeps
    the eta step and the cosine and sine of every phi centre, which are
    the same doubles a per-cell computation gives.
    """

    __slots__ = ("eta_low", "eta_step", "cos_phi", "sin_phi")

    def __init__(self, sub: SubDetector) -> None:
        self.eta_low = -sub.eta_max
        self.eta_step = 2.0 * sub.eta_max / sub.eta_cells
        phi_step = 2.0 * math.pi / sub.phi_cells
        centres = [-math.pi + (iphi + 0.5) * phi_step
                   for iphi in range(sub.phi_cells)]
        self.cos_phi = [math.cos(phi) for phi in centres]
        self.sin_phi = [math.sin(phi) for phi in centres]
