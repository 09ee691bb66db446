"""Iterative-cone jet clustering over calorimeter clusters."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.kinematics import FourVector
from repro.kinematics.fourvector import delta_phi
from repro.reconstruction.clustering import CaloCluster
from repro.reconstruction.objects import Jet


@dataclass(frozen=True)
class ConeJetConfig:
    """Cone-algorithm parameters."""

    cone_radius: float = 0.4
    seed_et: float = 3.0
    jet_min_pt: float = 10.0
    max_iterations: int = 10


class ConeJetFinder:
    """A seeded iterative-cone algorithm.

    Not infrared-safe (neither were the historical cone algorithms), but
    simple, fast, and faithful to the kind of jet-finding the outreach
    formats expose. Electron/photon clusters should be removed by the
    caller before jet finding.
    """

    def __init__(self, config: ConeJetConfig | None = None) -> None:
        self.config = config if config is not None else ConeJetConfig()

    def find(self, clusters: list[CaloCluster]) -> list[Jet]:
        """Cluster calorimeter clusters into jets."""
        # (cluster, four-momentum) per input: each four-momentum is
        # built once, not once per sort comparison and cone iteration.
        remaining = sorted(((c, c.p4()) for c in clusters),
                           key=lambda entry: entry[1].pt, reverse=True)
        jets = []
        while remaining:
            seed, seed_p4 = remaining[0]
            if seed_p4.pt < self.config.seed_et:
                break
            axis_eta = seed.eta
            axis_phi = seed.phi
            members: list[tuple[CaloCluster, FourVector]] = []
            # Iterate the cone axis to stability.
            for _ in range(self.config.max_iterations):
                members = [
                    entry for entry in remaining
                    if math.hypot(entry[0].eta - axis_eta,
                                  delta_phi(entry[0].phi, axis_phi))
                    < self.config.cone_radius
                ]
                if not members:
                    break
                total = FourVector.zero()
                for _, p4 in members:
                    total = total + p4
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
            for member, p4 in members:
                total = total + p4
                if member.subdetector == "ecal":
                    em_energy += member.energy
            member_ids = {id(m) for m, _ in members}
            remaining = [entry for entry in remaining
                         if id(entry[0]) not in member_ids]
            if total.pt < self.config.jet_min_pt:
                continue
            em_fraction = em_energy / total.e if total.e > 0.0 else 0.0
            jets.append(Jet(
                p4=total,
                n_constituents=len(members),
                em_fraction=em_fraction,
            ))
        return sorted(jets, key=lambda j: j.p4.pt, reverse=True)
