"""Projections: reusable truth-event selectors and builders.

The "series of standard tools ... exploited to replicate analysis cuts and
procedures within the RIVET framework". A projection takes a
:class:`~repro.generation.GenEvent` and returns derived objects; analyses
compose projections rather than touching the raw particle list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.detector.simulation import INVISIBLE_PDG_IDS
from repro.generation.hepmc import GenEvent, GenParticle
from repro.kinematics import FourVector
from repro.kinematics.fourvector import delta_phi


@dataclass(frozen=True)
class FinalState:
    """All stable final-state particles inside acceptance cuts."""

    eta_max: float = 5.0
    pt_min: float = 0.0

    def particles(self, event: GenEvent) -> list[GenParticle]:
        """Apply the acceptance cuts to the event's final state."""
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
class ChargedFinalState:
    """Stable charged particles inside acceptance cuts.

    Charge is inferred from the PDG id using the same convention as the
    particle table (leptons and the light charged hadrons).
    """

    eta_max: float = 2.5
    pt_min: float = 0.1

    _CHARGED_IDS = frozenset({
        11, -11, 13, -13, 15, -15, 211, -211, 321, -321, 2212, -2212,
        411, -411, 24, -24,
    })

    def particles(self, event: GenEvent) -> list[GenParticle]:
        """Apply the charge and acceptance selection."""
        base = FinalState(eta_max=self.eta_max, pt_min=self.pt_min)
        return [p for p in base.particles(event)
                if p.pdg_id in self._CHARGED_IDS]


@dataclass(frozen=True)
class IdentifiedFinalState:
    """Stable particles of specific PDG ids inside acceptance cuts."""

    pdg_ids: tuple[int, ...]
    eta_max: float = 5.0
    pt_min: float = 0.0

    def particles(self, event: GenEvent) -> list[GenParticle]:
        """Apply the id and acceptance selection."""
        wanted = set(self.pdg_ids)
        base = FinalState(eta_max=self.eta_max, pt_min=self.pt_min)
        return [p for p in base.particles(event) if p.pdg_id in wanted]


@dataclass(frozen=True)
class VisibleMomentum:
    """Vector-summed visible momentum (for truth MET)."""

    eta_max: float = 5.0

    def missing_pt(self, event: GenEvent) -> FourVector:
        """The transverse momentum imbalance of the visible system."""
        total = FourVector.zero()
        for particle in FinalState(eta_max=self.eta_max).particles(event):
            if particle.pdg_id in INVISIBLE_PDG_IDS:
                continue
            total = total + particle.momentum
        return FourVector.from_ptetaphim(
            total.pt, 0.0, math.atan2(-total.py, -total.px)
            if total.pt > 0.0 else 0.0, 0.0
        )


@dataclass(frozen=True)
class TruthJets:
    """Cone-clustered truth jets from visible final-state hadrons.

    Electrons, muons, and invisibles are excluded so the jets match the
    hadronic activity definition of the detector-level cone jets.
    """

    cone_radius: float = 0.4
    jet_pt_min: float = 10.0
    eta_max: float = 4.5

    _LEPTON_IDS = frozenset({11, -11, 13, -13})

    def jets(self, event: GenEvent) -> list[FourVector]:
        """Cluster and return the jet four-momenta, pt-sorted."""
        # (momentum, eta, phi) per input: eta and phi are computed once,
        # not once per cone seed.
        inputs = []
        for particle in FinalState(eta_max=self.eta_max).particles(event):
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
