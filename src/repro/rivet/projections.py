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
from repro.errors import RivetError
from repro.generation.hepmc import GenEvent, GenParticle
from repro.kinematics import FourVector
from repro.kinematics.fourvector import wrap_phi


def _accepted(particles: list[GenParticle], eta_max: float,
              pt_min: float) -> list[tuple[GenParticle, float, float]]:
    """``(particle, pt, eta)`` for each particle inside the acceptance.

    pt is computed once per particle, as ``FourVector.pt`` computes it,
    and eta is derived from it by ``FourVector.eta``'s branches: a
    vanishing pt gives +/-inf for a non-zero pz (never accepted) and 0
    otherwise. Every cut is written so that a NaN fails it. Record order
    is kept.
    """
    accepted = []
    for particle in particles:
        momentum = particle.momentum
        px, py, pz = momentum.px, momentum.py, momentum.pz
        pt = math.sqrt(px * px + py * py)
        if not pt >= pt_min:
            continue
        if pt == 0.0:
            if pz != 0.0:
                continue
            eta = 0.0
        else:
            eta = math.asinh(pz / pt)
            if math.isinf(eta):
                continue
        if not abs(eta) <= eta_max:
            continue
        accepted.append((particle, pt, eta))
    return accepted


@dataclass(frozen=True)
class FinalState:
    """All stable final-state particles inside acceptance cuts."""

    eta_max: float = 5.0
    pt_min: float = 0.0

    def particles(self, event: GenEvent) -> list[GenParticle]:
        """Apply the acceptance cuts to the event's final state."""
        return [particle for particle, _, _ in _accepted(
            event.final_state(), self.eta_max, self.pt_min)]


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
        charged = [p for p in event.final_state()
                   if p.pdg_id in self._CHARGED_IDS]
        return [particle for particle, _, _ in _accepted(
            charged, self.eta_max, self.pt_min)]


@dataclass(frozen=True)
class IdentifiedFinalState:
    """Stable particles of specific PDG ids inside acceptance cuts."""

    pdg_ids: tuple[int, ...]
    eta_max: float = 5.0
    pt_min: float = 0.0

    def particles(self, event: GenEvent) -> list[GenParticle]:
        """Apply the id and acceptance selection."""
        wanted = set(self.pdg_ids)
        identified = [p for p in event.final_state() if p.pdg_id in wanted]
        return [particle for particle, _, _ in _accepted(
            identified, self.eta_max, self.pt_min)]


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

    def __post_init__(self) -> None:
        # A cone that does not hold its own seed never shrinks the
        # input list; NaN fails this test too.
        if not self.cone_radius > 0.0:
            raise RivetError(
                f"cone radius must be positive, got {self.cone_radius}"
            )

    def jets(self, event: GenEvent) -> list[FourVector]:
        """Cluster and return the jet four-momenta, pt-sorted."""
        hadrons = [p for p in event.final_state()
                   if p.pdg_id not in INVISIBLE_PDG_IDS
                   and p.pdg_id not in self._LEPTON_IDS]
        # (pt, momentum, eta, phi) per input: each is computed once, not
        # once per cone seed or sort comparison.
        inputs = [(pt, particle.momentum, eta, particle.momentum.phi)
                  for particle, pt, eta in _accepted(hadrons, self.eta_max,
                                                     0.0)]
        inputs.sort(key=lambda entry: entry[0], reverse=True)
        radius = self.cone_radius
        jets = []
        while inputs:
            _, _, seed_eta, seed_phi = inputs[0]
            e = px = py = pz = 0.0
            member_ids = set()
            for _, momentum, eta, phi in inputs:
                d_eta = eta - seed_eta
                # hypot(d_eta, d_phi) >= |d_eta|, so a wide d_eta is
                # outside the cone before hypot is taken.
                if not abs(d_eta) < radius:
                    continue
                if math.hypot(d_eta, wrap_phi(phi - seed_phi)) < radius:
                    e += momentum.e
                    px += momentum.px
                    py += momentum.py
                    pz += momentum.pz
                    member_ids.add(id(momentum))
            inputs = [entry for entry in inputs
                      if id(entry[1]) not in member_ids]
            total = FourVector(e, px, py, pz)
            if total.pt >= self.jet_pt_min:
                jets.append(total)
        return sorted(jets, key=lambda j: j.pt, reverse=True)
