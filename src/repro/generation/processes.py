"""Physics processes for the toy generator.

Each :class:`Process` knows how to populate a :class:`GenEvent` with a hard
interaction plus its decay chain. Cross sections are order-of-magnitude toy
values in picobarns — they only need to give the right *relative* rates so
that mixed-process runs, trigger menus, and skim fractions behave sensibly.

A :class:`Tune` bundles the soft-QCD parameters (multiplicities, spectrum
slopes) that differ between "generator tunes"; the RIVET-style comparison
example exercises two tunes against archived reference data exactly the way
the paper describes generator validation.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import GenerationError
from repro.generation.decays import (
    breit_wigner_mass,
    sample_decay_vertex,
    two_body_decay,
    uniform,
)
from repro.generation.hepmc import GenEvent, ParticleStatus
from repro.kinematics import FourVector, ParticleTable

PDG_ELECTRON = 11
PDG_MUON = 13
PDG_NU_E = 12
PDG_NU_MU = 14
PDG_Z = 23
PDG_W = 24
PDG_HIGGS = 25
PDG_PHOTON = 22
PDG_PION = 211
PDG_PI0 = 111
PDG_KAON = 321
PDG_D0 = 421
PDG_JPSI = 443
PDG_GLUON = 21
PDG_ZPRIME = 32
PDG_NEUTRALINO = 1000022


@dataclass(frozen=True)
class Tune:
    """Soft-QCD tune parameters.

    ``ue_mean_multiplicity`` controls the number of underlying-event hadrons
    per event; ``ue_pt_slope_gev`` the exponential slope of their transverse
    momentum spectrum; ``frag_mean_hadrons`` the mean hadron count a 50 GeV
    jet fragments into; ``frag_pt_width_gev`` the intra-jet transverse
    spread.
    """

    name: str = "TUNE-A"
    ue_mean_multiplicity: float = 12.0
    ue_pt_slope_gev: float = 0.55
    frag_mean_hadrons: float = 14.0
    frag_pt_width_gev: float = 0.65

    @classmethod
    def tune_a(cls) -> "Tune":
        """The default tune."""
        return cls()

    @classmethod
    def tune_b(cls) -> "Tune":
        """A harder-spectrum, higher-multiplicity alternative tune."""
        return cls(
            name="TUNE-B",
            ue_mean_multiplicity=17.0,
            ue_pt_slope_gev=0.72,
            frag_mean_hadrons=17.0,
            frag_pt_width_gev=0.80,
        )


class Process(abc.ABC):
    """A physics process the generator can sample.

    Subclasses fill the hard interaction into an event; the generator adds
    the underlying event on top.
    """

    #: Human-readable process name, also used as the process tag in data.
    name: str = "process"
    #: Integer process id recorded in every event.
    process_id: int = 0
    #: Toy production cross section in picobarns.
    cross_section_pb: float = 1.0

    @abc.abstractmethod
    def fill(
        self,
        event: GenEvent,
        rng: np.random.Generator,
        table: ParticleTable,
        tune: Tune,
    ) -> None:
        """Append the hard process and its decay products to ``event``."""

    def describe(self) -> dict:
        """Machine-readable process description for provenance records."""
        return {
            "name": self.name,
            "process_id": self.process_id,
            "cross_section_pb": self.cross_section_pb,
        }


def _sample_resonance_momentum(
    mass: float,
    rng: np.random.Generator,
    mean_pt: float = 12.0,
    rapidity_sigma: float = 1.4,
) -> FourVector:
    """Sample the lab momentum of a centrally produced heavy resonance."""
    pt = rng.exponential(mean_pt)
    y = rng.normal(0.0, rapidity_sigma)
    phi = uniform(rng, -math.pi, math.pi)
    mt = math.sqrt(mass * mass + pt * pt)
    energy = mt * math.cosh(y)
    pz = mt * math.sinh(y)
    return FourVector(energy, pt * math.cos(phi), pt * math.sin(phi), pz)


def _fragment_jet(
    event: GenEvent,
    parton_index: int,
    rng: np.random.Generator,
    table: ParticleTable,
    tune: Tune,
) -> None:
    """Fragment a parton into a spray of hadrons appended to ``event``.

    Longitudinal momentum fractions follow a Dirichlet split (a crude Lund
    string stand-in); each hadron gets a transverse kick relative to the
    parton axis. The hadron system's summed momentum approximates the parton
    momentum to within the kicks.
    """
    parton = event.particles[parton_index]
    jet = parton.momentum
    energy = max(jet.e, 1.0)
    mean_hadrons = tune.frag_mean_hadrons * (energy / 50.0) ** 0.5
    n_hadrons = max(2, int(rng.poisson(mean_hadrons)))
    fractions = rng.dirichlet(np.full(n_hadrons, 1.2))

    axis_p = jet.p
    if axis_p == 0.0:
        raise GenerationError("cannot fragment a parton at rest")
    axis = np.array([jet.px, jet.py, jet.pz]) / axis_p

    # Build two unit vectors transverse to the jet axis.
    seed = np.array([0.0, 0.0, 1.0])
    if abs(axis[2]) > 0.9:
        seed = np.array([1.0, 0.0, 0.0])
    t1 = np.cross(axis, seed)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(axis, t1)

    for fraction in fractions:
        # 60% pi+-, 15% pi0, 15% K+-, 10% K0_L by species.
        roll = rng.random()
        if roll < 0.60:
            pdg = PDG_PION if rng.random() < 0.5 else -PDG_PION
        elif roll < 0.75:
            pdg = PDG_PI0
        elif roll < 0.90:
            pdg = PDG_KAON if rng.random() < 0.5 else -PDG_KAON
        else:
            pdg = 130
        mass = table.by_id(pdg).mass
        p_long = fraction * axis_p
        kick1 = rng.normal(0.0, tune.frag_pt_width_gev)
        kick2 = rng.normal(0.0, tune.frag_pt_width_gev)
        p3 = p_long * axis + kick1 * t1 + kick2 * t2
        momentum = FourVector.from_p3m(p3[0], p3[1], p3[2], mass)
        event.add_particle(pdg, momentum, ParticleStatus.FINAL,
                           parents=[parton_index])


class DrellYanZ(Process):
    """``q qbar -> Z/gamma* -> l+ l-`` with a Breit-Wigner mass peak.

    The flagship outreach process: ATLAS and CMS master classes (Table 1)
    are built around exactly this dilepton signature.
    """

    def __init__(self, flavour: str = "mu",
                 cross_section_pb: float = 1100.0) -> None:
        if flavour not in ("e", "mu"):
            raise GenerationError(f"unsupported Z decay flavour {flavour!r}")
        self.flavour = flavour
        self.name = f"z_to_{flavour}{flavour}"
        self.process_id = 230 if flavour == "mu" else 231
        self.cross_section_pb = cross_section_pb

    def fill(self, event, rng, table, tune):
        z_species = table.by_id(PDG_Z)
        mass = breit_wigner_mass(z_species.mass, z_species.width, rng,
                                 minimum=40.0)
        z_momentum = _sample_resonance_momentum(mass, rng)
        z = event.add_particle(PDG_Z, z_momentum, ParticleStatus.DECAYED)
        lepton_id = PDG_MUON if self.flavour == "mu" else PDG_ELECTRON
        lepton_mass = table.by_id(lepton_id).mass
        minus, plus = two_body_decay(z_momentum, lepton_mass, lepton_mass, rng)
        event.add_particle(lepton_id, minus, ParticleStatus.FINAL,
                           parents=[z.index])
        event.add_particle(-lepton_id, plus, ParticleStatus.FINAL,
                           parents=[z.index])


class WProduction(Process):
    """``q qbar' -> W -> l nu``; the neutrino gives missing momentum."""

    def __init__(self, flavour: str = "mu", charge: int = 1,
                 cross_section_pb: float = 11000.0) -> None:
        if flavour not in ("e", "mu"):
            raise GenerationError(f"unsupported W decay flavour {flavour!r}")
        if charge not in (1, -1):
            raise GenerationError(f"W charge must be +-1, got {charge}")
        self.flavour = flavour
        self.charge = charge
        sign = "plus" if charge == 1 else "minus"
        self.name = f"w{sign}_to_{flavour}nu"
        self.process_id = 240 + (0 if charge == 1 else 1)
        self.cross_section_pb = cross_section_pb

    def fill(self, event, rng, table, tune):
        w_species = table.by_id(PDG_W)
        mass = breit_wigner_mass(w_species.mass, w_species.width, rng,
                                 minimum=20.0)
        w_momentum = _sample_resonance_momentum(mass, rng)
        w_pdg = PDG_W * self.charge
        w = event.add_particle(w_pdg, w_momentum, ParticleStatus.DECAYED)
        lepton_base = PDG_MUON if self.flavour == "mu" else PDG_ELECTRON
        nu_base = PDG_NU_MU if self.flavour == "mu" else PDG_NU_E
        # W+ -> l+ nu ; W- -> l- nubar.
        lepton_id = -lepton_base if self.charge == 1 else lepton_base
        nu_id = nu_base if self.charge == 1 else -nu_base
        lepton_mass = table.by_id(lepton_base).mass
        lepton_p, nu_p = two_body_decay(w_momentum, lepton_mass, 0.0, rng)
        event.add_particle(lepton_id, lepton_p, ParticleStatus.FINAL,
                           parents=[w.index])
        event.add_particle(nu_id, nu_p, ParticleStatus.FINAL,
                           parents=[w.index])


class HiggsToFourLeptons(Process):
    """``H -> Z Z* -> 4 leptons`` — the "golden channel" master class."""

    name = "higgs_to_4l"
    process_id = 250

    def __init__(self, cross_section_pb: float = 1.3) -> None:
        self.cross_section_pb = cross_section_pb

    def fill(self, event, rng, table, tune):
        higgs_species = table.by_id(PDG_HIGGS)
        higgs_momentum = _sample_resonance_momentum(higgs_species.mass, rng,
                                                    mean_pt=18.0)
        higgs = event.add_particle(PDG_HIGGS, higgs_momentum,
                                   ParticleStatus.DECAYED)
        # One on-shell Z and one off-shell Z*, constrained to the Higgs mass.
        z_species = table.by_id(PDG_Z)
        for _ in range(200):
            m_onshell = breit_wigner_mass(z_species.mass, z_species.width,
                                          rng, minimum=40.0)
            m_offshell = uniform(rng, 12.0, 45.0)
            if m_onshell + m_offshell < higgs_species.mass:
                break
        else:
            raise GenerationError("could not partition H -> ZZ* masses")
        z1_p, z2_p = _decay_to_masses(higgs_momentum, m_onshell, m_offshell,
                                      rng)
        z1 = event.add_particle(PDG_Z, z1_p, ParticleStatus.DECAYED,
                                parents=[higgs.index])
        z2 = event.add_particle(PDG_Z, z2_p, ParticleStatus.DECAYED,
                                parents=[higgs.index])
        for z in (z1, z2):
            flavour = PDG_MUON if rng.random() < 0.5 else PDG_ELECTRON
            lepton_mass = table.by_id(flavour).mass
            minus, plus = two_body_decay(z.momentum, lepton_mass, lepton_mass,
                                         rng)
            event.add_particle(flavour, minus, ParticleStatus.FINAL,
                               parents=[z.index])
            event.add_particle(-flavour, plus, ParticleStatus.FINAL,
                               parents=[z.index])


def _decay_to_masses(parent: FourVector, mass1: float, mass2: float,
                     rng: np.random.Generator) -> tuple[FourVector, FourVector]:
    """Two-body decay into daughters of fixed (off-shell) masses."""
    return two_body_decay(parent, mass1, mass2, rng)


class QCDDijets(Process):
    """Back-to-back dijet production with a falling pt spectrum."""

    name = "qcd_dijets"
    process_id = 100

    def __init__(self, pt_min: float = 20.0, pt_max: float = 500.0,
                 spectral_index: float = 4.5,
                 cross_section_pb: float = 6.0e7) -> None:
        if pt_min <= 0.0 or pt_max <= pt_min:
            raise GenerationError(
                f"invalid dijet pt range [{pt_min}, {pt_max}]"
            )
        self.pt_min = pt_min
        self.pt_max = pt_max
        self.spectral_index = spectral_index
        self.cross_section_pb = cross_section_pb

    def _sample_pt(self, rng: np.random.Generator) -> float:
        """Inverse-CDF sample of a power-law ``pt^-n`` spectrum."""
        n = self.spectral_index
        u = rng.random()
        a = self.pt_min ** (1.0 - n)
        b = self.pt_max ** (1.0 - n)
        return (a + u * (b - a)) ** (1.0 / (1.0 - n))

    def fill(self, event, rng, table, tune):
        pt = self._sample_pt(rng)
        eta1 = rng.normal(0.0, 1.5)
        eta2 = rng.normal(0.0, 1.5)
        phi = uniform(rng, -math.pi, math.pi)
        opposite = phi + math.pi + rng.normal(0.0, 0.12)
        parton1 = FourVector.from_ptetaphim(pt, eta1, phi, 0.0)
        kt_balance = pt * (1.0 + rng.normal(0.0, 0.08))
        parton2 = FourVector.from_ptetaphim(max(1.0, kt_balance), eta2,
                                            opposite, 0.0)
        for parton in (parton1, parton2):
            line = event.add_particle(PDG_GLUON, parton,
                                      ParticleStatus.DECAYED)
            _fragment_jet(event, line.index, rng, table, tune)


class DzeroProduction(Process):
    """Prompt ``D0 -> K- pi+`` with an exponentially distributed flight
    length — the substrate for the LHCb D-lifetime master class in Table 1.
    """

    name = "d0_to_kpi"
    process_id = 400

    def __init__(self, cross_section_pb: float = 2.0e6) -> None:
        self.cross_section_pb = cross_section_pb

    def fill(self, event, rng, table, tune):
        d0_species = table.by_id(PDG_D0)
        pt = 2.0 + rng.exponential(3.0)
        eta = uniform(rng, 2.0, 4.5)  # forward, LHCb-like
        phi = uniform(rng, -math.pi, math.pi)
        d0_momentum = FourVector.from_ptetaphim(pt, eta, phi, d0_species.mass)
        vertex, proper_time = sample_decay_vertex(
            d0_momentum, d0_species.lifetime_ns, rng
        )
        d0 = event.add_particle(PDG_D0, d0_momentum, ParticleStatus.DECAYED)
        d0.decay_vertex = vertex
        kaon_mass = table.by_id(PDG_KAON).mass
        pion_mass = table.by_id(PDG_PION).mass
        kaon_p, pion_p = two_body_decay(d0_momentum, kaon_mass, pion_mass, rng)
        event.add_particle(-PDG_KAON, kaon_p, ParticleStatus.FINAL,
                           parents=[d0.index], production_vertex=vertex)
        event.add_particle(PDG_PION, pion_p, ParticleStatus.FINAL,
                           parents=[d0.index], production_vertex=vertex)


class KshortProduction(Process):
    """Prompt ``K0_S -> pi+ pi-`` with centimetre-scale flight lengths.

    The archetypal "V0": a neutral strange hadron decaying to two
    charged tracks at a displaced vertex — the substrate for the
    ALICE-style V0 master class in Table 1.
    """

    name = "kshort_to_pipi"
    process_id = 310

    def __init__(self, cross_section_pb: float = 1.0e7) -> None:
        self.cross_section_pb = cross_section_pb

    def fill(self, event, rng, table, tune):
        kshort_species = table.by_id(310)
        pt = 0.5 + rng.exponential(1.5)
        eta = uniform(rng, -1.5, 1.5)
        phi = uniform(rng, -math.pi, math.pi)
        momentum = FourVector.from_ptetaphim(pt, eta, phi,
                                             kshort_species.mass)
        vertex, _ = sample_decay_vertex(momentum,
                                        kshort_species.lifetime_ns, rng)
        kshort = event.add_particle(310, momentum,
                                    ParticleStatus.DECAYED)
        kshort.decay_vertex = vertex
        pion_mass = table.by_id(PDG_PION).mass
        plus, minus = two_body_decay(momentum, pion_mass, pion_mass,
                                     rng)
        event.add_particle(PDG_PION, plus, ParticleStatus.FINAL,
                           parents=[kshort.index],
                           production_vertex=vertex)
        event.add_particle(-PDG_PION, minus, ParticleStatus.FINAL,
                           parents=[kshort.index],
                           production_vertex=vertex)


class JpsiToMuMu(Process):
    """Prompt ``J/psi -> mu+ mu-`` for low-mass dimuon spectra."""

    name = "jpsi_to_mumu"
    process_id = 443

    def __init__(self, cross_section_pb: float = 8.0e4) -> None:
        self.cross_section_pb = cross_section_pb

    def fill(self, event, rng, table, tune):
        jpsi_species = table.by_id(PDG_JPSI)
        pt = 3.0 + rng.exponential(4.0)
        y = rng.normal(0.0, 1.8)
        phi = uniform(rng, -math.pi, math.pi)
        mt = math.sqrt(jpsi_species.mass**2 + pt * pt)
        momentum = FourVector(mt * math.cosh(y), pt * math.cos(phi),
                              pt * math.sin(phi), mt * math.sinh(y))
        jpsi = event.add_particle(PDG_JPSI, momentum, ParticleStatus.DECAYED)
        mu_mass = table.by_id(PDG_MUON).mass
        minus, plus = two_body_decay(momentum, mu_mass, mu_mass, rng)
        event.add_particle(PDG_MUON, minus, ParticleStatus.FINAL,
                           parents=[jpsi.index])
        event.add_particle(-PDG_MUON, plus, ParticleStatus.FINAL,
                           parents=[jpsi.index])


class MinimumBias(Process):
    """Soft inelastic collisions: a spray of low-pt hadrons."""

    name = "minimum_bias"
    process_id = 1

    def __init__(self, cross_section_pb: float = 7.0e10) -> None:
        self.cross_section_pb = cross_section_pb

    def fill(self, event, rng, table, tune):
        n_hadrons = max(1, int(rng.poisson(tune.ue_mean_multiplicity)))
        for _ in range(n_hadrons):
            roll = rng.random()
            if roll < 0.7:
                pdg = PDG_PION if rng.random() < 0.5 else -PDG_PION
            elif roll < 0.85:
                pdg = PDG_PI0
            else:
                pdg = PDG_KAON if rng.random() < 0.5 else -PDG_KAON
            mass = table.by_id(pdg).mass
            pt = rng.exponential(tune.ue_pt_slope_gev)
            eta = uniform(rng, -4.0, 4.0)
            phi = uniform(rng, -math.pi, math.pi)
            momentum = FourVector.from_ptetaphim(pt, eta, phi, mass)
            event.add_particle(pdg, momentum, ParticleStatus.FINAL)


class ZPrimeResonance(Process):
    """A heavy dilepton resonance — the "new model" a theorist submits to
    the RECAST-analogue framework for re-interpretation.
    """

    def __init__(self, mass: float = 1500.0, width: float | None = None,
                 flavour: str = "mu", cross_section_pb: float = 0.05) -> None:
        if mass <= 200.0:
            raise GenerationError(
                f"Z' mass must exceed 200 GeV for a clean search, got {mass}"
            )
        self.mass = mass
        self.width = width if width is not None else 0.03 * mass
        self.flavour = flavour
        self.name = f"zprime_{int(mass)}_to_{flavour}{flavour}"
        self.process_id = 3200
        self.cross_section_pb = cross_section_pb

    def fill(self, event, rng, table, tune):
        mass = breit_wigner_mass(self.mass, self.width, rng,
                                 minimum=0.3 * self.mass)
        momentum = _sample_resonance_momentum(mass, rng, mean_pt=20.0)
        zp = event.add_particle(PDG_ZPRIME, momentum, ParticleStatus.DECAYED)
        lepton_id = PDG_MUON if self.flavour == "mu" else PDG_ELECTRON
        lepton_mass = table.by_id(lepton_id).mass
        minus, plus = two_body_decay(momentum, lepton_mass, lepton_mass, rng)
        event.add_particle(lepton_id, minus, ParticleStatus.FINAL,
                           parents=[zp.index])
        event.add_particle(-lepton_id, plus, ParticleStatus.FINAL,
                           parents=[zp.index])
