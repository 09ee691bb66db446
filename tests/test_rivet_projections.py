"""Tests for RIVET-style projections."""

import subprocess
import sys
import textwrap

import pytest

from repro.errors import RivetError
from repro.generation import (
    DrellYanZ,
    GeneratorConfig,
    QCDDijets,
    ToyGenerator,
    WProduction,
)
from repro.rivet import (
    ChargedFinalState,
    FinalState,
    IdentifiedFinalState,
    TruthJets,
    VisibleMomentum,
)


@pytest.fixture(scope="module")
def z_events():
    return ToyGenerator(GeneratorConfig(
        processes=[DrellYanZ()], seed=700)).generate(40)


@pytest.fixture(scope="module")
def dijet_events():
    return ToyGenerator(GeneratorConfig(
        processes=[QCDDijets()], seed=701)).generate(40)


class TestFinalState:
    def test_only_final_particles(self, z_events):
        projection = FinalState()
        for event in z_events:
            for particle in projection.particles(event):
                assert particle.is_final

    def test_pt_cut(self, z_events):
        projection = FinalState(pt_min=5.0)
        for event in z_events:
            assert all(p.momentum.pt >= 5.0
                       for p in projection.particles(event))

    def test_eta_cut(self, z_events):
        projection = FinalState(eta_max=1.0)
        for event in z_events:
            assert all(abs(p.momentum.eta) <= 1.0
                       for p in projection.particles(event))

    def test_tighter_cuts_select_fewer(self, z_events):
        loose = FinalState()
        tight = FinalState(eta_max=1.0, pt_min=2.0)
        n_loose = sum(len(loose.particles(e)) for e in z_events)
        n_tight = sum(len(tight.particles(e)) for e in z_events)
        assert n_tight < n_loose


class TestChargedFinalState:
    def test_only_charged(self, z_events):
        projection = ChargedFinalState()
        for event in z_events:
            for particle in projection.particles(event):
                assert particle.pdg_id not in (22, 111, 130, 12, 14, 16)


class TestIdentifiedFinalState:
    def test_id_selection(self, z_events):
        muons = IdentifiedFinalState((13, -13))
        for event in z_events:
            selected = muons.particles(event)
            assert all(abs(p.pdg_id) == 13 for p in selected)
            assert len(selected) >= 2


class TestVisibleMomentum:
    def test_w_events_have_met(self):
        events = ToyGenerator(GeneratorConfig(
            processes=[WProduction()], seed=702)).generate(40)
        projection = VisibleMomentum()
        mets = [projection.missing_pt(event).pt for event in events]
        assert sum(1 for met in mets if met > 15.0) > 20

    def test_z_events_have_little_met(self, z_events):
        projection = VisibleMomentum()
        mets = [projection.missing_pt(event).pt for event in z_events]
        assert sorted(mets)[len(mets) // 2] < 10.0


class TestTruthJets:
    @pytest.mark.parametrize("radius", [0.0, -0.4, float("nan")])
    def test_a_cone_without_its_seed_is_refused(self, radius):
        # Such a cone never holds its own seed, so jets() would loop
        # forever; the radius is refused when the projection is built.
        with pytest.raises(RivetError, match="cone radius"):
            TruthJets(cone_radius=radius)

    @pytest.mark.parametrize("momentum", [
        "5.0, 1.0, 2.0, nan", "5.0, nan, 2.0, 1.0", "5.0, 0.0, 0.0, nan",
    ])
    def test_a_nan_momentum_is_not_accepted(self, momentum):
        # A NaN particle is never its own cone member, so jets() would
        # loop forever; a child process with a timeout makes a hang
        # fail the test instead of stalling the suite.
        script = textwrap.dedent(f"""
            from repro.generation.hepmc import GenEvent, ParticleStatus
            from repro.kinematics import FourVector
            from repro.rivet import FinalState, TruthJets
            nan = float("nan")
            event = GenEvent(event_number=0, process_id=0,
                             process_name="nan", sqrt_s=8000.0)
            event.add_particle(211, FourVector({momentum}),
                               ParticleStatus.FINAL)
            print(len(TruthJets().jets(event)))
            assert FinalState().particles(event) == []
        """)
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True,
                                timeout=30)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "0"

    def test_dijet_events_make_jets(self, dijet_events):
        projection = TruthJets(jet_pt_min=15.0)
        jet_counts = [len(projection.jets(event))
                      for event in dijet_events]
        assert sum(1 for n in jet_counts if n >= 2) > 15

    def test_jets_sorted(self, dijet_events):
        projection = TruthJets()
        for event in dijet_events:
            pts = [jet.pt for jet in projection.jets(event)]
            assert pts == sorted(pts, reverse=True)

    def test_leptons_excluded(self, z_events):
        projection = TruthJets(jet_pt_min=15.0)
        for event in z_events:
            for jet in projection.jets(event):
                muons = [p.momentum for p in event.final_state()
                         if abs(p.pdg_id) == 13]
                for muon in muons:
                    if muon.pt > 20.0:
                        assert jet.delta_r(muon) > 0.1
