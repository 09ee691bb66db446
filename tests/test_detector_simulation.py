"""Tests for the fast detector simulation."""

import pytest

from repro.detector import DetectorSimulation, generic_lhc_detector
from repro.detector.simulation import SimulationConfig
from repro.generation import (
    DrellYanZ,
    GeneratorConfig,
    ToyGenerator,
    WProduction,
)


@pytest.fixture(scope="module")
def simulation():
    return DetectorSimulation(generic_lhc_detector(), seed=55)


def _z_events(n, seed=60):
    return ToyGenerator(GeneratorConfig(
        processes=[DrellYanZ()], seed=seed)).generate(n)


class TestTraversals:
    def test_muons_make_traversals(self, simulation):
        events = _z_events(40)
        found = 0
        for event in events:
            sim_event = simulation.simulate(event)
            muon_traversals = [t for t in sim_event.traversals
                               if abs(t.pdg_id) == 13]
            found += len(muon_traversals)
        # Two muons per event, high efficiency, |eta|<2.5 acceptance.
        assert found > 40

    def test_neutrinos_leave_nothing(self, simulation):
        events = ToyGenerator(GeneratorConfig(
            processes=[WProduction()], seed=61,
            underlying_event=False)).generate(30)
        for event in events:
            sim_event = simulation.simulate(event)
            assert not [t for t in sim_event.traversals
                        if abs(t.pdg_id) in (12, 14, 16)]
            assert not [d for d in sim_event.deposits
                        if abs(event.particles[d.truth_index].pdg_id)
                        in (12, 14, 16)]

    def test_acceptance_cut(self, simulation):
        events = _z_events(40, seed=62)
        tracker_eta = generic_lhc_detector().tracker.eta_max
        for event in events:
            sim_event = simulation.simulate(event)
            for traversal in sim_event.traversals:
                assert abs(traversal.momentum.eta) <= tracker_eta

    def test_eta_min_forward_mode(self):
        simulation = DetectorSimulation(
            generic_lhc_detector(),
            config=SimulationConfig(eta_min=2.0), seed=63,
        )
        events = _z_events(40, seed=64)
        for event in events:
            sim_event = simulation.simulate(event)
            for traversal in sim_event.traversals:
                assert abs(traversal.momentum.eta) >= 2.0

    def test_muon_system_flag(self, simulation):
        events = _z_events(30, seed=65)
        reaching = 0
        for event in events:
            sim_event = simulation.simulate(event)
            for traversal in sim_event.traversals:
                if traversal.reaches_muon_system:
                    assert abs(traversal.pdg_id) == 13
                    assert traversal.momentum.pt > 3.0
                    reaching += 1
        assert reaching > 20


class TestDeposits:
    def test_muons_deposit_little(self, simulation):
        events = _z_events(30, seed=66)
        for event in events:
            sim_event = simulation.simulate(event)
            for deposit in sim_event.deposits:
                truth = event.particles[deposit.truth_index]
                if abs(truth.pdg_id) == 13:
                    assert deposit.measured_energy < 15.0

    def test_hadrons_deposit_in_both_calorimeters(self, simulation):
        events = _z_events(30, seed=67)
        subdetectors = set()
        for event in events:
            sim_event = simulation.simulate(event)
            for deposit in sim_event.deposits:
                truth = event.particles[deposit.truth_index]
                if abs(truth.pdg_id) == 211:
                    subdetectors.add(deposit.subdetector)
        assert subdetectors == {"ecal", "hcal"}

    def test_energy_roughly_conserved(self, simulation):
        events = _z_events(30, seed=68)
        for event in events:
            sim_event = simulation.simulate(event)
            for deposit in sim_event.deposits:
                truth = event.particles[deposit.truth_index]
                assert deposit.measured_energy < 2.5 * truth.momentum.e + 5.0


class TestBookkeeping:
    def test_primary_vertex_smeared(self, simulation):
        events = _z_events(20, seed=69)
        zs = [simulation.simulate(event).primary_vertex[2]
              for event in events]
        assert len(set(zs)) == len(zs)

    def test_truth_retained(self, simulation):
        event = _z_events(1, seed=70)[0]
        sim_event = simulation.simulate(event)
        assert sim_event.truth is event

    def test_traversal_lookup(self, simulation):
        event = _z_events(1, seed=71)[0]
        sim_event = simulation.simulate(event)
        if sim_event.traversals:
            first = sim_event.traversals[0]
            assert sim_event.traversal_for(first.truth_index) is first
        assert sim_event.traversal_for(99999) is None

    def test_describe_block(self, simulation):
        record = simulation.describe()
        assert record["simulator"] == "repro-fastsim"
        assert record["geometry"] == "GPD"

    def test_batch_entry_point_is_the_scalar_loop(self):
        # simulate_many_batch is one serial call: exact, not a
        # statistically equivalent re-phasing of the draws.
        events = _z_events(6, seed=72)
        scalar = DetectorSimulation(generic_lhc_detector(), seed=73)
        batch = DetectorSimulation(generic_lhc_detector(), seed=73)
        assert (batch.simulate_many_batch(events)
                == scalar.simulate_many(events))
