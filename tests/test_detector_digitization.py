"""Tests for digitisation into the RAW tier."""

import math

import numpy as np
import pytest

from repro.detector import (
    DetectorSimulation,
    Digitizer,
    RawEvent,
    generic_lhc_detector,
)
from repro.detector.digitization import KAPPA, DigitizerConfig
from repro.detector.simulation import Traversal
from repro.generation import DrellYanZ, GeneratorConfig, ToyGenerator
from repro.kinematics import FourVector


@pytest.fixture(scope="module")
def geometry():
    return generic_lhc_detector()


def _simulated(n, geometry, seed=80):
    events = ToyGenerator(GeneratorConfig(
        processes=[DrellYanZ()], seed=seed)).generate(n)
    simulation = DetectorSimulation(geometry, seed=seed + 1)
    return [simulation.simulate(event) for event in events]


class TestTrackerHits:
    def test_hits_on_multiple_layers(self, geometry):
        digitizer = Digitizer(geometry, seed=81)
        sim_events = _simulated(10, geometry)
        raw = digitizer.digitize(sim_events[0])
        layers = {hit.layer for hit in raw.tracker_hits}
        assert len(layers) >= 5

    def test_helix_curvature_encodes_pt(self, geometry):
        # A clean single traversal: check the phi(r) slope matches the
        # curvature formula.
        digitizer = Digitizer(
            geometry,
            config=DigitizerConfig(layer_inefficiency=0.0,
                                   tracker_noise_hits=0.0),
            seed=82,
        )
        momentum = FourVector.from_ptetaphim(20.0, 0.3, 0.5, 0.105)
        traversal = Traversal(0, 13, -1.0, momentum, (0.0, 0.0, 0.0),
                              True)
        hits = digitizer._tracker_hits_for(traversal)
        assert len(hits) == 8
        radii = np.array([hit.r_mm for hit in hits])
        phis = np.array([hit.phi for hit in hits])
        slope = np.polyfit(radii, phis, 1)[0]
        expected = -(-1.0) * KAPPA * geometry.bfield_tesla / (2.0 * 20.0)
        assert slope == pytest.approx(expected, rel=0.05)

    def test_z_slope_encodes_eta(self, geometry):
        digitizer = Digitizer(
            geometry,
            config=DigitizerConfig(layer_inefficiency=0.0,
                                   tracker_noise_hits=0.0),
            seed=83,
        )
        momentum = FourVector.from_ptetaphim(20.0, 1.2, 0.0, 0.105)
        traversal = Traversal(0, 13, -1.0, momentum, (0.0, 0.0, 0.0),
                              True)
        hits = digitizer._tracker_hits_for(traversal)
        radii = np.array([hit.r_mm for hit in hits])
        zs = np.array([hit.z_mm for hit in hits])
        slope = np.polyfit(radii, zs, 1)[0]
        assert slope == pytest.approx(math.sinh(1.2), rel=0.02)

    def test_displaced_origin_skips_inner_layers(self, geometry):
        digitizer = Digitizer(
            geometry,
            config=DigitizerConfig(layer_inefficiency=0.0,
                                   tracker_noise_hits=0.0),
            seed=84,
        )
        momentum = FourVector.from_ptetaphim(10.0, 0.0, 0.0, 0.494)
        traversal = Traversal(0, 321, 1.0, momentum,
                              (60.0, 0.0, 0.0), False)
        hits = digitizer._tracker_hits_for(traversal)
        assert all(hit.r_mm > 60.0 for hit in hits)

    def test_noise_hits_added(self, geometry):
        digitizer = Digitizer(
            geometry,
            config=DigitizerConfig(tracker_noise_hits=20.0),
            seed=85,
        )
        sim_events = _simulated(5, geometry, seed=86)
        raw = digitizer.digitize(sim_events[0])
        assert len(raw.tracker_hits) > 15


class TestCaloCells:
    def test_cells_above_threshold_only(self, geometry):
        digitizer = Digitizer(geometry, seed=87)
        sim_events = _simulated(10, geometry, seed=88)
        for sim_event in sim_events:
            raw = digitizer.digitize(sim_event)
            for hit in raw.calo_hits:
                assert hit.energy >= digitizer.config.calo_cell_threshold

    def test_cell_indices_in_range(self, geometry):
        digitizer = Digitizer(geometry, seed=89)
        sim_events = _simulated(10, geometry, seed=90)
        for sim_event in sim_events:
            raw = digitizer.digitize(sim_event)
            for hit in raw.calo_hits:
                sub = geometry.subdetectors[hit.subdetector]
                assert 0 <= hit.ieta < sub.eta_cells
                assert 0 <= hit.iphi < sub.phi_cells


class TestMuonHits:
    def test_muon_stations_hit(self, geometry):
        digitizer = Digitizer(geometry, seed=91)
        sim_events = _simulated(20, geometry, seed=92)
        stations = set()
        for sim_event in sim_events:
            raw = digitizer.digitize(sim_event)
            stations.update(hit.station for hit in raw.muon_hits)
        assert stations == {0, 1, 2}

    def test_muon_hit_direction_close_to_truth(self, geometry):
        digitizer = Digitizer(geometry, seed=93)
        sim_events = _simulated(10, geometry, seed=94)
        for sim_event in sim_events:
            raw = digitizer.digitize(sim_event)
            for hit in raw.muon_hits:
                closest = min(
                    (t for t in sim_event.traversals
                     if t.reaches_muon_system),
                    key=lambda t: abs(t.momentum.eta - hit.eta),
                    default=None,
                )
                assert closest is not None
                assert abs(closest.momentum.eta - hit.eta) < 0.1


class TestRawEvent:
    def test_serialisation_roundtrip(self, geometry):
        digitizer = Digitizer(geometry, run_number=9, seed=95)
        sim_events = _simulated(3, geometry, seed=96)
        raw = digitizer.digitize(sim_events[0])
        restored = RawEvent.from_dict(raw.to_dict())
        assert restored.run_number == 9
        assert len(restored.tracker_hits) == len(raw.tracker_hits)
        assert restored.tracker_hits[0] == raw.tracker_hits[0]
        assert restored.calo_hits[0] == raw.calo_hits[0]

    def test_bunch_crossing_increments(self, geometry):
        digitizer = Digitizer(geometry, seed=97)
        sim_events = _simulated(3, geometry, seed=98)
        raws = digitizer.digitize_many(sim_events)
        assert [raw.bunch_crossing for raw in raws] == [1, 2, 3]

    def test_batch_entry_point_is_the_scalar_loop(self, geometry):
        # digitize_many_batch is one serial call: the same hits and
        # bunch crossings as the per-event loop, bit for bit.
        sim_events = _simulated(4, geometry, seed=101)
        scalar = Digitizer(geometry, run_number=3, seed=102)
        batch = Digitizer(geometry, run_number=3, seed=102)
        assert ([raw.to_dict() for raw in batch.digitize_many_batch(
                    sim_events)]
                == [raw.to_dict() for raw in scalar.digitize_many(
                    sim_events)])
        assert batch.digitize(sim_events[0]).bunch_crossing == 5

    def test_size_accounting_positive(self, geometry):
        digitizer = Digitizer(geometry, seed=99)
        sim_events = _simulated(2, geometry, seed=100)
        raw = digitizer.digitize(sim_events[0])
        assert raw.approximate_size_bytes() > 64
