"""Differential tests: the physics hot path against its reference forms.

``tests/reference_physics.py`` keeps the straightforward implementations
of the track finder, the calorimeter clusterer, the cone jet finder and
the final-state projection family. Production computes the same
floating-point operations through per-event tables; these tests require
its results to be ``repr``-equal to the reference's, so every double
(and every sign of zero) matches, on generated inputs that reach the
edge branches: hits either side of +-pi, seeds whose two hits share a
radius, noise hits, exactly ``min_hits`` hits, a per-hit road window for
displaced tracks, straight tracks with zero curvature, and particles
with zero pt.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detector import generic_lhc_detector
from repro.detector.digitization import CaloCellHit, TrackerHit
from repro.detector.geometry import (
    DetectorGeometry,
    SubDetector,
    SubDetectorKind,
)
from repro.errors import ReconstructionError
from repro.generation.hepmc import GenEvent, ParticleStatus
from repro.kinematics import FourVector
from repro.kinematics.fourvector import wrap_phi
from repro.reconstruction import CaloClusterer, TrackFinder
from repro.reconstruction.clustering import CaloCluster, ClustererConfig
from repro.reconstruction.jets import ConeJetConfig, ConeJetFinder
from repro.reconstruction.tracking import TrackFinderConfig
from repro.rivet import (
    ChargedFinalState,
    FinalState,
    IdentifiedFinalState,
    TruthJets,
    VisibleMomentum,
)
from tests.reference_physics import (
    ReferenceCaloClusterer,
    ReferenceChargedFinalState,
    ReferenceConeJetFinder,
    ReferenceFinalState,
    ReferenceIdentifiedFinalState,
    ReferenceTrackFinder,
    ReferenceTruthJets,
    ReferenceVisibleMomentum,
)

GEOMETRY = generic_lhc_detector()

# ----------------------------------------------------------------------
# Track finding
# ----------------------------------------------------------------------

#: Layer radii with repeats, so two layers can share a radius and a seed
#: can have ``r1 == r2``.
_RADII = (30.0, 50.0, 50.0, 90.0, 160.0, 250.0, 400.0, 400.0, 600.0, 850.0)

_phi0 = st.one_of(
    st.sampled_from((0.0, math.pi - 1e-4, -math.pi + 1e-4, math.pi,
                     3.14, -3.14)),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
_small = st.floats(min_value=-1.0, max_value=1.0)

_track = st.fixed_dictionaries({
    "phi0": _phi0,
    # Zero curvature and d0 give a straight prompt track.
    "curvature": st.one_of(st.just(0.0), st.floats(-2e-4, 2e-4)),
    "d0": st.one_of(st.just(0.0), st.floats(-20.0, 20.0)),
    "z0": st.floats(-100.0, 100.0),
    "slope": st.floats(-3.0, 3.0),
    "noise": st.lists(_small, min_size=len(_RADII), max_size=len(_RADII)),
    "skip": st.sets(st.integers(0, len(_RADII) - 1), max_size=4),
})


@st.composite
def _hit_lists(draw):
    """Hits of a few helices plus random noise hits, in shuffled order."""
    layers = draw(st.integers(min_value=3, max_value=len(_RADII)))
    hits = []
    for track in draw(st.lists(_track, max_size=4)):
        for layer in range(layers):
            if layer in track["skip"]:
                continue
            radius = _RADII[layer]
            smear = track["noise"][layer]
            phi = wrap_phi(track["phi0"] + track["d0"] / radius
                           + track["curvature"] * radius
                           + smear * 1e-4)
            hits.append(TrackerHit(
                layer, radius, phi,
                track["z0"] + track["slope"] * radius + smear))
    for layer, phi, z in draw(st.lists(st.tuples(
            st.integers(0, layers - 1),
            st.floats(-math.pi, math.pi),
            st.floats(-2500.0, 2500.0)), max_size=8)):
        hits.append(TrackerHit(layer, _RADII[layer], phi, z))
    return draw(st.permutations(hits))


_configs = st.builds(
    TrackFinderConfig,
    min_hits=st.integers(min_value=3, max_value=6),
    phi_road=st.sampled_from((0.02, 0.05)),
    d0_allowance_mm=st.sampled_from((0.0, 5.0, 40.0)),
)


def _both_find(hits, config):
    return (TrackFinder(GEOMETRY, config).find(hits),
            ReferenceTrackFinder(GEOMETRY, config).find(hits))


class TestTrackFinderOracle:
    @given(hits=_hit_lists(), config=_configs)
    @settings(max_examples=300, deadline=None)
    def test_tracks_match_the_reference(self, hits, config):
        tracks, reference = _both_find(hits, config)
        assert repr(tracks) == repr(reference)

    @pytest.mark.parametrize("phi0, curvature", [
        (math.pi - 1e-3, 4e-6), (-math.pi + 1e-3, -4e-6)])
    def test_hits_either_side_of_pi(self, phi0, curvature):
        # Curvature carries the outer hits across the +-pi boundary.
        hits = [TrackerHit(layer, radius,
                           wrap_phi(phi0 + curvature * radius), 10.0 + radius)
                for layer, radius in enumerate(
                    GEOMETRY.tracker.layer_radii_mm)]
        assert len({math.copysign(1.0, hit.phi) for hit in hits}) == 2
        tracks, reference = _both_find(hits, TrackFinderConfig())
        assert len(tracks) == 1
        assert repr(tracks) == repr(reference)

    def test_zero_curvature(self):
        hits = [TrackerHit(layer, radius, 0.0, 0.0) for layer, radius
                in enumerate(GEOMETRY.tracker.layer_radii_mm)]
        tracks, reference = _both_find(hits, TrackFinderConfig())
        assert [track.pt for track in tracks] == [10000.0]
        assert repr(tracks) == repr(reference)

    def test_exactly_min_hits(self):
        radii = GEOMETRY.tracker.layer_radii_mm[:5]
        hits = [TrackerHit(layer, radius, 0.3 + 1e-5 * radius, radius)
                for layer, radius in enumerate(radii)]
        tracks, reference = _both_find(hits, TrackFinderConfig(min_hits=5))
        assert len(tracks) == 1
        assert repr(tracks) == repr(reference)
        assert _both_find(hits[:4], TrackFinderConfig(min_hits=5)) == ([], [])

    def test_seed_hits_sharing_a_radius(self):
        hits = [TrackerHit(layer, 50.0 if layer < 2 else 40.0 * layer,
                           0.7, 5.0) for layer in range(6)]
        tracks, reference = _both_find(hits, TrackFinderConfig(min_hits=3))
        assert repr(tracks) == repr(reference)

    def test_displaced_track_needs_the_per_hit_window(self):
        radii = GEOMETRY.tracker.layer_radii_mm
        hits = [TrackerHit(layer, radius, 0.4 + 30.0 / radius, 0.5 * radius)
                for layer, radius in enumerate(radii)]
        prompt, _ = _both_find(hits, TrackFinderConfig())
        tracks, reference = _both_find(
            hits, TrackFinderConfig(d0_allowance_mm=40.0))
        assert len(tracks) > len(prompt)
        assert repr(tracks) == repr(reference)


# ----------------------------------------------------------------------
# Calorimeter clustering
# ----------------------------------------------------------------------

#: Cells in a few eta bands, the edge ones included, across the phi wrap.
_cells = st.lists(st.tuples(
    st.sampled_from(("ecal", "hcal")),
    st.sampled_from((0, 40, 75)), st.integers(-1, 5),
    st.integers(-2, 2), st.floats(min_value=0.0, max_value=50.0)),
    max_size=40)


class TestClustererOracle:
    @given(cells=_cells, scale=st.floats(0.5, 1.5),
           threshold=st.sampled_from((0.1, 0.5, 3.0)))
    @settings(max_examples=200, deadline=None)
    def test_clusters_match_the_reference(self, cells, scale, threshold):
        hits = [CaloCellHit(sub, band + ieta, iphi % 64, energy)
                for sub, band, ieta, iphi, energy in cells]
        config = ClustererConfig(seed_threshold=threshold)
        for name in ("ecal", "hcal"):
            clusters = CaloClusterer(GEOMETRY, config).cluster(
                hits, name, scale)
            reference = ReferenceCaloClusterer(GEOMETRY, config).cluster(
                hits, name, scale)
            assert repr(clusters) == repr(reference)

    def test_no_cell_granularity_raises_only_for_a_seed(self):
        geometry = DetectorGeometry(name="bare", bfield_tesla=2.0)
        geometry.add(SubDetector(name="ecal", kind=SubDetectorKind.ECAL,
                                 eta_max=2.5, inner_radius_mm=1.0,
                                 outer_radius_mm=2.0, phi_cells=8))
        quiet = [CaloCellHit("ecal", 0, 1, 0.2)]
        loud = [CaloCellHit("ecal", 0, 1, 5.0)]
        for clusterer in (CaloClusterer(geometry),
                          ReferenceCaloClusterer(geometry)):
            assert clusterer.cluster(quiet, "ecal") == []
            with pytest.raises(ReconstructionError,
                               match="no cell granularity"):
                clusterer.cluster(loud, "ecal")


# ----------------------------------------------------------------------
# Cone jets
# ----------------------------------------------------------------------

_clusters = st.lists(st.builds(
    CaloCluster,
    subdetector=st.sampled_from(("ecal", "hcal")),
    energy=st.floats(min_value=0.0, max_value=300.0),
    eta=st.floats(min_value=-3.0, max_value=3.0),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
    n_cells=st.integers(1, 9)), max_size=15)


class TestConeJetOracle:
    @given(clusters=_clusters, radius=st.sampled_from((0.0, 0.4, 1.0)),
           jet_min_pt=st.sampled_from((0.0, 10.0)))
    @settings(max_examples=200, deadline=None)
    def test_jets_match_the_reference(self, clusters, radius, jet_min_pt):
        config = ConeJetConfig(cone_radius=radius, jet_min_pt=jet_min_pt)
        assert repr(ConeJetFinder(config).find(clusters)) \
            == repr(ReferenceConeJetFinder(config).find(clusters))


# ----------------------------------------------------------------------
# Final-state projections
# ----------------------------------------------------------------------

_PDG_IDS = (11, -11, 13, -13, 12, 22, 111, 211, -211, 321, 2212, 1000022)

_component = st.one_of(st.just(0.0), st.just(-0.0),
                       st.floats(-200.0, 200.0))
_particle = st.tuples(
    st.sampled_from(_PDG_IDS),
    st.sampled_from((ParticleStatus.FINAL, ParticleStatus.FINAL,
                     ParticleStatus.DECAYED)),
    _component, _component, _component)


@st.composite
def _events(draw):
    event = GenEvent(event_number=0, process_id=0, process_name="oracle",
                     sqrt_s=8000.0)
    for pdg_id, status, px, py, pz in draw(st.lists(_particle,
                                                    max_size=25)):
        energy = math.sqrt(px * px + py * py + pz * pz) + 0.5
        event.add_particle(pdg_id, FourVector(energy, px, py, pz), status)
    return event


_acceptance = st.tuples(st.sampled_from((0.5, 2.5, 5.0)),
                        st.sampled_from((0.0, 0.1, 5.0)))


class TestProjectionOracle:
    @given(event=_events(), acceptance=_acceptance)
    @settings(max_examples=300, deadline=None)
    def test_selections_match_the_reference(self, event, acceptance):
        eta_max, pt_min = acceptance
        pairs = [
            (FinalState(eta_max, pt_min),
             ReferenceFinalState(eta_max, pt_min)),
            (ChargedFinalState(eta_max, pt_min),
             ReferenceChargedFinalState(eta_max, pt_min)),
            (IdentifiedFinalState((13, -13, 22), eta_max, pt_min),
             ReferenceIdentifiedFinalState((13, -13, 22), eta_max, pt_min)),
        ]
        for projection, reference in pairs:
            assert repr(projection.particles(event)) \
                == repr(reference.particles(event))
        assert repr(VisibleMomentum(eta_max).missing_pt(event)) \
            == repr(ReferenceVisibleMomentum(eta_max).missing_pt(event))

    @given(event=_events(), radius=st.sampled_from((0.1, 0.4, 1.0, 4.0)),
           pt_min=st.sampled_from((0.0, 10.0)))
    @settings(max_examples=200, deadline=None)
    def test_truth_jets_match_the_reference(self, event, radius, pt_min):
        assert repr(TruthJets(radius, pt_min).jets(event)) \
            == repr(ReferenceTruthJets(radius, pt_min).jets(event))

    def test_zero_pt_branches(self):
        event = GenEvent(event_number=0, process_id=0, process_name="hand",
                         sqrt_s=8000.0)
        for pz in (5.0, -5.0, 0.0, -0.0):
            event.add_particle(211, FourVector(6.0, 0.0, -0.0, pz),
                               ParticleStatus.FINAL)
        selected = FinalState().particles(event)
        assert [p.momentum.pz for p in selected] == [0.0, -0.0]
        assert repr(selected) == repr(ReferenceFinalState().particles(event))
