"""Tests for the AOD container, triggers, and ntuple rows."""

import pytest

from repro.datamodel import AODEvent, NtupleRow, make_aod
from repro.datamodel.event import TRIGGER_MENU
from repro.errors import DataModelError


class TestAODProduction:
    def test_aod_drops_basic_objects(self, z_recos):
        aod = make_aod(z_recos[0])
        assert not hasattr(aod, "tracks")
        assert aod.n_tracks == len(z_recos[0].tracks)

    def test_aod_keeps_candidates(self, z_recos):
        reco = z_recos[0]
        aod = make_aod(reco)
        assert len(aod.muons) == len(reco.muons)
        assert aod.met.met == reco.met.met

    def test_aod_smaller_than_reco(self, z_recos):
        total_reco = sum(r.approximate_size_bytes() for r in z_recos)
        total_aod = sum(make_aod(r).approximate_size_bytes()
                        for r in z_recos)
        assert total_aod < total_reco

    def test_triggers_fire_on_z_sample(self, z_aods):
        dimuon_fires = sum(1 for aod in z_aods
                           if "HLT_DiMu10" in aod.trigger_bits)
        assert dimuon_fires > len(z_aods) * 0.3

    def test_trigger_menu_consistency(self, z_recos):
        reco = z_recos[0]
        aod = make_aod(reco)
        for name, condition in TRIGGER_MENU.items():
            assert (name in aod.trigger_bits) == condition(reco)


class TestAODContainer:
    def test_serialisation_roundtrip(self, z_aods):
        aod = z_aods[0]
        restored = AODEvent.from_dict(aod.to_dict())
        assert restored.to_dict() == aod.to_dict()

    def test_leptons_sorted_by_pt(self, z_aods):
        for aod in z_aods:
            leptons = aod.leptons()
            pts = [lepton.p4.pt for lepton in leptons]
            assert pts == sorted(pts, reverse=True)

    def test_ht_sums_jets(self, mixed_aods):
        for aod in mixed_aods:
            assert aod.ht() == pytest.approx(
                sum(jet.p4.pt for jet in aod.jets)
            )


class TestNtupleRow:
    def test_scalar_columns_only(self):
        with pytest.raises(DataModelError):
            NtupleRow(1, 1, {"bad": [1, 2, 3]})

    def test_roundtrip(self):
        row = NtupleRow(5, 17, {"met": 42.5, "n_jets": 3, "tag": "x"})
        restored = NtupleRow.from_dict(row.to_dict())
        assert restored.columns == row.columns
        assert restored.run_number == 5

    def test_size_accounting(self):
        small = NtupleRow(1, 1, {"a": 1.0})
        large = NtupleRow(1, 1, {c: 1.0 for c in "abcdefgh"})
        assert (large.approximate_size_bytes()
                > small.approximate_size_bytes())


class TestLeptonOrderingDeterminism:
    """leptons() breaks exact-pt ties with an explicit key.

    The secondary key (electrons before muons, then stored order) is
    part of the preserved selection semantics: MassWindowCut over
    "leptons" pairs the two leading leptons, so the ordering of an
    exact-pt tie decides which pair is tested, and archived skims
    depend on it.
    """

    def _tied_event(self):
        from repro.kinematics import FourVector
        from repro.reconstruction.objects import Electron, Muon

        # Exactly representable components: two pt=50 ties (one
        # electron, one muon) and two pt=30 ties.
        pt50_a = FourVector(50.0, 30.0, 40.0, 0.0)
        pt50_b = FourVector(55.0, 40.0, 30.0, 5.0)
        pt30_a = FourVector(60.0, 0.0, 30.0, 10.0)
        pt30_b = FourVector(35.0, 0.0, 30.0, 2.0)
        return AODEvent(
            run_number=1, event_number=1,
            electrons=[Electron(pt50_a, -1, 1.0, 0.0),
                       Electron(pt30_a, 1, 1.1, 0.5)],
            muons=[Muon(pt50_b, 1, 3, 0.0),
                   Muon(pt30_b, -1, 2, 0.2)],
        )

    def test_electrons_precede_muons_on_exact_ties(self):
        event = self._tied_event()
        leptons = event.leptons()
        pts = [lepton.p4.pt for lepton in leptons]
        assert pts == sorted(pts, reverse=True)
        # Both electrons share their pt with one muon each: every tie
        # resolves electron-first, then stored order.
        from repro.reconstruction.objects import Electron, Muon
        kinds = [type(lepton) for lepton in leptons]
        assert kinds == [Electron, Muon, Electron, Muon]
        assert leptons[0] is event.electrons[0]
        assert leptons[1] is event.muons[0]
        assert leptons[2] is event.electrons[1]
        assert leptons[3] is event.muons[1]

    def test_ordering_survives_serialisation(self):
        # The tie-break depends only on persisted content, so the
        # order is reproducible after a to_dict/from_dict round trip.
        event = self._tied_event()
        restored = AODEvent.from_dict(event.to_dict())
        assert ([lepton.to_dict() for lepton in restored.leptons()]
                == [lepton.to_dict() for lepton in event.leptons()])

    def test_matches_explicit_sort_key(self, mixed_aods):
        # Archived skims were selected with this order, so it must not
        # drift: the merged electron+muon order equals
        # (-pt, flavour-rank, stored index).
        for event in mixed_aods:
            want = sorted(
                list(event.electrons) + list(event.muons),
                key=lambda lepton: (
                    -lepton.p4.pt,
                    1 if lepton in event.muons else 0,
                ),
            )
            assert event.leptons() == want
