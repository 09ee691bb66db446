"""The physics chain's output bytes are pinned by digest.

Every stage an archived campaign depends on — truth generation for each
``repro generate --process`` choice and for the processes only reachable
through the library, a cross-section-weighted mixture with pile-up,
simulation plus digitisation to RAW on both geometries, a small
``repro campaign`` AOD file on each geometry and its conditions
manifest, displaced tracking with a per-hit road window, the
final-state projection family's selections, truth jets, the RIVET
analyses and a RECAST mass-scan limit — is reduced to the
SHA-256 of its canonical JSON and compared with a pinned digest. The
serial-versus-parallel tests elsewhere only show that two execution
policies agree with each other; these digests show the bytes themselves
have not moved, so a change that shifts a random stream on every path
at once still fails here.

A platform whose numpy draws or libm disagree in the last bit fails
these tests rather than skipping them: that is exactly the case they
exist to catch.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main
from repro.core.canonical import canonical_json
from repro.datamodel import AndCut, CountCut, MassWindowCut, SkimSpec
from repro.detector import (
    DetectorSimulation,
    Digitizer,
    forward_spectrometer,
    generic_lhc_detector,
)
from repro.generation import (
    DrellYanZ,
    DzeroProduction,
    GeneratorConfig,
    HiggsToFourLeptons,
    KshortProduction,
    MinimumBias,
    QCDDijets,
    ToyGenerator,
    WProduction,
    ZPrimeResonance,
)
from repro.generation.hepmc import GenEvent, ParticleStatus
from repro.kinematics import FourVector
from repro.recast import FullChainBackend, PreservedSearch, run_mass_scan
from repro.reconstruction import TrackFinder
from repro.reconstruction.tracking import TrackFinderConfig
from repro.rivet import (
    ChargedFinalState,
    FinalState,
    IdentifiedFinalState,
    RivetRunner,
    TruthJets,
    VisibleMomentum,
    standard_repository,
)

GENERATE_PROCESSES = ("z_to_mumu", "z_to_ee", "w_to_munu", "higgs_4l",
                      "qcd_dijets", "d0_to_kpi", "jpsi", "minbias")


def _digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload)).hexdigest()


def _mixture_events(n_events: int = 40):
    """A weighted five-process mixture with pile-up, so the per-event
    process choice draws from a non-trivial cumulative distribution."""
    config = GeneratorConfig(
        processes=[DrellYanZ(flavour="e", cross_section_pb=3.0),
                   WProduction(charge=-1, cross_section_pb=2.0),
                   KshortProduction(cross_section_pb=1.5),
                   ZPrimeResonance(mass=900.0, cross_section_pb=1.0),
                   HiggsToFourLeptons(cross_section_pb=2.5)],
        seed=515, pileup_mu=1.5,
    )
    return ToyGenerator(config).generate(n_events)


def _jet_events():
    config = GeneratorConfig(
        processes=[QCDDijets(cross_section_pb=2.0),
                   DrellYanZ(cross_section_pb=1.0),
                   MinimumBias(cross_section_pb=1.0)], seed=31)
    return ToyGenerator(config).generate(30)


def _raw_digest(geometry) -> str:
    simulation = DetectorSimulation(geometry, seed=808)
    digitizer = Digitizer(geometry, run_number=7, seed=809)
    raws = [digitizer.digitize(simulation.simulate(event)).to_dict()
            for event in _mixture_events(25) + _jet_events()[:10]]
    return _digest(raws)


def _search() -> PreservedSearch:
    selection = SkimSpec("highmass", AndCut((
        CountCut("muons", 2, min_pt=30.0),
        MassWindowCut("muons", 500.0, 1e9, opposite_charge=True),
    )))
    return PreservedSearch(
        analysis_id="GPD-EXO-2013-01", title="High-mass dimuon search",
        experiment="GPD", selection=selection, n_observed=3,
        background=2.5, background_uncertainty=0.6,
        luminosity_ipb=20000.0,
    )


def _displaced_tracks() -> list:
    """Tracks found with a per-hit road window on D0 -> K pi events."""
    geometry = generic_lhc_detector()
    events = ToyGenerator(GeneratorConfig(
        processes=[DzeroProduction()], seed=4242)).generate(30)
    simulation = DetectorSimulation(geometry, seed=4243)
    digitizer = Digitizer(geometry, run_number=3, seed=4244)
    finder = TrackFinder(geometry, TrackFinderConfig(d0_allowance_mm=40.0))
    return [[track.to_dict() for track in finder.find(
        digitizer.digitize(simulation.simulate(event)).tracker_hits)]
            for event in events]


def _longitudinal_event() -> GenEvent:
    """Hand-made final-state particles with zero pt: pz > 0, < 0 and 0,
    beside ordinary ones, to reach the projections' infinite-eta and
    zero-eta branches."""
    event = GenEvent(event_number=0, process_id=0, process_name="hand",
                     sqrt_s=8000.0)
    for pdg_id, p4 in (
            (13, (5.0, 0.0, 0.0, 5.0)), (-13, (5.0, 0.0, 0.0, -5.0)),
            (211, (0.2, 0.0, 0.0, 0.0)), (22, (3.0, -0.0, 0.0, 3.0)),
            (-211, (4.0, 1.0, -2.0, 3.0)), (13, (30.0, 20.0, 10.0, -5.0)),
            (12, (9.0, 6.0, -3.0, 1.0)), (2212, (2.0, 0.0, 0.0, -0.0))):
        event.add_particle(pdg_id, FourVector(*p4), ParticleStatus.FINAL)
    return event


def _projection_events() -> list[GenEvent]:
    events = []
    for process, seed in ((MinimumBias(), 61), (QCDDijets(), 62)):
        events += ToyGenerator(GeneratorConfig(
            processes=[process], seed=seed)).generate(20)
    return events + [_longitudinal_event()]


#: Selections of the final-state projection family, by name.
_SELECTIONS = {
    "final": FinalState(),
    "final_tight": FinalState(eta_max=2.0, pt_min=1.0),
    "charged": ChargedFinalState(),
    "charged_open": ChargedFinalState(eta_max=5.0, pt_min=0.0),
    "muons": IdentifiedFinalState((13, -13), eta_max=2.5, pt_min=5.0),
    "muons_open": IdentifiedFinalState((13, -13)),
    "pions": IdentifiedFinalState((211, -211)),
    "photons_protons": IdentifiedFinalState((22, 2212), pt_min=0.0),
}


def _projection_selections() -> list:
    selections = []
    for event in _projection_events():
        record = {name: [p.to_dict() for p in projection.particles(event)]
                  for name, projection in _SELECTIONS.items()}
        for eta_max in (5.0, 2.5):
            met = VisibleMomentum(eta_max=eta_max).missing_pt(event)
            record[f"met_{eta_max}"] = met.to_list()
        selections.append(record)
    return selections


#: Pinned digests; they must never move without a reviewed reason.
PINNED: dict[str, str] = {
    "campaign_aod":
        "39848f7425259d1f8ef50f72d0fb96922b4cde351cd326ff3ba1de24ad2012f3",
    "campaign_aod_fwd":
        "33243bcfa6e60df40a5d3289b70cc7d65a95c20750104d5417b00bac4841d937",
    "campaign_manifest":
        "1a4b91351b67d905e955ec4e2b78146d10054890c5adae40e2a9f059a1664289",
    "displaced_tracks":
        "0cf068e560ddd69db3177ab5d8d05f367f79104d69c4ff1d23562e7e62e9ff08",
    "gen_d0_to_kpi":
        "e2e0deb23e034a36ddd3d9cc5bee06cb720e503eed6b3181bb79a113d4b1c58e",
    "gen_higgs_4l":
        "5ae787fbc3dadb0593991ee6ff2afdc41967afcac6b596f238af8e3ec089be6d",
    "gen_jpsi":
        "a8694ee0ed873787a3d6e211182dc40d6268aa7abbf50f243aadd9dae3889011",
    "gen_minbias":
        "439d987278a29e003ce1475b4cf26398ce3d50b2e6603a5e68d47dc65dbfe289",
    "gen_mixture":
        "d9e8b91f454ab4515ae41aa8777eea978b3e7b2e682026c19bc7577ba7a17151",
    "gen_qcd_dijets":
        "db101c402687a58a54394877305d21c545449263ec2a1ff1f9b36360335421d7",
    "gen_w_to_munu":
        "f07d68caeb8bfeaa82e606dffa2094b7013a35791b9715694d865497f9cddb17",
    "gen_z_to_ee":
        "4b90230829abac3b3854c03d17ba7c8bd4bb2a88dd27b78a0ced08e1736e52cc",
    "gen_z_to_mumu":
        "7d5a960deb8194e0484e64b4375958e82834c81257648b75c2f2229fe6966287",
    "mass_scan":
        "179636568fd816f1ff68605465dbcf5d5d88322ee47c61c1323f38390c9762c8",
    "projections":
        "4cb6fa0f49882c3c96f196dae3b4285f7392309ed0f310fc11f623bbcd39ad6d",
    "raw_fwd":
        "23f91ce2c0407f77b240c3e5be228deabba42b14e9783cd731a17873db20f66f",
    "raw_gpd":
        "44952365e21603ab0cb0ceab8513cbc58d35009234cc2c8add8c2ade84014be9",
    "rivet":
        "8e48e514b552568abec29440f02682be8c9dddcddc229a88cd894cc9234207cc",
    "truth_jets":
        "6b778ecc0c94d77ef9cddf22984a9501e6770720cbaa39454e1755f17643d0f9",
}


@pytest.mark.parametrize("process", GENERATE_PROCESSES)
def test_generate_cli_output(process, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--process", process, "--events", "25",
                 "--seed", "4711", "--output", "gen.jsonl"]) == 0
    data = (tmp_path / "gen.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED[f"gen_{process}"]


def test_library_only_processes_in_a_weighted_mixture():
    events = [event.to_dict() for event in _mixture_events()]
    assert _digest(events) == PINNED["gen_mixture"]


@pytest.mark.parametrize("name, geometry", [
    ("gpd", generic_lhc_detector), ("fwd", forward_spectrometer)])
def test_digitised_raw(name, geometry):
    assert _raw_digest(geometry()) == PINNED[f"raw_{name}"]


def test_campaign_aod_and_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["campaign", "--name", "identity", "--runs", "2",
                 "--sections", "20", "--events-per-section", "1.0",
                 "--max-events-per-run", "20", "--seed", "6001",
                 "--output", "aod.jsonl", "--manifest", "man.json"]) == 0
    aod = hashlib.sha256((tmp_path / "aod.jsonl").read_bytes()).hexdigest()
    manifest = hashlib.sha256(
        (tmp_path / "man.json").read_bytes()).hexdigest()
    assert (aod, manifest) == (PINNED["campaign_aod"],
                               PINNED["campaign_manifest"])


def test_truth_jets():
    jets = [[[jet.e, jet.px, jet.py, jet.pz]
             for jet in TruthJets(cone_radius=radius).jets(event)]
            for event in _jet_events() for radius in (0.4, 0.7)]
    assert _digest(jets) == PINNED["truth_jets"]


def test_rivet_histograms():
    repository = standard_repository()
    results = RivetRunner(repository).run(repository.names(),
                                          _jet_events())
    assert _digest({name: result.to_dict()
                    for name, result in results.items()}) \
        == PINNED["rivet"]


def test_mass_scan_limit():
    backend = FullChainBackend("GPD", n_events=30, n_limit_toys=50,
                               seed=6400)
    scan = run_mass_scan(backend, _search(), [800.0, 1600.0])
    assert _digest([point.result.to_dict() for point in scan.points]) \
        == PINNED["mass_scan"]


def test_campaign_aod_forward_geometry(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["campaign", "--name", "identity", "--geometry", "FWD",
                 "--runs", "2", "--sections", "20",
                 "--events-per-section", "1.0", "--max-events-per-run",
                 "20", "--seed", "6001", "--output", "aod.jsonl"]) == 0
    aod = hashlib.sha256((tmp_path / "aod.jsonl").read_bytes()).hexdigest()
    assert aod == PINNED["campaign_aod_fwd"]


def test_displaced_tracking_with_a_per_hit_window():
    tracks = _displaced_tracks()
    assert sum(map(len, tracks)) > 0
    assert _digest(tracks) == PINNED["displaced_tracks"]


def test_final_state_projection_selections():
    assert _digest(_projection_selections()) == PINNED["projections"]
