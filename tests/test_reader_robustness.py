"""Damaged input to the JSON document readers is a typed error.

Every reader a user can hand a file to — run reports, health reports,
SLO specs, service submission scripts, preserved-analysis bundles,
archive catalogues, conditions snapshots, HepData archives, analysis
databases, good-run lists, RIVET reference data, provenance exports,
skim specs and JSON-lines datasets —
must either load the document or raise a :class:`ReproError` subclass
that names the file (and, for datasets, the line), never a bare
``UnicodeDecodeError``, ``JSONDecodeError`` or ``AttributeError``; the
CLI turns those into exit code 2.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.conditions import default_conditions, export_snapshot, load_snapshot
from repro.core import (
    AnalysisDatabase,
    PreservationArchive,
    PreservedAnalysisBundle,
)
from repro.core.metadata import PreservationMetadata
from repro.datamodel import (
    CountCut,
    DataTier,
    DatasetReader,
    GoodRunList,
    SkimSpec,
    SlimSpec,
    write_dataset,
)
from repro.errors import PersistenceError, PreservationError, ReproError
from repro.hepdata import HepDataArchive
from repro.lint import lint_path
from repro.lint.consistency import lint_archive_directory
from repro.lint.flow import ClosureManifest
from repro.lint.flow.manifest import check_manifest_against_archive
from repro.obs import (
    HealthReport,
    MetricsRegistry,
    RunReport,
    SLOSpec,
    TelemetryHub,
    Tracer,
    evaluate_slo,
)
from repro.provenance import ProducerRecord, ProvenanceCapture
from repro.rivet import ReferenceData
from repro.runtime import LogicalClock
from repro.service import default_service_slo, demo_script, load_script
from repro.stats import Histogram1D
from tests.test_core_describe_analysisdb import _description
from tests.test_hepdata import _cross_section_record


def _run_report() -> dict:
    tracer = Tracer("t")
    with tracer.span("campaign.run", run=1):
        pass
    return RunReport.build(tracer, MetricsRegistry(),
                           deterministic=True).to_dict()


def _health_report() -> dict:
    snapshot = TelemetryHub(LogicalClock()).snapshot(deterministic=True)
    return evaluate_slo(default_service_slo(), snapshot).to_dict()


def _bundle() -> dict:
    return PreservedAnalysisBundle.create(
        "b", [], SkimSpec("s", CountCut("muons", 1)),
        SlimSpec("n", ("met",))).to_dict()


def _archive() -> PreservationArchive:
    archive = PreservationArchive("robust")
    archive.store({"a": [1, 2]}, "skim_spec", PreservationMetadata.build(
        title="t", creator="curator", experiment="GPD",
        created="2013-03-21", artifact_format="json", size_bytes=0,
        checksum="", producer="test", access_policy="public"))
    return archive


def _catalogue() -> dict:
    """The catalogue :meth:`PreservationArchive.save` writes."""
    archive = _archive()
    return {"format": "repro-preservation-archive", "name": archive.name,
            "entries": [archive.entry(digest).to_dict()
                        for digest in archive.digests()]}


def _load_archive(path):
    """Load an archive whose catalogue holds the bytes at ``path``; the
    directory is named after ``path`` and holds the stored blob."""
    directory = path.with_name(path.name + ".archive")
    _archive().save(directory)
    (directory / "catalogue.json").write_bytes(path.read_bytes())
    return PreservationArchive.load(directory)


def _snapshot() -> dict:
    return export_snapshot(default_conditions(), "GT-FINAL", 1, 3).to_dict()


def _saved(save) -> dict:
    """The JSON document ``save(path)`` writes."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "doc.json"
        save(path)
        return json.loads(path.read_text(encoding="utf-8"))


def _hepdata_archive() -> dict:
    archive = HepDataArchive("durham")
    archive.submit(_cross_section_record())
    return _saved(archive.save)


def _analysis_db() -> dict:
    database = AnalysisDatabase("db")
    database.add(_description())
    return _saved(database.save)


def _grl() -> dict:
    grl = GoodRunList("GRL-v1")
    grl.certify(1, 1, 10)
    grl.certify(2, 3, 5)
    return _saved(grl.save)


def _reference() -> dict:
    reference = ReferenceData("X", source="paper")
    histogram = Histogram1D("X/mass", 4, 0.0, 4.0)
    histogram.fill(1.5)
    reference.add("mass", histogram)
    return _saved(reference.save)


def _provenance() -> dict:
    capture = ProvenanceCapture()
    first = capture.new_artifact_id("raw")
    capture.report(first, "dataset", "RAW")
    capture.report(capture.new_artifact_id("aod"), "dataset", "AOD",
                   parents=(first,), producer=ProducerRecord("reco", "1.0"))
    return _saved(capture.export)


#: ``(reader, a valid document for it)`` for every reader under test.
READERS = {
    "run_report": (RunReport.load, _run_report),
    "health_report": (HealthReport.load, _health_report),
    "slo_spec": (SLOSpec.load, lambda: default_service_slo().to_dict()),
    "script": (load_script, demo_script),
    "bundle": (PreservedAnalysisBundle.load, _bundle),
    "archive": (_load_archive, _catalogue),
    "snapshot": (load_snapshot, _snapshot),
    "hepdata_archive": (HepDataArchive.load, _hepdata_archive),
    "analysis_db": (AnalysisDatabase.load, _analysis_db),
    "grl": (GoodRunList.load, _grl),
    "reference_data": (ReferenceData.load, _reference),
    "provenance": (ProvenanceCapture.load, _provenance),
    "skim_spec": (SkimSpec.load, lambda: SkimSpec(
        "two-mu", CountCut("muons", 2, min_pt=15.0)).to_dict()),
}

NON_UTF8 = b'{"a": "\xff"}'


def _read(reader, path, data: bytes) -> None:
    """Write ``data`` to ``path`` and read it; a ReproError is fine."""
    path.write_bytes(data)
    try:
        reader(path)
    except ReproError:
        pass


@pytest.mark.parametrize("name", sorted(READERS))
def test_valid_document_loads(name, tmp_path):
    reader, document = READERS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document()), encoding="utf-8")
    reader(path)


@pytest.mark.parametrize("name", sorted(READERS))
def test_non_utf8_is_a_typed_error_naming_the_file(name, tmp_path):
    reader, _ = READERS[name]
    path = tmp_path / "bad.json"
    path.write_bytes(NON_UTF8)
    with pytest.raises(ReproError, match="bad.json"):
        reader(path)


@pytest.mark.parametrize("command", ["trace", "metrics", "profile",
                                     "health"])
def test_cli_exits_2_on_non_utf8_report(command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(NON_UTF8)
    assert main([command, str(path)]) == 2
    assert "bad.json" in capsys.readouterr().err


class TestValidateBundleDamage:
    @pytest.mark.parametrize("data", [
        b"[1, 2, 3]",
        b'{"format": "repro-preserved-analysis", "bundle',
        NON_UTF8,
    ], ids=["json-list", "truncated", "non-utf8"])
    def test_exits_2_naming_the_file(self, data, tmp_path, capsys):
        path = tmp_path / "damaged.json"
        path.write_bytes(data)
        assert main(["validate-bundle", "--bundle", str(path)]) == 2
        assert "damaged.json" in capsys.readouterr().err

    def test_from_dict_rejects_a_non_object(self):
        with pytest.raises(PreservationError, match="JSON object"):
            PreservedAnalysisBundle.from_dict([])


@pytest.mark.parametrize("name", ["archive", "snapshot"])
@pytest.mark.parametrize("data", [b"[1]", NON_UTF8],
                         ids=["json-list", "non-utf8"])
def test_damaged_archive_and_snapshot_name_the_file(name, data, tmp_path):
    path = tmp_path / "damaged.json"
    path.write_bytes(data)
    with pytest.raises(PersistenceError, match="damaged.json"):
        READERS[name][0](path)


@pytest.mark.parametrize("name", ["hepdata_archive", "analysis_db", "grl",
                                  "reference_data", "provenance"])
@pytest.mark.parametrize("data", [b"[1, 2]", NON_UTF8],
                         ids=["json-list", "non-utf8"])
def test_damaged_saved_document_names_the_file(name, data, tmp_path):
    path = tmp_path / "damaged.json"
    path.write_bytes(data)
    with pytest.raises(PersistenceError, match="damaged.json"):
        READERS[name][0](path)


class TestSkimSpecDamage:
    @pytest.mark.parametrize("data", [
        None,
        b'{"name": "s", "cut": ',
        b'{"name": "s"}',
        NON_UTF8,
    ], ids=["missing", "bad-json", "no-cut", "non-utf8"])
    def test_exits_2_naming_the_file(self, data, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        if data is not None:
            spec.write_bytes(data)
        assert main(["skim", "--spec", str(spec),
                     "--input", str(tmp_path / "in.jsonl"),
                     "--output", str(tmp_path / "out.jsonl")]) == 2
        assert "spec.json" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()


def test_snapshot_run_bound_of_infinity_is_a_typed_error(tmp_path):
    record = _snapshot()
    record["first_run"] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(PersistenceError, match="inf.json"):
        load_snapshot(path)


def _field_paths(value, path=()):
    """Key paths to every value of a document, the root included."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value[:2]) if isinstance(value, list)
             else ())
    for key, child in items:
        yield from _field_paths(child, path + (key,))


def _with_value(document, path, value):
    """A copy of ``document`` with the value at ``path`` replaced."""
    if not path:
        return value
    record = json.loads(json.dumps(document))
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return record


_PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("name", sorted(READERS))
class TestReaderProperties:
    @_PROPERTY
    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes(self, name, data, tmp_path):
        _read(READERS[name][0], tmp_path / "doc.json", data)

    def test_every_truncation_of_a_valid_document(self, name, tmp_path):
        reader, document = READERS[name]
        data = json.dumps(document(), indent=1).encode("utf-8")
        for end in range(len(data)):
            _read(reader, tmp_path / "doc.json", data[:end])

    def test_every_field_with_a_wrong_type(self, name, tmp_path):
        reader, document = READERS[name]
        valid = json.loads(json.dumps(document()))
        for path in _field_paths(valid):
            for value in (None, [], {}, "x", 1.5, float("nan")):
                record = _with_value(valid, path, value)
                _read(reader, tmp_path / "doc.json",
                      json.dumps(record).encode("utf-8"))

    @_PROPERTY
    @given(position=st.floats(min_value=0.0, max_value=1.0),
           byte=st.integers(min_value=0x80, max_value=0xff))
    def test_non_utf8_documents(self, name, position, byte, tmp_path):
        reader, document = READERS[name]
        data = json.dumps(document(), indent=1).encode("utf-8")
        index = int(position * len(data))
        _read(reader, tmp_path / "doc.json",
              data[:index] + bytes([byte]) + data[index:])


def _lint_catalogue(path) -> list[str]:
    """Codes both lint readers of an archive report for a catalogue
    holding ``path``'s bytes; a damaged one must be a finding."""
    directory = path.parent / "archive"
    directory.mkdir(exist_ok=True)
    (directory / "catalogue.json").write_bytes(path.read_bytes())
    findings = lint_archive_directory(directory)
    findings += check_manifest_against_archive(
        ClosureManifest(root="tree"), directory)
    return [finding.code for finding in findings]


class TestLintReaderDamage:
    """``repro lint`` reports a damaged document it reads as a finding
    (DAS010 for a loose document, DAS108/DAS208 for a catalogue)."""

    def test_non_utf8_json_target_is_das010(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(NON_UTF8)
        assert [f.code for f in lint_path(path)] == ["DAS010"]
        assert main(["lint", str(path)]) == 2
        assert "DAS010" in capsys.readouterr().out

    @pytest.mark.parametrize("data", [b"[1,2]", NON_UTF8,
                                      b'{"entries": [3]}',
                                      b'{"entries": [{"metadata": 1}]}'],
                             ids=["json-list", "non-utf8", "entry-int",
                                  "metadata-int"])
    def test_damaged_catalogue_is_das108_and_das208(self, data,
                                                    tmp_path, capsys):
        path = tmp_path / "catalogue.bytes"
        path.write_bytes(data)
        assert _lint_catalogue(path) == ["DAS108", "DAS208"]
        assert main(["lint", str(tmp_path / "archive")]) == 2
        assert "DAS108" in capsys.readouterr().out

    def test_saved_archive_is_clean(self, tmp_path):
        directory = tmp_path / "archive"
        _archive().save(directory)
        assert lint_archive_directory(directory) == []
        assert check_manifest_against_archive(
            ClosureManifest(root="tree"), directory) == []

    @_PROPERTY
    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes(self, data, tmp_path):
        path = tmp_path / "catalogue.bytes"
        path.write_bytes(data)
        _lint_catalogue(path)
        lint_path(path.rename(tmp_path / "doc.json"))

    def test_every_field_with_a_wrong_type(self, tmp_path):
        valid = _catalogue()
        path = tmp_path / "catalogue.bytes"
        for field_path in _field_paths(valid):
            for value in (None, [], {}, "x", 1.5, float("nan")):
                record = _with_value(valid, field_path, value)
                path.write_text(json.dumps(record), encoding="utf-8")
                _lint_catalogue(path)


def _dataset_bytes(tmp_path) -> bytes:
    path = tmp_path / "valid.jsonl"
    write_dataset(path, "robust", DataTier.NTUPLE, [
        {"run": 1, "event": event, "cols": {"met": 1.5, "n_mu": event}}
        for event in range(2)])
    return path.read_bytes()


def _read_dataset(path) -> list[dict]:
    return DatasetReader(path).read_all()


class TestDatasetDamage:
    """Each damaged dataset raises a PersistenceError naming path:line."""

    HEADER = b'{"format":"repro-dataset","tier":"AOD"}\n'

    @pytest.mark.parametrize("data, where", [
        (b'{"format": "\xff"}\n', ":1:"),
        (b"[1, 2]\n", ":1:"),
        (HEADER + b'{"run": 1}\n{"run": "\xff"}\n', ":3:"),
        (HEADER + b"[1, 2]\n", ":2:"),
    ], ids=["header-non-utf8", "header-json-list", "record-non-utf8",
            "record-json-list"])
    def test_names_file_and_line(self, data, where, tmp_path):
        path = tmp_path / "damaged.jsonl"
        path.write_bytes(data)
        with pytest.raises(PersistenceError,
                           match=f"damaged.jsonl{where}"):
            _read_dataset(path)

    def test_valid_dataset_loads(self, tmp_path):
        path = tmp_path / "doc.jsonl"
        path.write_bytes(_dataset_bytes(tmp_path))
        assert len(_read_dataset(path)) == 2

    @_PROPERTY
    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes(self, data, tmp_path):
        _read(_read_dataset, tmp_path / "doc.jsonl", data)

    def test_every_truncation_of_a_valid_dataset(self, tmp_path):
        data = _dataset_bytes(tmp_path)
        for end in range(len(data)):
            _read(_read_dataset, tmp_path / "doc.jsonl", data[:end])

    def test_every_header_field_with_a_wrong_type(self, tmp_path):
        header, _, records = _dataset_bytes(tmp_path).partition(b"\n")
        valid = json.loads(header)
        for path in _field_paths(valid):
            for value in (None, [], {}, "x", 1.5, float("nan"),
                          float("inf")):
                record = _with_value(valid, path, value)
                _read(_read_dataset, tmp_path / "doc.jsonl",
                      json.dumps(record).encode("utf-8") + b"\n"
                      + records)

    @_PROPERTY
    @given(position=st.floats(min_value=0.0, max_value=1.0),
           byte=st.integers(min_value=0x80, max_value=0xff))
    def test_non_utf8_datasets(self, position, byte, tmp_path):
        data = _dataset_bytes(tmp_path)
        index = int(position * len(data))
        _read(_read_dataset, tmp_path / "doc.jsonl",
              data[:index] + bytes([byte]) + data[index:])


#: One valid record per tier a command decodes, with every field set.
_EVENT_RECORDS = {
    DataTier.GEN: {
        "event_number": 0, "process_id": 1, "process_name": "z_to_mumu",
        "sqrt_s": 13000.0, "weight": 1.0,
        "particles": [
            {"index": 0, "pdg_id": 23, "status": 2,
             "p4": [133.7, 8.0, -6.6, 97.4], "parents": [],
             "children": [1, 2], "decay_vtx": [0.0, 0.0, 0.0]},
            {"index": 1, "pdg_id": 13, "status": 1,
             "p4": [94.9, -25.5, -23.7, 88.3], "parents": [0],
             "children": [], "prod_vtx": [0.0, 0.0, 0.0]},
            {"index": 2, "pdg_id": -13, "status": 1,
             "p4": [38.7, 33.5, 17.1, 9.1], "parents": [0],
             "children": []},
        ],
    },
    DataTier.AOD: {
        "run": 42, "event": 0,
        "electrons": [{"p4": [50.0, 30.0, 20.0, 33.0], "q": -1,
                       "eop": 1.0, "iso": 0.05}],
        "muons": [{"p4": [37.9, 32.8, 16.8, 8.9], "q": 1,
                   "stations": 3, "iso": 0.0}],
        "photons": [{"p4": [20.0, 0.0, 20.0, 0.0]}],
        "jets": [{"p4": [80.0, -60.0, 10.0, 40.0], "ncon": 7,
                  "emf": 0.3}],
        "met": {"met": 38.4, "phi": -2.65},
        "triggers": ["HLT_SingleMu20"], "ntracks": 2,
    },
    DataTier.LEVEL2: {
        "run": 42, "event": 0, "collision_energy_tev": 8.0,
        "particles": [
            {"type": "muon", "E": 37.9, "pt": 36.9, "eta": 0.24,
             "phi": 0.47, "charge": 1},
            {"type": "jet", "E": 80.0, "pt": 60.8, "eta": 0.6,
             "phi": 2.97, "charge": 0},
        ],
        "met": {"value": 38.4, "phi": -2.65},
        "display": {
            "tracks": [{"pt": 36.9, "eta": 0.24, "phi": 0.47,
                        "charge": 1,
                        "points": [[90.0, 45.0], [180.0, 92.0]]}],
            "towers": [{"kind": "hcal", "eta": 0.6, "phi": 2.97,
                        "energy": 80.0}],
            "met": {"value": 38.4, "phi": -2.65},
        },
    },
}


def _without(document, path):
    """A copy of ``document`` with the key at ``path`` removed."""
    record = json.loads(json.dumps(document))
    target = record
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    return record


def _event_commands(tier, src: str, tmp_path) -> list[list[str]]:
    """Every command that decodes ``tier`` records, reading ``src``."""
    out = str(tmp_path / "out")
    if tier == DataTier.GEN:
        return [["process", "--input", src, "--output", out]]
    if tier == DataTier.AOD:
        spec = tmp_path / "skim.json"
        spec.write_text(json.dumps({
            "name": "mu", "cut": {"kind": "count", "collection": "muons",
                                  "min_count": 1, "min_pt": 10.0}}))
        return [["convert-level2", "--input", src, "--output", out],
                ["skim", "--input", src, "--spec", str(spec),
                 "--output", out]]
    return [["display", "--input", src],
            ["display", "--input", src, "--svg", out]]


_WRONG_TYPES = (None, True, [], {}, "x", 1.5, float("nan"),
                float("inf"))


def _run_on_record(tier, record, tmp_path, capsys) -> None:
    """Every command of ``tier`` on a one-record file: exit 0, or
    exit 2 naming the record's ``path:line``."""
    path = tmp_path / "events.jsonl"
    write_dataset(path, "robust", tier, [_EVENT_RECORDS[tier]])
    header = path.read_bytes().partition(b"\n")[0]
    path.write_bytes(header + b"\n" + json.dumps(record).encode() + b"\n")
    for argv in _event_commands(tier, str(path), tmp_path):
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2), (argv, record)
        if code == 2:
            assert "events.jsonl:2: " in err, (argv, record, err)


@pytest.mark.parametrize("tier", sorted(_EVENT_RECORDS,
                                        key=lambda tier: tier.value),
                         ids=lambda tier: tier.value)
class TestEventRecordDamage:
    """A damaged event record exits 2 naming ``path:line``, in every
    command that decodes its tier, never with a traceback."""

    def test_valid_record_decodes(self, tier, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        write_dataset(path, "robust", tier, [_EVENT_RECORDS[tier]])
        for argv in _event_commands(tier, str(path), tmp_path):
            assert main(argv) == 0, capsys.readouterr().err

    def test_every_field_with_a_wrong_type(self, tier, tmp_path,
                                           capsys):
        valid = _EVENT_RECORDS[tier]
        for path in _field_paths(valid):
            for value in _WRONG_TYPES:
                _run_on_record(tier, _with_value(valid, path, value),
                               tmp_path, capsys)

    def test_every_missing_field(self, tier, tmp_path, capsys):
        valid = _EVENT_RECORDS[tier]
        for path in _field_paths(valid):
            if path and isinstance(path[-1], str):
                _run_on_record(tier, _without(valid, path), tmp_path,
                               capsys)


_AOD, _LEVEL2 = _EVENT_RECORDS[DataTier.AOD], _EVENT_RECORDS[DataTier.LEVEL2]


def _assert_refused_at_line_3(command, tier, record, tmp_path, capsys,
                              message: str) -> None:
    """``command`` on a valid record and then ``record`` exits 2 with
    ``message`` naming ``events.jsonl:3``."""
    target = tmp_path / "events.jsonl"
    write_dataset(target, "robust", tier, [_EVENT_RECORDS[tier]] * 2)
    lines = target.read_bytes().splitlines(keepends=True)
    # json.dumps, not the dataset writer: it refuses NaN and infinity.
    target.write_bytes(b"".join(lines[:2]) + json.dumps(record).encode()
                       + b"\n")
    # The last form of the command: for display, the SVG renderer that
    # reads the embedded payload.
    argv = [argv for argv in _event_commands(tier, str(target), tmp_path)
            if argv[0] == command][-1]
    assert main(argv) == 2
    assert f"events.jsonl:3: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command, tier, record", [
    ("display", DataTier.LEVEL2, _with_value(_LEVEL2, ("met",), 5)),
    ("convert-level2", DataTier.AOD, _with_value(_AOD, ("muons",), 3)),
    ("skim", DataTier.AOD, _with_value(_AOD, ("muons",), 3)),
    ("display", DataTier.LEVEL2,
     _without(_LEVEL2, ("particles", 0, "E"))),
    ("display", DataTier.LEVEL2,
     _with_value(_LEVEL2, ("display",), {"tracks": 5})),
], ids=["level2-met-int", "aod-muons-int-convert", "aod-muons-int-skim",
        "particle-without-E", "display-tracks-int"])
def test_damaged_record_exits_2_naming_path_and_line(
        command, tier, record, tmp_path, capsys):
    _assert_refused_at_line_3(command, tier, record, tmp_path, capsys,
                              "malformed")


@pytest.mark.parametrize("record", [
    _with_value(_AOD, ("muons", 0, "p4", 1), float("nan")),
    _with_value(_AOD, ("met", "phi"), float("inf")),
    _with_value(_AOD, ("jets", 0, "emf"), float("-inf")),
], ids=["p4-nan", "met-phi-inf", "jet-emf-minus-inf"])
def test_non_finite_aod_value_is_refused_at_decode(record, tmp_path,
                                                   capsys):
    # Decoded, it would reach the writer, which cannot encode it.
    _assert_refused_at_line_3("skim", DataTier.AOD, record, tmp_path,
                              capsys, "non-finite value")


def test_zero_energy_towers_render(tmp_path, capsys):
    # All towers at zero energy used to divide by log1p(0) in the SVG.
    record = _with_value(_LEVEL2, ("display", "towers", 0, "energy"), 0.0)
    target = tmp_path / "events.jsonl"
    write_dataset(target, "robust", DataTier.LEVEL2, [record])
    assert main(["display", "--input", str(target), "--event", "0",
                 "--svg", str(tmp_path / "out.svg")]) == 0, \
        capsys.readouterr().err
