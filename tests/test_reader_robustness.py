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
