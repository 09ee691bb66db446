"""Crash-injection oracle for the one artifact writer.

Every file the library writes goes through
:func:`repro.core.canonical.write_atomic`: the bytes go to a temporary
file, which ``os.replace`` renames onto the target. For each writer and
every k, the k-th low-level step of a re-write (a temporary-file write
or an ``os.replace``) is made to fail. A *crash* stands in for the
process dying: it is a ``BaseException`` no ``except OSError`` sees, and
a crashing write leaves half its bytes in the temporary file. After
each crash:

- every target holds exactly its old bytes or exactly its new bytes;
- the writer's own reader loads the old version or the new one;
- ``repro lint``'s discovery of archives and JSON documents reads no
  temporary file;
- the next save writes exactly the new bytes.

A failing step that is an ``OSError`` instead (a full disk) raises
:class:`PersistenceError` naming the target and leaves no temporary
file behind.
"""

from __future__ import annotations

import contextlib
import errno
import io
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.cli import main
from repro.conditions import default_conditions, export_snapshot, load_snapshot
from repro.core import AnalysisDatabase, PreservationArchive, PreservationMetadata
from repro.core.canonical import canonical_json, write_atomic
from repro.datamodel import DataTier, DatasetReader, DatasetWriter
from repro.datamodel.luminosity import GoodRunList, RunRecord, RunRegistry
from repro.detector import generic_lhc_detector
from repro.errors import PersistenceError
from repro.hepdata import HepDataArchive, HepDataRecord
from repro.lint import lint_path
from repro.obs import HealthReport, RunReport
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import Objective, SLOSpec, evaluate_slo
from repro.obs.telemetry import TelemetryHub, WindowSpec
from repro.obs.trace import Tracer
from repro.outreach.format import Level2Event, SimplifiedParticle
from repro.outreach.web import write_portal_html
from repro.provenance import ProvenanceCapture
from repro.rivet import ReferenceData, write_plot_files
from repro.rivet.runner import AnalysisResult
from repro.runtime import LogicalClock
from repro.stats.histogram import Histogram1D
from tests.test_core_describe_analysisdb import _description


class Crash(BaseException):
    """The process dying mid-write: no ``except OSError`` sees it."""


class _Faults:
    """Fail the k-th call of ``Path.write_bytes`` or ``os.replace``."""

    def __init__(self, monkeypatch, k: int, crash: bool) -> None:
        self.k = k
        self.crash = crash
        self.calls = 0
        self.fired = False
        real_write = Path.write_bytes
        real_replace = os.replace

        def write_bytes(path, data):
            if self._due():
                if self.crash:
                    real_write(path, data[:len(data) // 2])
                    raise Crash
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(path, data)

        def replace(source, target):
            if self._due():
                if self.crash:
                    raise Crash
                raise OSError(errno.EIO, "Input/output error")
            return real_replace(source, target)

        monkeypatch.setattr(Path, "write_bytes", write_bytes)
        monkeypatch.setattr(os, "replace", replace)

    def _due(self) -> bool:
        self.calls += 1
        if self.calls == self.k:
            self.fired = True
            return True
        return False


@dataclass(frozen=True)
class Writer:
    """One artifact writer: ``write(directory, version)`` writes the
    old (0) or new (1) version; ``read(directory)`` loads each of its
    files back through the format's own reader as comparable bytes."""

    name: str
    write: Callable[[Path, int], None]
    read: Callable[[Path], list[bytes]]


# ----------------------------------------------------------------------
# The writers
# ----------------------------------------------------------------------

def _write_dataset(directory, version):
    with DatasetWriter(directory / "events.jsonl", "muons", DataTier.AOD,
                       validate=False) as writer:
        writer.write_all({"pt": 40.0 + n} for n in range(2 + version))


def _read_dataset(directory):
    reader = DatasetReader(directory / "events.jsonl")
    return [canonical_json([reader.header.to_dict(), reader.read_all()])]


def _metadata(title):
    return PreservationMetadata.build(
        title=title, creator="curator", experiment="GPD",
        created="2013-03-21", artifact_format="json", size_bytes=0,
        checksum="", producer="test", access_policy="public",
    )


def _archive(version):
    archive = PreservationArchive(name="crash")
    for n in range(2 + 2 * version):
        archive.store({"payload": n}, "hepdata_record",
                      _metadata(f"item {n}"))
    return archive


def _write_archive(directory, version):
    _archive(version).save(directory / "archive")


def _read_archive(directory):
    archive = PreservationArchive.load(directory / "archive")
    return [canonical_json([[digest, archive.retrieve(digest)]
                            for digest in archive.digests()])]


def _write_snapshot(directory, version):
    export_snapshot(default_conditions(), "GT-FINAL", 1, 10 + 20 * version,
                    path=directory / "snapshot.json")


def _read_snapshot(directory):
    snapshot = load_snapshot(directory / "snapshot.json")
    return [canonical_json(snapshot.to_dict())]


def _write_grl(directory, version):
    grl = GoodRunList(name="grl")
    for run in range(9, 11 + version):
        grl.certify(run, 1, 10)
    grl.save(directory / "grl.json")


def _read_grl(directory):
    grl = GoodRunList.load(directory / "grl.json")
    return [canonical_json(grl.to_dict())]


def _histogram(version, name="mass"):
    histogram = Histogram1D(name, 4, 0.0, 4.0)
    for value in (0.5, 1.5, 1.5, 2.5 + version):
        histogram.fill(value)
    return histogram


def _reference(version):
    reference = ReferenceData("TOY_2013_I0001", source="pseudo-data")
    reference.add("mass", _histogram(version))
    reference.add("pt", _histogram(version, "pt"))
    return reference


def _write_reference(directory, version):
    _reference(version).save(directory / "reference.json")


def _read_reference(directory):
    reference = ReferenceData.load(directory / "reference.json")
    return [canonical_json(reference.to_dict())]


def _write_plots(directory, version):
    result = AnalysisResult("TOY_2013_I0001", n_events=4,
                            sum_of_weights=4.0,
                            histograms={"mass": _histogram(1 - version),
                                        "pt": _histogram(0, "pt")})
    write_plot_files(result, _reference(version), directory / "plots")


def _read_plots(directory):
    return [path.read_bytes()
            for path in sorted((directory / "plots").glob("*.dat"))]


def _write_analysis_db(directory, version):
    database = AnalysisDatabase("crash")
    database.add(_description())
    if version:
        database.add(_description(analysis_id="FWD-CHARM-01",
                                  experiment="FWD"))
    database.save(directory / "analyses.json")


def _read_analysis_db(directory):
    database = AnalysisDatabase.load(directory / "analyses.json")
    return [canonical_json([database.get(analysis_id).to_dict()
                            for analysis_id in database.analysis_ids()])]


def _hepdata_record(version):
    return HepDataRecord(record_id="ins0001", title="Z pt",
                         experiment="GPD", inspire_id="I1001",
                         keywords=("Z",), version=version)


def _write_hepdata(directory, version):
    archive = HepDataArchive()
    for number in range(1, version + 2):
        archive.submit(_hepdata_record(number))
    archive.save(directory / "hepdata.json")


def _read_hepdata(directory):
    archive = HepDataArchive.load(directory / "hepdata.json")
    return [canonical_json(archive.n_versions("ins0001"))]


def _write_provenance(directory, version):
    capture = ProvenanceCapture()
    for n in range(1 + version):
        capture.report(f"raw-{n}", "dataset", "RAW")
    capture.export(directory / "provenance.json")


def _read_provenance(directory):
    capture = ProvenanceCapture.load(directory / "provenance.json")
    return [canonical_json(capture.graph.to_dict())]


def _write_portal(directory, version):
    events = [Level2Event(1, n, 8.0, particles=[
        SimplifiedParticle("muon", 20.0 + n, 5.0, 0.0, 0.0, 1)])
        for n in range(1 + version)]
    write_portal_html(directory / "portal.html", events,
                      generic_lhc_detector())


def _read_portal(directory):
    return [(directory / "portal.html").read_bytes()]


def _write_run_report(directory, version):
    tracer = Tracer("crash")
    with tracer.span("campaign.sweep"):
        pass
    RunReport.build(tracer, MetricsRegistry(), deterministic=True,
                    provenance={"version": version},
                    ).save(directory / "report.json")


def _read_run_report(directory):
    return [RunReport.load(directory / "report.json").to_json_bytes()]


def _write_health_report(directory, version):
    clock = LogicalClock()
    hub = TelemetryHub(clock, spec=WindowSpec(width=4.0))
    hub.observe("wait", 3.0, tenant="a")
    clock.advance(4.0)
    hub.flush(final=True)
    spec = SLOSpec(name="crash", objectives=(Objective(
        name="latency", kind="quantile_ceiling", series="wait",
        quantile=0.95, threshold=1.0 + 4.0 * version),))
    evaluate_slo(spec, hub.snapshot(deterministic=True)).save(
        directory / "health.json")


def _read_health_report(directory):
    return [HealthReport.load(directory / "health.json").to_json_bytes()]


def _cli_writer(name, command, outputs):
    """CLI outputs: version 0 is an unrelated older file in each of
    ``outputs``, version 1 what ``command`` writes there. A run that
    exits 2 raises its ``error:`` line as a :class:`PersistenceError`."""
    def write(directory, version):
        if version == 0:
            for output in outputs:
                (directory / output).write_bytes(b"an older file\n")
            return
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(command.format(directory=directory).split())
        if code == 2:
            raise PersistenceError(stderr.getvalue())
        assert code == 0

    def read(directory):
        return [(directory / output).read_bytes() for output in outputs]
    return Writer(name, write, read)


WRITERS = [
    Writer("dataset", _write_dataset, _read_dataset),
    Writer("archive", _write_archive, _read_archive),
    Writer("conditions-snapshot", _write_snapshot, _read_snapshot),
    Writer("good-run-list", _write_grl, _read_grl),
    Writer("reference-data", _write_reference, _read_reference),
    Writer("plot-files", _write_plots, _read_plots),
    Writer("analysis-database", _write_analysis_db, _read_analysis_db),
    Writer("hepdata-archive", _write_hepdata, _read_hepdata),
    Writer("provenance-export", _write_provenance, _read_provenance),
    Writer("portal-page", _write_portal, _read_portal),
    Writer("run-report", _write_run_report, _read_run_report),
    Writer("health-report", _write_health_report, _read_health_report),
    _cli_writer("cli-campaign-manifest",
                "campaign --runs 1 --sections 2 --output "
                "{directory}/aod.jsonl --manifest {directory}/manifest.json",
                ("aod.jsonl", "manifest.json")),
    _cli_writer("cli-serve-script",
                "serve --write-script {directory}/script.json",
                ("script.json",)),
]


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------

def _files(directory: Path) -> dict[str, bytes]:
    """Relative path -> bytes of every finished (non-temporary) file."""
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*"))
            if path.is_file() and not path.name.endswith(".tmp")}


def _temporaries(directory: Path) -> list[Path]:
    return sorted(path for path in directory.rglob("*")
                  if path.name.endswith(".tmp"))


def _versions(writer: Writer, tmp_path: Path):
    """``(files, read)`` of the old and of the new version, each
    written into a fresh directory."""
    versions = []
    for version in (0, 1):
        directory = tmp_path / f"version-{version}"
        directory.mkdir()
        writer.write(directory, version)
        versions.append((_files(directory), writer.read(directory)))
    assert versions[0] != versions[1]
    return versions


def _assert_old_or_new(writer, directory, old, new):
    files = _files(directory)
    for name in sorted(set(old[0]) | set(new[0]) | set(files)):
        assert files.get(name) in (old[0].get(name), new[0].get(name)), (
            f"{name} is torn")
    read = writer.read(directory)
    assert len(read) == len(old[1]) == len(new[1])
    for got, before, after in zip(read, old[1], new[1]):
        assert got in (before, after)


def _assert_lint_reads_no_temporary(directory):
    for finding in lint_path(directory):
        if finding.file.endswith(".tmp"):
            # A crash's debris in blobs/ is an uncatalogued file, which
            # is what the orphan-blob rule is for; nothing else may
            # even look at a temporary file.
            assert finding.code == "DAS109", finding
        assert finding.code != "DAS108", finding


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.name)
def test_a_crash_at_any_step_leaves_the_old_or_the_new_file(
        writer, tmp_path, monkeypatch):
    old, new = _versions(writer, tmp_path)
    for k in itertools.count(1):
        directory = tmp_path / f"crash-{k}"
        directory.mkdir()
        writer.write(directory, 0)
        with monkeypatch.context() as patch:
            faults = _Faults(patch, k, crash=True)
            try:
                writer.write(directory, 1)
            except Crash:
                pass
        _assert_old_or_new(writer, directory, old, new)
        _assert_lint_reads_no_temporary(directory)
        if not faults.fired:
            assert _files(directory) == new[0]
            assert not _temporaries(directory)
            break
        assert _temporaries(directory), "a crash leaves its debris"
        # The next save neither reads nor trips over that debris.
        writer.write(directory, 1)
        assert _files(directory) == new[0]
        assert writer.read(directory) == new[1]
    assert k > 2, "the write took fewer than two low-level steps"


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.name)
def test_a_failed_step_raises_and_leaves_no_temporary(
        writer, tmp_path, monkeypatch):
    old, new = _versions(writer, tmp_path)
    for k in itertools.count(1):
        directory = tmp_path / f"fail-{k}"
        directory.mkdir()
        writer.write(directory, 0)
        with monkeypatch.context() as patch:
            faults = _Faults(patch, k, crash=False)
            try:
                writer.write(directory, 1)
            except PersistenceError as exc:
                assert faults.fired
                assert str(directory) in str(exc)
        _assert_old_or_new(writer, directory, old, new)
        assert not _temporaries(directory)
        if not faults.fired:
            break


def test_a_crash_while_resaving_an_archive_leaves_it_loadable(
        tmp_path, monkeypatch):
    """A blob write dying part-way through a re-save leaves the archive
    as it was: the catalogue is written last, so the one in force names
    only blobs that are whole."""
    directory = tmp_path / "archive"
    _archive(0).save(directory)
    before = PreservationArchive.load(directory).digests()
    real_write = Path.write_bytes

    def write_bytes(path, data):
        if path.parent.name == "blobs":
            real_write(path, data[:len(data) // 2])
            raise Crash
        return real_write(path, data)

    monkeypatch.setattr(Path, "write_bytes", write_bytes)
    with pytest.raises(Crash):
        _archive(1).save(directory)
    monkeypatch.undo()
    assert PreservationArchive.load(directory).digests() == before
    assert not [finding for finding in lint_path(directory)
                if finding.code == "DAS108"]


class TestWriteAtomic:
    def test_replaces_the_target_and_leaves_nothing_else(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_bytes(b"old")
        write_atomic(target, b"new", "document")
        assert target.read_bytes() == b"new"
        assert sorted(tmp_path.iterdir()) == [target]

    def test_a_missing_directory_names_what_and_where(self, tmp_path):
        target = tmp_path / "missing" / "doc.json"
        with pytest.raises(PersistenceError,
                           match=r"cannot write document .*doc\.json"):
            write_atomic(target, b"new", "document")

    def test_a_directory_target_is_refused_and_cleaned_up(self, tmp_path):
        target = tmp_path / "directory"
        target.mkdir()
        with pytest.raises(PersistenceError, match="cannot write document"):
            write_atomic(target, b"new", "document")
        assert sorted(tmp_path.iterdir()) == [target]

    def test_the_temporary_name_is_hidden_and_ends_in_tmp(
            self, tmp_path, monkeypatch):
        seen = []
        real_replace = os.replace

        def replace(source, target):
            seen.append(Path(source).name)
            return real_replace(source, target)

        monkeypatch.setattr(os, "replace", replace)
        write_atomic(tmp_path / "catalogue.json", b"{}\n", "catalogue")
        assert len(seen) == 1
        assert seen[0].startswith(".catalogue.json.")
        assert seen[0].endswith(".tmp")


class TestOldLayout:
    """Six formats changed layout: keys are now sorted and one LF ends
    the file. Each reader still loads a file written the old way, with
    ``json.dump`` in insertion order and no trailing newline."""

    @staticmethod
    def _old_file(path, payload, indent=1):
        with path.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=indent)
        return path

    @staticmethod
    def _saved(save, path):
        save(path)
        assert path.read_bytes().endswith(b"}\n")
        return path

    def test_conditions_snapshot(self, tmp_path):
        snapshot = export_snapshot(default_conditions(), "GT-FINAL", 1, 30)
        old = self._old_file(tmp_path / "old.json", snapshot.to_dict())
        new = export_snapshot(default_conditions(), "GT-FINAL", 1, 30,
                              path=tmp_path / "new.json")
        assert (load_snapshot(old).to_dict() == snapshot.to_dict()
                == load_snapshot(tmp_path / "new.json").to_dict()
                == new.to_dict())

    def test_good_run_list(self, tmp_path):
        grl = GoodRunList(name="grl")
        for run in (9, 10, 11):
            grl.certify(run, 1, 10)
        old = self._old_file(tmp_path / "old.json", grl.to_dict())
        new = self._saved(grl.save, tmp_path / "new.json")
        # The sorted file lists run "10" before run "9"; the luminosity
        # of the reloaded list must still be summed in run order.
        registry = RunRegistry()
        for run, lumi in ((9, 1e15), (10, 0.1), (11, 0.1)):
            registry.add(RunRecord(run, 10, lumi))
        for path in (old, new):
            loaded = GoodRunList.load(path)
            assert loaded.to_dict() == grl.to_dict()
            assert (loaded.certified_luminosity_ipb(registry)
                    == grl.certified_luminosity_ipb(registry))

    def test_reference_data(self, tmp_path):
        reference = _reference(1)
        old = self._old_file(tmp_path / "old.json", reference.to_dict())
        new = self._saved(reference.save, tmp_path / "new.json")
        for path in (old, new):
            assert (ReferenceData.load(path).to_dict()
                    == reference.to_dict())

    def test_analysis_database(self, tmp_path):
        database = AnalysisDatabase("db")
        database.add(_description())
        database.add(_description(analysis_id="FWD-CHARM-01",
                                  experiment="FWD"))
        old = self._old_file(tmp_path / "old.json", {
            "format": "repro-analysis-database",
            "name": database.name,
            "analyses": [database.get(analysis_id).to_dict()
                         for analysis_id in database.analysis_ids()],
        })
        new = self._saved(database.save, tmp_path / "new.json")
        for path in (old, new):
            loaded = AnalysisDatabase.load(path)
            assert loaded.name == "db"
            assert [loaded.get(analysis_id).to_dict()
                    for analysis_id in loaded.analysis_ids()] == [
                database.get(analysis_id).to_dict()
                for analysis_id in database.analysis_ids()]

    def test_hepdata_archive(self, tmp_path):
        archive = HepDataArchive(name="hd")
        archive.submit(_hepdata_record(1))
        archive.submit(_hepdata_record(2))
        old = self._old_file(tmp_path / "old.json", {
            "format": "repro-hepdata-archive",
            "name": archive.name,
            "records": {"ins0001": [archive.get("ins0001", version).to_dict()
                                    for version in (1, 2)]},
        }, indent=None)
        new = self._saved(archive.save, tmp_path / "new.json")
        for path in (old, new):
            loaded = HepDataArchive.load(path)
            assert [loaded.get("ins0001", version).to_dict()
                    for version in (1, 2)] == [
                archive.get("ins0001", version).to_dict()
                for version in (1, 2)]

    def test_provenance_export(self, tmp_path):
        capture = ProvenanceCapture()
        capture.report("raw", "dataset", "RAW")
        capture.report("aod", "dataset", "AOD", parents=("raw",))
        old = self._old_file(tmp_path / "old.json", capture.graph.to_dict())
        new = self._saved(capture.export, tmp_path / "new.json")
        for path in (old, new):
            loaded = ProvenanceCapture.load(path)
            assert loaded.graph.to_dict() == capture.graph.to_dict()
