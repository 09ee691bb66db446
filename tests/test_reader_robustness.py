"""Damaged input to the JSON document readers is a typed error.

Every reader a user can hand a file to — run reports, health reports,
SLO specs, service submission scripts and preserved-analysis bundles —
must either load the document or raise a :class:`ReproError` subclass
that names the file, never a bare ``UnicodeDecodeError``,
``JSONDecodeError`` or ``AttributeError``; the CLI turns those into
exit code 2.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import PreservedAnalysisBundle
from repro.datamodel import CountCut, SkimSpec, SlimSpec
from repro.errors import PreservationError, ReproError
from repro.obs import (
    HealthReport,
    MetricsRegistry,
    RunReport,
    SLOSpec,
    TelemetryHub,
    Tracer,
    evaluate_slo,
)
from repro.runtime import LogicalClock
from repro.service import default_service_slo, demo_script, load_script


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


#: ``(reader, a valid document for it)`` for every reader under test.
READERS = {
    "run_report": (RunReport.load, _run_report),
    "health_report": (HealthReport.load, _health_report),
    "slo_spec": (SLOSpec.load, lambda: default_service_slo().to_dict()),
    "script": (load_script, demo_script),
    "bundle": (PreservedAnalysisBundle.load, _bundle),
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
