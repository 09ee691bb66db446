"""The shared canonical JSON encoder: byte stability by construction."""

from __future__ import annotations

import json

import pytest

from repro.core.canonical import (
    canonical_document,
    canonical_json,
    canonical_text,
)
from repro.datamodel.io import DatasetWriter
from repro.datamodel.schema import DataTier
from repro.errors import PreservationError


class TestCanonicalJson:
    def test_key_insertion_order_is_erased(self):
        forward = canonical_json({"a": 1, "b": 2, "c": [3, 4]})
        backward = canonical_json({"c": [3, 4], "b": 2, "a": 1})
        assert forward == backward

    def test_compact_separators(self):
        assert canonical_json({"a": 1, "b": [2, 3]}) == (
            b'{"a":1,"b":[2,3]}')

    def test_nested_keys_are_sorted_too(self):
        payload = canonical_json({"outer": {"z": 1, "a": 2}})
        assert payload.index(b'"a"') < payload.index(b'"z"')

    def test_roundtrips_through_json(self):
        original = {"run": 7, "cuts": ["pt>25", "eta<2.5"]}
        assert json.loads(canonical_json(original)) == original


class TestCanonicalText:
    def test_sorted_and_indented(self):
        text = canonical_text({"b": 1, "a": 2})
        assert text == '{\n "a": 2,\n "b": 1\n}'

    def test_indent_none_gives_one_line(self):
        text = canonical_text({"b": 1, "a": 2}, indent=None)
        assert text == '{"a": 2, "b": 1}'
        assert "\n" not in text

    def test_document_is_text_plus_newline(self):
        payload = {"b": 1, "a": 2}
        assert canonical_document(payload) == (
            canonical_text(payload) + "\n").encode("utf-8")

    def test_document_honours_indent(self):
        assert canonical_document({"a": 1}, indent=2) == (
            b'{\n  "a": 1\n}\n')


class TestNonFiniteNumbers:
    """JSON has no NaN or Infinity: every encoder refuses them."""

    @pytest.mark.parametrize("encode", [canonical_json, canonical_text,
                                        canonical_document])
    @pytest.mark.parametrize("number", [float("nan"), float("inf"),
                                        float("-inf")])
    def test_refused_naming_where(self, encode, number):
        with pytest.raises(PreservationError,
                           match=r"\$\['muons'\]\[0\]\['p4'\]\[1\]"):
            encode({"run": 1, "muons": [{"p4": [1.0, number]}]})

    def test_circular_payload_is_still_a_value_error(self):
        payload = []
        payload.append(payload)
        with pytest.raises(ValueError, match="Circular"):
            canonical_json(payload)

    def test_dataset_writer_names_the_line_and_writes_nothing(
            self, tmp_path):
        path = tmp_path / "events.jsonl"
        writer = DatasetWriter(path, "muons", DataTier.AOD, validate=False)
        writer.write({"pt": 41.0})
        writer.write({"pt": float("nan")})
        with pytest.raises(PreservationError,
                           match=r"events\.jsonl:3: .*\$\['pt'\]"):
            writer.close()
        assert not path.exists()


class TestDatasetByteStability:
    def test_writer_output_ignores_record_key_order(self, tmp_path):
        """Replaying a write with reordered dicts gives identical bytes."""
        forward = [{"pt": 41.0, "eta": 0.5, "phi": 1.2},
                   {"pt": 38.5, "eta": -1.1, "phi": 0.3}]
        backward = [{key: record[key] for key in reversed(record)}
                    for record in forward]

        paths = []
        for name, records in (("fwd", forward), ("bwd", backward)):
            path = tmp_path / f"{name}.jsonl"
            writer = DatasetWriter(path, "muon_kinematics", DataTier.AOD,
                                   validate=False)
            for record in records:
                writer.write(record)
            writer.close()
            paths.append(path)

        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_written_lines_are_canonical(self, tmp_path):
        path = tmp_path / "events.jsonl"
        writer = DatasetWriter(path, "muon_kinematics", DataTier.AOD,
                               validate=False)
        writer.write({"pt": 41.0, "eta": 0.5})
        writer.close()

        lines = path.read_text(encoding="utf-8").splitlines()
        for line in lines:
            assert line.encode("utf-8") == canonical_json(
                json.loads(line))
