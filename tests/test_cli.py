"""End-to-end tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.datamodel import DataTier, DatasetReader


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with a generated GEN file and processed AOD file."""
    directory = tmp_path_factory.mktemp("cli")
    gen_path = directory / "gen.jsonl"
    aod_path = directory / "aod.jsonl"
    assert main(["generate", "--process", "z_to_mumu", "--events",
                 "30", "--seed", "9", "--output", str(gen_path)]) == 0
    assert main(["process", "--input", str(gen_path), "--output",
                 str(aod_path), "--run", "42"]) == 0
    return directory


class TestGenerateProcess:
    def test_gen_file_valid(self, workdir):
        reader = DatasetReader(workdir / "gen.jsonl")
        assert reader.header.tier == DataTier.GEN
        assert reader.header.n_events == 30
        assert reader.header.provenance["generator"] == "toygen"

    def test_aod_file_valid(self, workdir):
        reader = DatasetReader(workdir / "aod.jsonl")
        assert reader.header.tier == DataTier.AOD
        assert reader.header.n_events == 30
        externals = reader.header.provenance["externals"]
        assert externals["runs"] == [42]

    def test_process_rejects_wrong_tier(self, workdir, capsys):
        code = main(["process", "--input",
                     str(workdir / "aod.jsonl"), "--output",
                     str(workdir / "nope.jsonl")])
        assert code == 2
        assert "expected GEN" in capsys.readouterr().err


class TestSkimConvertDisplay:
    @pytest.fixture(scope="class")
    def level2_path(self, workdir):
        spec_path = workdir / "skim.json"
        spec_path.write_text(json.dumps({
            "name": "dimuon",
            "cut": {"kind": "count", "collection": "muons",
                    "min_count": 2, "min_pt": 10.0},
        }))
        skim_path = workdir / "skimmed.jsonl"
        assert main(["skim", "--input", str(workdir / "aod.jsonl"),
                     "--spec", str(spec_path), "--output",
                     str(skim_path)]) == 0
        level2_path = workdir / "l2.jsonl"
        assert main(["convert-level2", "--input", str(skim_path),
                     "--output", str(level2_path)]) == 0
        return level2_path

    def test_skim_reduces_events(self, workdir, level2_path):
        full = DatasetReader(workdir / "aod.jsonl").header.n_events
        skimmed = DatasetReader(workdir / "skimmed.jsonl")
        assert 0 < skimmed.header.n_events <= full
        assert skimmed.header.provenance["skim"]["name"] == "dimuon"

    def test_level2_file_valid(self, level2_path):
        reader = DatasetReader(level2_path)
        assert reader.header.tier == DataTier.LEVEL2

    def test_ascii_display(self, level2_path, capsys):
        assert main(["display", "--input", str(level2_path),
                     "--event", "0"]) == 0
        output = capsys.readouterr().out
        assert "MET" in output

    def test_svg_display(self, level2_path, workdir):
        svg_path = workdir / "event.svg"
        assert main(["display", "--input", str(level2_path),
                     "--event", "0", "--svg", str(svg_path)]) == 0
        content = svg_path.read_text()
        assert content.startswith("<svg")
        assert "</svg>" in content

    def test_display_index_out_of_range(self, level2_path, capsys):
        assert main(["display", "--input", str(level2_path),
                     "--event", "9999"]) == 2
        assert "out of range" in capsys.readouterr().err


class TestValidateBundle:
    def test_pass_and_fail_exit_codes(self, workdir, z_aods):
        from repro.core import PreservedAnalysisBundle
        from repro.datamodel import CountCut, SkimSpec, SlimSpec

        bundle = PreservedAnalysisBundle.create(
            "cli-bundle", z_aods[:30],
            SkimSpec("s", CountCut("muons", 1)),
            SlimSpec("n", ("met",)),
        )
        good_path = workdir / "bundle.json"
        good_path.write_text(json.dumps(bundle.to_dict()))
        assert main(["validate-bundle", "--bundle",
                     str(good_path)]) == 0

        record = bundle.to_dict()
        record["expected_rows"] = record["expected_rows"][:-1]
        bad_path = workdir / "bad_bundle.json"
        bad_path.write_text(json.dumps(record))
        assert main(["validate-bundle", "--bundle",
                     str(bad_path)]) == 1


class TestReports:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "iSpy" in capsys.readouterr().out

    def test_maturity(self, capsys):
        assert main(["maturity"]) == 0
        assert "Preservation" in capsys.readouterr().out

    def test_interview(self, capsys):
        assert main(["interview", "--experiment", "CMS"]) == 0
        assert "Data Sharing Grid" in capsys.readouterr().out

    def test_interview_unknown_experiment(self, capsys):
        assert main(["interview", "--experiment", "UA1"]) == 2
        assert "error" in capsys.readouterr().err


#: Every CLI option that names an output file, with the rest of a
#: command line that gets as far as writing it. ``{work}`` is the
#: module's work directory, ``{out}`` the unwritable target.
_OUTPUT_OPTIONS = {
    "generate --output": "generate --events 3 --output {out}",
    "generate --trace-out": ("generate --events 3 --output "
                             "{work}/traced.jsonl --trace-out {out}"),
    "closure --output": "closure {closure_target} --output {out}",
    "display --svg": "display --input {work}/l2.jsonl --svg {out}",
    "profile --collapsed": "profile {work}/report.json --collapsed {out}",
    "campaign --manifest": ("campaign --runs 1 --sections 2 --output "
                            "{work}/camp.jsonl --manifest {out}"),
    "serve --write-script": "serve --write-script {out}",
    "serve --event-log": "serve --events 3 --toys 10 --event-log {out}",
    "serve --telemetry-out": ("serve --events 3 --toys 10 "
                              "--telemetry-out {out}"),
    "serve --health-out": "serve --events 3 --toys 10 --health-out {out}",
}


class TestOutputErrors:
    """An output file that cannot be written is a clean exit 2."""

    @pytest.fixture(scope="class")
    def inputs(self, workdir):
        assert main(["convert-level2", "--input",
                     str(workdir / "aod.jsonl"), "--output",
                     str(workdir / "l2.jsonl")]) == 0
        assert main(["generate", "--events", "3", "--output",
                     str(workdir / "traced-gen.jsonl"), "--trace-out",
                     str(workdir / "report.json")]) == 0
        return workdir

    @pytest.mark.parametrize("option", sorted(_OUTPUT_OPTIONS))
    def test_exit_2_naming_the_path(self, option, inputs, tmp_path,
                                    capsys):
        from repro.rivet import standard_analyses

        out = tmp_path / "missing" / "out.json"
        argv = _OUTPUT_OPTIONS[option].format(
            work=inputs, out=out,
            closure_target=standard_analyses.__file__).split()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert "Traceback" not in err
        assert not out.parent.exists()
