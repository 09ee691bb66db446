"""Smoke tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

Tiny runs of every workload must emit every metric ``BENCHMARK.json``
names, with its unit; damaged outputs must be counted as failures, not
raised; and the benchmark must refuse to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402
from perfbench.corpus import (  # noqa: E402
    FILES_PER_PACKAGE,
    N_PACKAGES,
    corpus_files,
)
from perfbench.layers import ENTRY_POINTS, LayerTracing  # noqa: E402
from perfbench.workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_cli(workload: str, trace: int, cwd: Path = ROOT,
            script: Path = ROOT / "perfbench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    process = run_cli(workload, trace)
    assert process.returncode == 0, process.stderr
    lines = process.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    record = json.loads(lines[-2])
    assert record["environment"]["cpu_count"] >= 1
    assert record["execution"]["policy"] == "serial"
    assert record["failed_frac"] == 0.0


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(TINY) == sorted(WORKLOADS)


def make(name: str, tmp_path: Path):
    return WORKLOADS[name](5, tmp_path, **TINY[name])


def test_damaged_archive_blob_is_counted_as_a_failure(tmp_path, monkeypatch):
    from repro.core.archive import PreservationArchive

    save = PreservationArchive.save

    def save_then_damage(self, directory):
        save(self, directory)
        blob = sorted((Path(directory) / "blobs").iterdir())[0]
        blob.write_bytes(blob.read_bytes() + b" ")

    monkeypatch.setattr(PreservationArchive, "save", save_then_damage)
    result, _ = bench.run_pass(make("chain_full", tmp_path), 0, traced=False)
    assert result.failed == 1
    assert any("fixity" in problem for problem in result.problems)


def test_mutated_event_log_is_counted_as_a_failure(tmp_path, monkeypatch):
    from repro.service import RecastService

    workload = make("service_mixed", tmp_path)
    reference, _ = bench.run_pass(workload, 0, traced=False)
    log = RecastService.event_log_bytes
    monkeypatch.setattr(
        RecastService, "event_log_bytes",
        lambda self: log(self).replace(b"cache_hit", b"cache_hat"))
    mutated, _ = bench.run_pass(workload, 0, traced=True)
    check = bench.compare(reference, mutated, "replay")
    assert check.failed == 1
    assert "event_log" in check.problems[0]


def test_traced_pass_telescopes_and_matches_untraced(tmp_path):
    workload = make("chain_full", tmp_path)
    untraced, _ = bench.run_pass(workload, 1, traced=False)
    traced, table = bench.run_pass(workload, 1, traced=True)
    assert table.telescopes() and table.total_us > 0
    assert table.items["reconstruction"] == untraced.units
    assert bench.compare(untraced, traced, "pair").failed == 0


def test_layer_tracing_puts_every_entry_point_back():
    import importlib

    from repro.obs import Tracer

    def current():
        found = []
        for _, module_name, attribute, _ in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            for part in attribute.split("."):
                owner = (owner.__dict__[part] if part in vars(owner)
                         else getattr(owner, part))
            found.append(owner)
        return found

    before = current()
    with LayerTracing(Tracer("t")):
        assert all(a is not b for a, b in zip(before, current()))
    assert all(a is b for a, b in zip(before, current()))


def test_corpus_is_fixed_size_and_seeded():
    files = corpus_files(7)
    assert len(files) == N_PACKAGES * FILES_PER_PACKAGE
    assert files == corpus_files(7)
    assert files != corpus_files(8)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = run_cli("chain_full", 0, cwd=tmp_path,
                      script=tmp_path / "perfbench" / "run.py")
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
