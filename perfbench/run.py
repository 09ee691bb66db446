"""The repository benchmark: one workload, one run, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chain_full --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` times untraced passes and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes over the same
inputs and reports the per-layer self-time table. Every run compares a
traced and an untraced pass byte for byte. The last line of standard
output is the result object; the line before it is the full record
(host, execution policy, named metrics, problems).

The benchmark imports the program from ``src/`` next to this directory
and exits with code 2, printing no result, when that tree is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Fresh processes timed per run for ``setup_s``; the median counts.
SETUP_SAMPLES = 3

#: End-to-end metric -> unit, reported by untraced runs.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
}

#: Layer -> per-layer metric name, where it is not ``<layer>.self_s``.
_SELF_METRIC = {
    "datamodel.io.write": "datamodel.io.write_s",
    "datamodel.io.read": "datamodel.io.read_s",
    "core.archive.store": "core.archive.store_s",
    "core.archive.save": "core.archive.save_s",
    "core.archive.load": "core.archive.load_s",
    "core.archive.verify": "core.archive.verify_s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every pass (smoke tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put ``src/`` first on the path; fail unless the program is there."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SOURCE}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    import repro
    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        print(f"error: imported repro from {repro.__file__}, not from "
              f"{SOURCE}", file=sys.stderr)
        raise SystemExit(2)


def make_workload(args, workdir: Path):
    """Set-up: import the harness and the program, build the inputs."""
    import perfbench.layers  # noqa: F401
    from perfbench.workloads import TINY, WORKLOADS

    kwargs = TINY[args.workload] if args.size == "tiny" else {}
    return WORKLOADS[args.workload](args.seed, workdir, **kwargs)


def measure_setup(args, samples: int) -> list[float]:
    """Seconds from process start to ready, over fresh processes.

    Each child imports the program and builds the workload's inputs,
    reports the monotonic clock, and exits; the clock is system-wide,
    so the difference to its spawn time is its set-up time.
    """
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--trace", "0", "--size", args.size,
               "--setup-only"]
    times = []
    for _ in range(samples):
        spawned = time.monotonic()
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=120, cwd=ROOT, check=True)
        ready = json.loads(child.stdout.strip().splitlines()[-1])["ready"]
        times.append(ready - spawned)
    return times


def run_pass(workload, index: int, traced: bool):
    """One pass, optionally traced; returns ``(PassResult, LayerTable)``."""
    from repro.obs import Tracer

    from perfbench.layers import ROOT_SPAN, LayerTracing, fold
    from perfbench.workloads import PassResult

    tracer = Tracer(f"{workload.name}-{index}") if traced else None
    try:
        if traced:
            with LayerTracing(tracer), tracer.span(ROOT_SPAN):
                started = time.perf_counter()
                output = workload.execute(index)
                seconds = time.perf_counter() - started
        else:
            started = time.perf_counter()
            output = workload.execute(index)
            seconds = time.perf_counter() - started
        result = workload.check(output, seconds)
        table = fold(tracer.spans) if traced else None
    except Exception:
        # A pass that raises is one failed operation, not a crash.
        problem = traceback.format_exc()
        print(problem, file=sys.stderr)
        return PassResult(attempted=1, failed=1,
                          problems=[problem.strip().splitlines()[-1]]), None
    return result, table


def compare(reference, candidate, what: str):
    """A check that two passes over the same inputs output the same bytes."""
    from perfbench.workloads import PassResult

    check = PassResult(attempted=1)
    if not reference.outputs or reference.outputs != candidate.outputs:
        differing = sorted(
            name for name in set(reference.outputs) | set(candidate.outputs)
            if reference.outputs.get(name) != candidate.outputs.get(name))
        check.failed = 1
        check.problems.append(f"{what}: outputs differ: {differing}")
    return check


def measure(workload, seconds: float, trace: int) -> dict:
    """Timed passes of one run, plus its correctness checks.

    An untimed untraced warm-up pass over pass 0's inputs comes first.
    ``trace=0``: untraced passes until ``seconds`` have elapsed, then
    (after peak memory is read) a traced pass over pass 0's inputs,
    which must match the warm-up byte for byte. ``trace=1``: pairs of
    untraced and traced passes over the same inputs, alternating which
    runs first, until ``seconds`` have elapsed; every pair must match.
    """
    from perfbench.layers import LayerTable

    checks = [workload.run_checks()]
    timed, traced_results = [], []
    table = LayerTable()
    warm, _ = run_pass(workload, 0, traced=False)
    checks.append(warm)
    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < seconds:
        if trace == 0:
            timed.append(run_pass(workload, index, traced=False)[0])
        else:
            order = (False, True) if index % 2 == 0 else (True, False)
            pair = {traced: run_pass(workload, index, traced)
                    for traced in order}
            timed.append(pair[False][0])
            traced_results.append(pair[True][0])
            if pair[True][1] is not None:
                table.add(pair[True][1])
            checks.append(compare(pair[False][0], pair[True][0],
                                  f"pass {index} traced vs untraced"))
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace == 0:
        traced, _ = run_pass(workload, 0, traced=True)
        checks += [traced, compare(warm, traced, "pass 0 traced vs untraced")]
    return {"timed": timed, "traced": traced_results, "table": table,
            "checks": checks, "peak_rss_mb": peak_rss_mb}


def end_to_end(run: dict, setup_times: list[float]) -> dict:
    """The untraced metrics a user of the system sees.

    Throughput and latency are taken per pass, then from the fastest
    tenth of passes: on a shared host, interference from other tenants
    only ever adds time, and comes in phases that can cover most of a
    run, so the fastest passes repeat from run to run far better than
    the median pass does.
    """
    from perfbench.workloads import percentile

    timed = [result for result in run["timed"] if result.seconds > 0]
    throughputs = [result.units / result.seconds for result in timed]
    latencies = []
    for result in timed:
        requests = [value for values in result.latencies_ms.values()
                    for value in values]
        if requests:
            latencies.append(percentile(requests, 50.0))
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": run["peak_rss_mb"],
        "throughput_per_s": (percentile(throughputs, 90.0)
                             if throughputs else 0.0),
        "latency_p50_ms": percentile(latencies, 10.0) if latencies else 0.0,
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def named_metrics(workload_name: str, run: dict) -> dict:
    """The workload's own metrics under the names the docs use."""
    from perfbench.workloads import percentile

    timed = [result for result in run["timed"] if result.seconds > 0]
    units = sum(result.units for result in timed)
    seconds = sum(result.seconds for result in timed) or float("nan")
    named = {}
    if workload_name == "chain_full":
        named["chain_events_per_s"] = units / seconds
    elif workload_name == "service_mixed":
        named["service_answers_per_s"] = units / seconds
        for klass, quantiles in (("backend", (50, 90)),
                                 ("cached", (50, 99))):
            values = [v for result in timed
                      for v in result.latencies_ms.get(klass, ())]
            named[f"service_{klass}_answers"] = len(values)
            for q in quantiles:
                named[f"service_{klass}_latency_p{q}_ms"] = (
                    percentile(values, q) if values else None)
    elif workload_name == "lint_deep":
        named["lint_files_per_s"] = units / seconds
    return named


def per_layer(run: dict) -> dict:
    """The traced run's layer table: mean per traced pass."""
    from perfbench.layers import LAYERS

    table = run["table"]
    passes = max(1, table.passes)
    traced = run["traced"]
    counts: dict = {}
    for result in traced:
        for name, value in result.counts.items():
            counts[name] = counts.get(name, 0) + value

    def mean(name: str) -> float:
        return counts.get(name, 0) / max(1, len(traced))

    metrics = {}
    for layer in LAYERS:
        name = _SELF_METRIC.get(layer, f"{layer}.self_s")
        metrics[name] = (table.self_us.get(layer, 0) / 1e6 / passes, "s")
    metrics["traced_total_s"] = (table.total_us / 1e6 / passes, "s")
    metrics["reconstruction.events"] = (
        table.items.get("reconstruction", 0) / passes, "count")
    metrics["conditions.payload_calls"] = (
        table.calls.get("conditions", 0) / passes, "count")
    metrics["datamodel.io.bytes"] = (mean("io_bytes"), "bytes")
    metrics["core.archive.bytes"] = (mean("archive_bytes"), "bytes")
    metrics["datamodel.skimslim.pass_ratio"] = (
        counts.get("skim_out", 0) / counts["skim_in"]
        if counts.get("skim_in") else 0.0, "ratio")
    for name in ("submissions", "backend_executions", "cache_hits",
                 "dedup_hits", "rejections", "steps"):
        metrics[f"service.{name}"] = (mean(name), "count")
    metrics["service.shared_answer_ratio"] = (
        (counts.get("cache_hits", 0) + counts.get("dedup_hits", 0))
        / counts["submissions"] if counts.get("submissions") else 0.0,
        "ratio")
    metrics["service.wait_ticks_p95"] = (mean("wait_ticks_p95"), "ticks")
    metrics["service.event_log_bytes"] = (mean("event_log_bytes"), "bytes")
    metrics["lint.files"] = (mean("files"), "count")
    metrics["lint.findings"] = (mean("findings"), "count")
    untraced = [r.seconds for r in run["timed"] if r.seconds > 0]
    traced_s = [r.seconds for r in traced if r.seconds > 0]
    overhead = (100.0 * (statistics.median(traced_s)
                         / statistics.median(untraced) - 1.0)
                if untraced and traced_s else 0.0)
    metrics["trace_overhead_pct"] = (overhead, "%")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_only:
            make_workload(args, workdir)
            print(json.dumps({"ready": time.monotonic()}))
            return 0
        setup_times = [] if args.trace else measure_setup(
            args, 1 if args.size == "tiny" else SETUP_SAMPLES)
        workload = make_workload(args, workdir)
        run = measure(workload, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still holds its own work directory
    from repro.obs import capture_environment

    results = run["timed"] + run["traced"] + run["checks"]
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    metrics = (per_layer(run) if args.trace
               else end_to_end(run, setup_times))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": capture_environment(),
        "execution": {"processes": 1, "policy": "serial",
                      "note": "every pass runs in this one process "
                              "under the default serial policy"},
        "setup_s_samples": setup_times,
        "pass_seconds": [result.seconds for result in run["timed"]],
        "passes": {"timed": len(run["timed"]),
                   "traced": len(run["traced"])},
        "failed_frac": failed / attempted,
        "named": named_metrics(args.workload, run),
        "problems": [problem for result in results
                     for problem in result.problems],
        "metrics": metrics,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
