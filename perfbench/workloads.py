"""The three workloads: the paper's chain, the RECAST service, deep lint.

Each workload builds its inputs from the workload seed at set-up and
then runs *passes*. A pass is one unit of user-visible work on inputs
derived from ``(seed, pass index)``:

- ``chain_full`` — one re-run of the preserved analysis chain;
- ``service_mixed`` — one service lifetime of seeded submission rounds;
- ``lint_deep`` — one ``repro lint --deep --format json`` over the corpus.

:meth:`Workload.execute` is the timed part and returns the pass's raw
outputs; :meth:`Workload.check` (untimed) verifies them and reduces
them to digests, so a traced and an untraced pass over the same inputs
can be compared byte for byte. The program sees only the generated
inputs, through its public API.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.canonical import canonical_json

from perfbench.corpus import corpus_files, write_corpus


def digest(content: bytes) -> str:
    """Hex SHA-256 of a byte string."""
    return hashlib.sha256(content).hexdigest()


def percentile(values: list, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class PassResult:
    """What one checked pass contributes to a run."""

    #: Work done: AOD events, answers or linted files.
    units: int = 0
    seconds: float = 0.0
    #: Per-request latencies in ms, by request class.
    latencies_ms: dict = field(default_factory=dict)
    #: Output name -> digest of its canonical bytes.
    outputs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: Additive per-pass quantities the per-layer table reports.
    counts: dict = field(default_factory=dict)


class Workload:
    """One workload: set-up in ``__init__``, then passes."""

    name = ""
    #: Program modules the passes use; importing them is set-up.
    modules: tuple = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        for module in self.modules:
            importlib.import_module(module)

    def rng(self, index: int) -> random.Random:
        """The pass's private stream, derived from seed and index."""
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def execute(self, index: int):
        """Run pass ``index``; the timed part."""
        raise NotImplementedError

    def check(self, output, seconds: float) -> PassResult:
        """Verify one pass's outputs and reduce them to a result."""
        raise NotImplementedError

    def run_checks(self) -> PassResult:
        """Checks made once per run, outside any pass."""
        return PassResult()


# ----------------------------------------------------------------------
# chain_full
# ----------------------------------------------------------------------

@dataclass
class ChainOutput:
    aod_path: Path
    n_aod: int
    n_read: int
    selected: list
    rows: list
    rivet: dict
    limit: object
    archive: object
    loaded: object
    verified: dict
    archive_dir: Path


class ChainFull(Workload):
    """The paper's chain in order, on a fresh sample every pass.

    Multi-run campaign (generation → simulation → digitisation →
    reconstruction → AOD, across conditions IOV blocks), dataset write
    and read-back, skim and slim, RIVET over a GEN sample of the same
    size, a RECAST-style CLs limit on the skim's selected count, and
    archive store → save → load → verify.
    """

    name = "chain_full"
    modules = ("repro.conditions", "repro.core.archive",
               "repro.core.metadata", "repro.datamodel", "repro.detector",
               "repro.generation", "repro.rivet", "repro.stats.likelihood",
               "repro.stats.limits", "repro.workflow")

    def __init__(self, seed: int, workdir: Path, *, runs: int = 6,
                 events_per_run: int = 50, n_toys: int = 2000) -> None:
        super().__init__(seed, workdir)
        from repro.conditions import default_conditions
        from repro.datamodel import (
            AndCut,
            CountCut,
            MassWindowCut,
            SkimSpec,
            SlimSpec,
        )
        from repro.detector import generic_lhc_detector
        from repro.rivet.standard_analyses import standard_repository

        self.runs = runs
        self.events_per_run = events_per_run
        self.n_toys = n_toys
        self.geometry = generic_lhc_detector()
        self.conditions = default_conditions()
        self.skim = SkimSpec("dimuon", AndCut((
            CountCut("muons", 2, min_pt=15.0),
            MassWindowCut("muons", 60.0, 120.0, opposite_charge=True),
        )))
        self.slim = SlimSpec("zntuple", ("dimuon_mass", "met", "n_muons"))
        self.repository = standard_repository()

    def execute(self, index: int) -> ChainOutput:
        from repro.core.archive import PreservationArchive
        from repro.core.metadata import PreservationMetadata
        from repro.datamodel import (
            AODEvent,
            DataTier,
            DatasetReader,
            GoodRunList,
            RunRecord,
            RunRegistry,
            write_dataset,
        )
        from repro.generation import DrellYanZ, GeneratorConfig, ToyGenerator
        from repro.rivet import RivetRunner
        from repro.stats.likelihood import CountingExperiment
        from repro.stats.limits import cls_upper_limit
        from repro.workflow import ProcessingCampaign

        rng = self.rng(index)
        # Runs 7 apart from a seeded start cross the 10-run IOV blocks
        # of the default conditions (runs 1-100).
        first_run = 1 + rng.randrange(30)
        registry = RunRegistry("bench")
        good_runs = GoodRunList("GRL-bench")
        for run in range(self.runs):
            run_number = first_run + 7 * run
            registry.add(RunRecord(run_number, self.events_per_run, 0.5))
            good_runs.certify(run_number, 1, self.events_per_run)
        campaign = ProcessingCampaign(
            name=f"bench-{index}",
            geometry=self.geometry,
            conditions=self.conditions,
            global_tag="GT-FINAL",
            generator=ToyGenerator(GeneratorConfig(
                processes=[DrellYanZ(flavour="mu")],
                seed=rng.randrange(1, 2**31))),
            events_per_section=1.0,
            max_events_per_run=self.events_per_run,
            seed=rng.randrange(1, 2**31),
        )
        campaign.process(registry, good_runs)
        aods = campaign.all_aods()

        aod_path = self.workdir / "aod.jsonl"
        write_dataset(aod_path, campaign.name, DataTier.AOD,
                      (aod.to_dict() for aod in aods),
                      provenance={
                          "campaign": campaign.describe(),
                          "conditions": campaign.conditions_manifest(),
                      })
        read_back = [AODEvent.from_dict(record)
                     for record in DatasetReader(aod_path).records()]

        selected = self.skim.apply(read_back)
        rows = self.slim.apply(selected)

        gen_sample = list(ToyGenerator(GeneratorConfig(
            processes=[DrellYanZ(flavour="mu")],
            seed=rng.randrange(1, 2**31))).stream(len(aods)))
        rivet = RivetRunner(self.repository).run(
            self.repository.names(), gen_sample)

        limit = cls_upper_limit(CountingExperiment(
            n_observed=3, background=2.5, background_uncertainty=0.6,
            signal_efficiency=max(1, len(selected)) / max(1, len(read_back)),
            luminosity=20000.0,
        ), n_toys=self.n_toys, seed=rng.randrange(1, 2**31))

        archive = PreservationArchive(campaign.name)
        payloads = {
            "aod_dataset": {"events": [aod.to_dict() for aod in read_back]},
            "skim_spec": self.skim.to_dict(),
            "ntuple": {"rows": [row.to_dict() for row in rows]},
            "rivet_results": {name: result.to_dict()
                              for name, result in sorted(rivet.items())},
            "limit": _limit_dict(limit),
            "conditions_manifest": campaign.conditions_manifest(),
        }
        for kind, payload in payloads.items():
            archive.store(payload, kind, PreservationMetadata.build(
                title=f"{campaign.name} {kind}", creator="perfbench",
                experiment="GPD", created="2014-01-01",
                artifact_format="json", size_bytes=0, checksum="",
                producer="perfbench"))
        archive_dir = self.workdir / "archive"
        shutil.rmtree(archive_dir, ignore_errors=True)
        archive.save(archive_dir)
        loaded = PreservationArchive.load(archive_dir)
        verified = loaded.verify_all()
        return ChainOutput(aod_path=aod_path, n_aod=len(aods),
                           n_read=len(read_back), selected=selected,
                           rows=rows, rivet=rivet, limit=limit,
                           archive=archive, loaded=loaded,
                           verified=verified, archive_dir=archive_dir)

    def check(self, output: ChainOutput, seconds: float) -> PassResult:
        result = PassResult(units=output.n_aod, seconds=seconds,
                            latencies_ms={"pass": [seconds * 1000.0]},
                            attempted=1)
        if output.n_read != output.n_aod:
            result.problems.append(
                f"read back {output.n_read} of {output.n_aod} AOD events")
        if not output.verified or not all(output.verified.values()):
            bad = sorted(d[:12] for d, ok in output.verified.items()
                         if not ok)
            result.problems.append(f"archive fixity failed for {bad}")
        stored = [output.archive.entry(d).to_dict()
                  for d in output.archive.digests()]
        loaded = [output.loaded.entry(d).to_dict()
                  for d in output.loaded.digests()]
        if stored != loaded:
            result.problems.append("loaded archive catalogue differs")
        catalogue = output.archive_dir / "catalogue.json"
        result.outputs = {
            "aod_dataset": digest(output.aod_path.read_bytes()),
            "skim": digest(canonical_json(
                [event.to_dict() for event in output.selected])),
            "ntuple": digest(canonical_json(
                [row.to_dict() for row in output.rows])),
            "rivet": digest(canonical_json(
                {name: r.to_dict() for name, r in output.rivet.items()})),
            "limit": digest(canonical_json(_limit_dict(output.limit))),
            "archive_catalogue": digest(catalogue.read_bytes()),
        }
        result.counts = {
            "io_bytes": output.aod_path.stat().st_size,
            "archive_bytes": sum(
                path.stat().st_size
                for path in sorted(output.archive_dir.rglob("*"))
                if path.is_file()),
            "skim_in": output.n_read,
            "skim_out": len(output.selected),
        }
        shutil.rmtree(output.archive_dir)
        result.failed = 1 if result.problems else 0
        return result


def _limit_dict(limit) -> dict:
    return {
        "upper_limit": limit.upper_limit,
        "confidence_level": limit.confidence_level,
        "n_observed": limit.n_observed,
        "background": limit.background,
        "signal_efficiency": limit.signal_efficiency,
        "luminosity": limit.luminosity,
        "n_toys": limit.n_toys,
    }


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------

#: Tenants of the service and their fair-share weights.
TENANTS = tuple((f"tenant-{index}", 1.0 + index % 2) for index in range(6))
ANALYSIS_ID = "GPD-EXO-01"


@dataclass
class ServiceOutput:
    api: object
    service: object
    tickets: list
    latencies_ms: dict
    steps: int


class ServiceMixed(Workload):
    """An open loop in logical time against ``RecastService``.

    Each round submits a seeded burst from six tenants, then calls
    ``step()``. Every round introduces new mass points (one, or three
    every fourth round): back-end writes. A fifth of the other
    submissions ask for a point introduced this round, so they
    subscribe to its in-flight execution; the rest repeat one of the
    eight previous points and are answered from the result cache.
    """

    name = "service_mixed"
    modules = ("repro.recast", "repro.service")

    def __init__(self, seed: int, workdir: Path, *, rounds: int = 24,
                 burst: int = 40, n_events: int = 30,
                 n_limit_toys: int = 200) -> None:
        super().__init__(seed, workdir)
        self.rounds = rounds
        self.burst = burst
        self.n_events = n_events
        self.n_limit_toys = n_limit_toys

    def plan(self, index: int) -> list:
        """The pass's rounds: lists of ``(tenant, mass)`` submissions."""
        rng = self.rng(index)
        seen: list = []
        used = set()
        rounds = []
        for round_index in range(self.rounds):
            fresh = []
            for _ in range(3 if round_index % 4 == 3 else 1):
                mass = round(rng.uniform(900.0, 2900.0), 1)
                while mass in used:
                    mass = round(rng.uniform(900.0, 2900.0), 1)
                used.add(mass)
                fresh.append(mass)
            popular = seen[-8:]
            burst = [(rng.choice(TENANTS)[0], mass) for mass in fresh]
            while len(burst) < self.burst:
                pool = (fresh if not popular or rng.random() < 0.2
                        else popular)
                burst.append((rng.choice(TENANTS)[0], rng.choice(pool)))
            rng.shuffle(burst)
            rounds.append(burst)
            seen.extend(fresh)
        return rounds

    def execute(self, index: int) -> ServiceOutput:
        from repro.recast import ModelSpec
        from repro.service import (
            RecastService,
            ServiceConfig,
            TenantQuota,
            demo_api,
        )

        plan = self.plan(index)
        api = demo_api(n_events=self.n_events,
                       n_limit_toys=self.n_limit_toys)
        service = RecastService(api, ServiceConfig(max_inflight=2))
        for tenant, weight in TENANTS:
            service.register_tenant(tenant, TenantQuota(
                weight=weight, max_queued=64, max_inflight=2))
        tickets = []
        latencies = {"cached": [], "backend": []}
        pending: dict = {}
        steps = 0
        for burst in plan + [[]] * 64:
            if not burst and not service.pending_executions():
                break
            round_start = time.perf_counter()
            for tenant, mass in burst:
                model = ModelSpec(f"Zp-{mass:g}", "zprime",
                                  {"mass": mass, "cross_section_pb": 0.05})
                ticket = service.submit(tenant, ANALYSIS_ID, model)
                answered = time.perf_counter()
                tickets.append((ticket, model.name))
                if ticket.status == "cached":
                    latencies["cached"].append(
                        (answered - round_start) * 1000.0)
                elif ticket.status != "rejected":
                    pending[ticket.request_id] = round_start
            service.step()
            steps += 1
            stepped = time.perf_counter()
            for request_id in list(pending):
                request = api.get_request(request_id)
                if (request.result is not None
                        or request.status.value == "failed"):
                    latencies["backend"].append(
                        (stepped - pending.pop(request_id)) * 1000.0)
        return ServiceOutput(api=api, service=service, tickets=tickets,
                             latencies_ms=latencies, steps=steps)

    def check(self, output: ServiceOutput, seconds: float) -> PassResult:
        latencies = output.latencies_ms
        answers_by_model: dict = {}
        failures = 0
        problems = []
        for ticket, model_name in output.tickets:
            request = output.api.get_request(ticket.request_id)
            if ticket.status == "rejected" or request.result is None:
                failures += 1
                problems.append(f"{ticket.request_id} ({ticket.status}, "
                                f"{request.status.value}) not answered")
                continue
            answers_by_model.setdefault(model_name, set()).add(
                canonical_json(request.result.to_dict()))
        for model_name, answers in sorted(answers_by_model.items()):
            if len(answers) > 1:
                failures += 1
                problems.append(f"{len(answers)} different answers for "
                                f"{model_name}")
        log = output.service.event_log_bytes()
        counters: dict = {}
        for counter in output.service.metrics.snapshot()["counters"]:
            counters[counter["name"]] = (counters.get(counter["name"], 0)
                                         + counter["value"])
        answered = len(latencies["cached"]) + len(latencies["backend"])
        return PassResult(
            units=answered,
            seconds=seconds,
            latencies_ms=latencies,
            outputs={
                "event_log": digest(log),
                "answers": digest(canonical_json({
                    name: sorted(a.decode("utf-8") for a in answers)
                    for name, answers in answers_by_model.items()})),
            },
            attempted=len(output.tickets),
            failed=min(failures, len(output.tickets)),
            problems=problems,
            counts={
                "submissions": counters.get("service.submissions", 0),
                "backend_executions": counters.get("service.commits", 0),
                "cache_hits": counters.get("service.cache_hits", 0),
                "dedup_hits": counters.get("service.dedup_hits", 0),
                "rejections": counters.get("service.quota_rejections", 0),
                "steps": output.steps,
                "wait_ticks_p95": _wait_ticks_p95(output.service.events),
                "event_log_bytes": len(log),
            },
        )


def _wait_ticks_p95(events: list) -> float:
    """95th percentile of enqueue → first lease grant, in clock ticks."""
    enqueued = {}
    waits = []
    for event in events:
        if event["event"] == "enqueue":
            enqueued[event["key"]] = event["time"]
        elif event["event"] == "lease_grant" and event["key"] in enqueued:
            waits.append(event["time"] - enqueued.pop(event["key"]))
    return percentile(waits, 95.0) if waits else 0.0


# ----------------------------------------------------------------------
# lint_deep
# ----------------------------------------------------------------------

class LintDeep(Workload):
    """The passes of ``repro lint --deep --format json`` over a corpus.

    The corpus is a seeded synthetic tree written at set-up
    (:mod:`perfbench.corpus`), never ``src/repro`` itself, so two
    commits lint the same input.
    """

    name = "lint_deep"
    modules = ("repro.lint",)

    def __init__(self, seed: int, workdir: Path, *,
                 packages: int | None = None) -> None:
        super().__init__(seed, workdir)
        self.packages = packages
        self.root = self.workdir / "corpus"
        self.n_files = write_corpus(self.root, seed, packages=packages)

    def execute(self, index: int) -> str:
        import repro.lint as lint

        root = str(self.root)
        session = lint.LintSession(lint.LintConfig())
        session.extend(lint.lint_path(root))
        session.extend(lint.lint_tree_deep(root))
        session.extend(lint.lint_tree_par(root))
        session.extend(lint.lint_tree_det(root))
        return lint.render_json(session.report())

    def check(self, output: str, seconds: float) -> PassResult:
        report = json.loads(output)
        return PassResult(
            units=self.n_files, seconds=seconds,
            latencies_ms={"pass": [seconds * 1000.0]},
            outputs={"report": digest(output.encode("utf-8"))},
            attempted=1,
            counts={"files": self.n_files,
                    "findings": len(report["findings"])},
        )

    def run_checks(self) -> PassResult:
        """The corpus on disk is the seed's corpus, byte for byte."""
        expected = corpus_files(self.seed, packages=self.packages)
        on_disk = {
            path.relative_to(self.root).as_posix():
                path.read_text(encoding="utf-8")
            for path in sorted(self.root.rglob("*.py"))
        }
        result = PassResult(attempted=1)
        if on_disk != expected:
            result.failed = 1
            result.problems.append(
                "generated corpus differs from the seed's corpus")
        return result


WORKLOADS = {workload.name: workload
             for workload in (ChainFull, ServiceMixed, LintDeep)}

#: Keyword arguments that shrink each workload for smoke runs.
TINY = {
    "chain_full": {"runs": 2, "events_per_run": 6, "n_toys": 200},
    "service_mixed": {"rounds": 4, "burst": 8, "n_events": 6,
                      "n_limit_toys": 50},
    "lint_deep": {"packages": 1},
}
