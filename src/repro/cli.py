"""Command-line interface: the library as a preservation tool.

Subcommands cover the day-to-day verbs of the paper's personas:

- ``generate`` / ``process`` — produce GEN and AOD datasets as
  self-documenting JSON-lines files;
- ``skim`` — apply a declarative skim spec (a JSON file) to an AOD file;
- ``convert-level2`` — the thin outreach converter;
- ``display`` — ASCII (or SVG) event display of a Level-2 file;
- ``validate-bundle`` — re-validate a preserved-analysis bundle;
- ``interview`` / ``table1`` / ``maturity`` — the curator reports.

Invoke as ``python -m repro.cli <command> ...`` or via the ``repro``
console script. Every subcommand takes ``--trace-out PATH``: ``main()``
then hands the handler a tracer and metrics registry and, once it
returns, writes the run report (see ``repro.obs.report``).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from repro.core.canonical import canonical_document, write_atomic
from repro.errors import ReproError


class _Run:
    """What ``main()`` hands every handler: the tracer and metrics
    registry for the library (both ``None`` without --trace-out) and
    the provenance the run report records.
    """

    def __init__(self, command: str, traced: bool) -> None:
        self.provenance = {"command": command}
        self.tracer = self.metrics = None
        if traced:
            from repro.obs import MetricsRegistry, Tracer

            # The trace id is derived from the command name alone, so
            # span ids -- and with --trace-deterministic the whole
            # report -- reproduce across invocations.
            self.tracer = Tracer(f"repro-{command}")
            self.metrics = MetricsRegistry()

    def record(self, **provenance) -> None:
        """State the handler's provenance for the run report."""
        self.provenance.update(provenance)

    def save(self, path: str, deterministic: bool) -> None:
        """Assemble the run report and write it to ``path``."""
        from repro.obs import RunReport

        report = RunReport.build(self.tracer, self.metrics,
                                 deterministic=deterministic,
                                 provenance=self.provenance)
        report.save(path)
        # Status goes to stderr: stdout may be the JSON document.
        print(f"wrote run report ({report.n_spans} spans) to {path}",
              file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DASPOS reference implementation command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate",
                              help="generate truth events to a GEN file")
    generate.add_argument("--process", default="z_to_mumu",
                          choices=("z_to_mumu", "z_to_ee", "w_to_munu",
                                   "higgs_4l", "qcd_dijets", "d0_to_kpi",
                                   "jpsi", "minbias"))
    generate.add_argument("--events", type=int, default=100)
    generate.add_argument("--seed", type=int, default=2013)
    generate.add_argument("--output", required=True)

    process = sub.add_parser(
        "process",
        help="run sim+digi+reco+AOD over a GEN file, write an AOD file",
    )
    process.add_argument("--input", required=True)
    process.add_argument("--output", required=True)
    process.add_argument("--run", type=int, default=1)
    process.add_argument("--global-tag", default="GT-FINAL")
    process.add_argument("--geometry", default="GPD",
                         choices=("GPD", "FWD"))
    process.add_argument("--seed", type=int, default=99)
    process.add_argument("--jobs", type=int, default=1,
                         help="worker processes for reconstruction "
                              "(default 1 = serial; -1 = all CPUs)")

    campaign = sub.add_parser(
        "campaign",
        help="process a multi-run campaign to an AOD file",
    )
    campaign.add_argument("--name", default="campaign")
    campaign.add_argument("--process", dest="physics_process",
                          default="z_to_mumu",
                          choices=("z_to_mumu", "z_to_ee", "w_to_munu",
                                   "higgs_4l", "qcd_dijets", "d0_to_kpi",
                                   "jpsi", "minbias"))
    campaign.add_argument("--first-run", type=int, default=1)
    campaign.add_argument("--runs", type=int, default=8,
                          help="number of runs in the range")
    campaign.add_argument("--run-step", type=int, default=5,
                          help="run-number spacing (crosses the 10-run "
                               "IOV blocks of the default conditions)")
    campaign.add_argument("--sections", type=int, default=40,
                          help="certified lumi sections per run")
    campaign.add_argument("--events-per-section", type=float, default=0.2)
    campaign.add_argument("--max-events-per-run", type=int, default=50)
    campaign.add_argument("--global-tag", default="GT-FINAL")
    campaign.add_argument("--geometry", default="GPD",
                          choices=("GPD", "FWD"))
    campaign.add_argument("--seed", type=int, default=6000)
    campaign.add_argument("--jobs", type=int, default=1,
                          help="worker processes for the run sweep "
                               "(default 1 = serial; -1 = all CPUs)")
    campaign.add_argument("--output", required=True,
                          help="AOD output file (JSON lines)")
    campaign.add_argument("--manifest",
                          help="also write the campaign conditions "
                               "manifest to this JSON file")

    skim = sub.add_parser("skim",
                          help="apply a JSON skim spec to an AOD file")
    skim.add_argument("--input", required=True)
    skim.add_argument("--spec", required=True)
    skim.add_argument("--output", required=True)

    convert = sub.add_parser("convert-level2",
                             help="convert an AOD file to Level-2")
    convert.add_argument("--input", required=True)
    convert.add_argument("--output", required=True)
    convert.add_argument("--energy-tev", type=float, default=8.0)

    display = sub.add_parser("display",
                             help="render one event of a Level-2 file")
    display.add_argument("--input", required=True)
    display.add_argument("--event", type=int, default=0)
    display.add_argument("--svg", help="write an SVG file instead of "
                                       "ASCII to stdout")
    display.add_argument("--geometry", default="GPD",
                         choices=("GPD", "FWD"))

    validate = sub.add_parser(
        "validate-bundle",
        help="re-validate a preserved-analysis bundle JSON file",
    )
    validate.add_argument("--bundle", required=True)

    lint = sub.add_parser(
        "lint",
        help="statically lint preserved artifacts (no re-execution)",
    )
    lint.add_argument("targets", nargs="*",
                      help="Python sources, artifact JSON documents, "
                           "archive directories, or directories of them")
    lint.add_argument("--bundled", action="store_true",
                      help="also lint the library's own bundled "
                           "analyses, conditions, catalogues, and "
                           "interview records")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text", dest="output_format")
    lint.add_argument("--select", action="append", default=[],
                      metavar="PREFIX",
                      help="only report rules matching a code prefix "
                           "(repeatable, e.g. --select DAS1)")
    lint.add_argument("--ignore", action="append", default=[],
                      metavar="PREFIX",
                      help="drop rules matching a code prefix "
                           "(repeatable)")
    lint.add_argument("--suppress", action="append", default=[],
                      metavar="CODE:REASON",
                      help="suppress one rule code globally with a "
                           "mandatory reason (repeatable, e.g. "
                           "--suppress 'DAS204: library IO is the "
                           "point')")
    lint.add_argument("--deep", action="store_true",
                      help="also run the interprocedural pass: build "
                           "call/import graphs per target tree and "
                           "propagate impurity facts to Analysis "
                           "entry points (DAS2xx rules); implies the "
                           "parallel-safety (--par) and determinism "
                           "(--det) passes")
    lint.add_argument("--par", action="store_true",
                      help="also run the parallel-safety pass: "
                           "escape analysis over pool workers, "
                           "RNG-stream discipline, and in-place/"
                           "aliasing and order-sensitivity checks of "
                           "@equivalence_tier kernels (DAS3xx rules)")
    lint.add_argument("--det", action="store_true",
                      help="also run the determinism/replay-safety "
                           "pass: escape analysis from declared "
                           "serialization roots to non-canonical "
                           "encodings, unordered iteration, clocks, "
                           "environment, and undisciplined "
                           "randomness (DAS4xx rules)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")

    closure = sub.add_parser(
        "closure",
        help="extract the static dependency closure of an Analysis "
             "tree as a deterministic JSON manifest",
    )
    closure.add_argument("target",
                         help="Python source file or directory holding "
                              "the Analysis subclass(es)")
    closure.add_argument("--entry",
                         help="restrict to one Analysis subclass "
                              "(class name or metadata name)")
    closure.add_argument("--output",
                         help="write the manifest to this file instead "
                              "of stdout")
    closure.add_argument("--check-archive", metavar="DIR",
                         help="cross-check the closure against a "
                              "preservation archive directory "
                              "(DAS207-DAS209)")
    closure.add_argument("--check-repository", action="store_true",
                         help="cross-check the closure against the "
                              "standard analysis repository "
                              "(DAS210-DAS211)")
    closure.add_argument("--format", choices=("text", "json"),
                         default="text", dest="output_format",
                         help="findings report format when checks are "
                              "requested")

    trace = sub.add_parser(
        "trace",
        help="render the span tree of a run-report JSON file",
    )
    trace.add_argument("report", help="run report written by --trace-out "
                                      "(or extracted from an archive)")

    metrics = sub.add_parser(
        "metrics",
        help="render the metrics snapshot of a run-report JSON file",
    )
    metrics.add_argument("report", help="run report written by --trace-out")
    metrics.add_argument("--format", choices=("prom", "json"),
                         default="prom", dest="output_format",
                         help="'prom' renders Prometheus text "
                              "exposition (# HELP/# TYPE, escaped "
                              "labels, cumulative buckets)")

    health = sub.add_parser(
        "health",
        help="render a health report written by 'repro serve "
             "--health-out' (exit code: 0 ok, 1 degraded, 2 failing)",
    )
    health.add_argument("report", help="health report JSON file")
    health.add_argument("--format", choices=("text", "json"),
                        default="text", dest="output_format")

    profile = sub.add_parser(
        "profile",
        help="fold a run report's span tree into a self/cumulative-"
             "time profile",
    )
    profile.add_argument("report", help="run report written by "
                                        "--trace-out")
    profile.add_argument("--format", choices=("text", "json"),
                         default="text", dest="output_format")
    profile.add_argument("--collapsed", metavar="PATH",
                         help="also write collapsed-stack lines "
                              "(flamegraph.pl input) to this file")

    serve = sub.add_parser(
        "serve",
        help="replay a submission script through the RECAST request "
             "service (deterministic: same script, same event log)",
    )
    serve.add_argument("--script", metavar="PATH",
                       help="submission script JSON; omitted = the "
                            "built-in two-tenant demo script")
    serve.add_argument("--events", type=int, default=60,
                       help="events per back-end run of the demo "
                            "experiment")
    serve.add_argument("--toys", type=int, default=400,
                       help="limit-setting toys per back-end run")
    serve.add_argument("--seed", type=int, default=900,
                       help="back-end base seed")
    serve.add_argument("--jobs", type=int, default=1,
                       help="lease worker processes (default 1 = "
                            "serial; -1 = all CPUs)")
    serve.add_argument("--event-log", metavar="PATH",
                       help="write the request-event log (canonical "
                            "JSON lines) to this file")
    serve.add_argument("--health-out", metavar="PATH",
                       help="evaluate the service SLOs over the run's "
                            "windowed telemetry and write the health "
                            "report (canonical JSON) to this file; "
                            "inspect with 'repro health PATH'")
    serve.add_argument("--slo", metavar="PATH",
                       help="SLO spec JSON to evaluate instead of the "
                            "built-in service defaults (needs "
                            "--health-out)")
    serve.add_argument("--telemetry-out", metavar="PATH",
                       help="write the windowed telemetry snapshot "
                            "(canonical JSON, deterministic form) to "
                            "this file")
    serve.add_argument("--write-script", metavar="PATH",
                       help="write the effective submission script to "
                            "this JSON file and exit (use to seed a "
                            "custom script from the demo)")

    interview = sub.add_parser("interview",
                               help="print an experiment's interview")
    interview.add_argument("--experiment", required=True)

    sub.add_parser("table1", help="print the Table 1 outreach matrix")
    sub.add_parser("maturity", help="print the maturity-rating table")

    for command in sub.choices.values():
        command.add_argument(
            "--trace-out", metavar="PATH",
            help="write a run report (trace tree + metrics + "
                 "environment) to this JSON file; inspect with "
                 "'repro trace PATH'")
        command.add_argument(
            "--trace-deterministic", action="store_true",
            help="strip clocks and host identity from the run report "
                 "so two identical runs produce byte-identical files")
    return parser


def _process_registry(name: str):
    from repro.generation import (
        DrellYanZ,
        DzeroProduction,
        HiggsToFourLeptons,
        JpsiToMuMu,
        MinimumBias,
        QCDDijets,
        WProduction,
    )

    registry = {
        "z_to_mumu": lambda: DrellYanZ(flavour="mu"),
        "z_to_ee": lambda: DrellYanZ(flavour="e"),
        "w_to_munu": lambda: WProduction(flavour="mu"),
        "higgs_4l": HiggsToFourLeptons,
        "qcd_dijets": QCDDijets,
        "d0_to_kpi": DzeroProduction,
        "jpsi": JpsiToMuMu,
        "minbias": MinimumBias,
    }
    return registry[name]()


def _cmd_generate(args, run: _Run) -> int:
    from repro.datamodel import DataTier, write_dataset
    from repro.generation import GeneratorConfig, ToyGenerator
    from repro.obs import active

    generator = ToyGenerator(GeneratorConfig(
        processes=[_process_registry(args.process)], seed=args.seed,
    ))
    obs = active(run.tracer)
    with obs.span("generate.events", n_events=args.events):
        records = [event.to_dict()
                   for event in generator.stream(args.events)]
    with obs.span("generate.write"):
        header = write_dataset(
            args.output, f"gen-{args.process}", DataTier.GEN, records,
            provenance=generator.run_info.to_dict(),
        )
    run.record(process=args.process, seed=args.seed,
               output=str(args.output), dataset=header.dataset_name)
    print(f"wrote {header.n_events} GEN events to {args.output}")
    return 0


def _geometry_for(name: str):
    from repro.detector import forward_spectrometer, generic_lhc_detector

    return (generic_lhc_detector() if name == "GPD"
            else forward_spectrometer())


def _cmd_process(args, run: _Run) -> int:
    from repro.conditions import CachedConditionsView, default_conditions
    from repro.datamodel import (
        DataTier,
        DatasetReader,
        make_aod,
        write_dataset,
    )
    from repro.detector import DetectorSimulation, Digitizer
    from repro.generation import GenEvent
    from repro.reconstruction import Reconstructor
    from repro.runtime import ExecutionPolicy

    geometry = _geometry_for(args.geometry)
    simulation = DetectorSimulation(geometry, seed=args.seed)
    digitizer = Digitizer(geometry, run_number=args.run,
                          seed=args.seed + 1)
    reconstructor = Reconstructor(
        geometry,
        CachedConditionsView(default_conditions(), args.global_tag),
    )
    events = DatasetReader(args.input).events(DataTier.GEN,
                                              GenEvent.from_dict)
    # Simulation and digitisation consume one sequential RNG stream, so
    # they stay serial; reconstruction is pure per event and fans out.
    raws = [digitizer.digitize(simulation.simulate(event))
            for event in events]
    policy = ExecutionPolicy.from_jobs(args.jobs)
    recos = reconstructor.reconstruct_many(
        raws, policy, tracer=run.tracer, metrics=run.metrics)
    aods = [make_aod(reco) for reco in recos]
    header = write_dataset(
        args.output, f"aod-run{args.run}", DataTier.AOD,
        (aod.to_dict() for aod in aods),
        provenance={
            "input": str(args.input),
            "reconstruction": reconstructor.describe(),
            "externals": reconstructor.external_dependencies(),
        },
    )
    run.record(input=str(args.input), output=str(args.output),
               dataset=header.dataset_name, global_tag=args.global_tag)
    print(f"wrote {header.n_events} AOD events to {args.output}")
    return 0


def _cmd_campaign(args, run: _Run) -> int:
    from repro.conditions import default_conditions
    from repro.datamodel import (
        DataTier,
        GoodRunList,
        RunRecord,
        RunRegistry,
        write_dataset,
    )
    from repro.generation import GeneratorConfig, ToyGenerator
    from repro.runtime import ExecutionPolicy
    from repro.workflow import ProcessingCampaign

    if args.runs < 1:
        raise ReproError(f"--runs must be >= 1, got {args.runs}")
    registry = RunRegistry(args.name)
    good_runs = GoodRunList(f"GRL-{args.name}")
    run_numbers = [args.first_run + index * args.run_step
                   for index in range(args.runs)]
    for run_number in run_numbers:
        registry.add(RunRecord(run_number, args.sections, 0.5))
        good_runs.certify(run_number, 1, args.sections)

    campaign = ProcessingCampaign(
        name=args.name,
        geometry=_geometry_for(args.geometry),
        conditions=default_conditions(),
        global_tag=args.global_tag,
        generator=ToyGenerator(GeneratorConfig(
            processes=[_process_registry(args.physics_process)],
            seed=args.seed,
        )),
        events_per_section=args.events_per_section,
        max_events_per_run=args.max_events_per_run,
        seed=args.seed,
    )
    policy = ExecutionPolicy.from_jobs(args.jobs)
    results = campaign.process(registry, good_runs, policy=policy,
                               tracer=run.tracer, metrics=run.metrics)
    aods = campaign.all_aods()
    header = write_dataset(
        args.output, f"aod-{args.name}", DataTier.AOD,
        (aod.to_dict() for aod in aods),
        provenance={
            "campaign": campaign.describe(),
            "execution": policy.describe(),
            "conditions_manifest": campaign.conditions_manifest(),
        },
    )
    if args.manifest:
        write_atomic(args.manifest, canonical_document(
            campaign.conditions_manifest(), indent=2), "conditions manifest")
        print(f"wrote conditions manifest to {args.manifest}")
    run.record(campaign=campaign.name, global_tag=campaign.global_tag,
               output=str(args.output),
               runs=[str(run_number) for run_number in sorted(results)],
               conditions_manifest=campaign.conditions_manifest())
    print(f"processed {len(results)} runs "
          f"({policy.mode}, {policy.n_jobs} jobs): "
          f"{header.n_events} AOD events -> {args.output}")
    return 0


def _read_aods(path: str):
    from repro.datamodel import AODEvent, DataTier, DatasetReader

    return list(DatasetReader(path).events(DataTier.AOD,
                                           AODEvent.from_dict))


def _cmd_skim(args, run: _Run) -> int:
    from repro.datamodel import DataTier, SkimSpec, write_dataset

    spec = SkimSpec.load(args.spec)
    aods = _read_aods(args.input)
    selected = spec.apply(aods)
    header = write_dataset(
        args.output, f"skim-{spec.name}", DataTier.AOD,
        (aod.to_dict() for aod in selected),
        provenance={"skim": spec.to_dict(), "input": str(args.input)},
    )
    print(f"skim {spec.name!r}: {header.n_events}/{len(aods)} events "
          f"-> {args.output}")
    return 0


def _cmd_convert_level2(args, run: _Run) -> int:
    from repro.datamodel import DataTier, write_dataset
    from repro.outreach import Level2Converter

    converter = Level2Converter(collision_energy_tev=args.energy_tev)
    aods = _read_aods(args.input)
    level2 = converter.convert_many(aods)
    header = write_dataset(
        args.output, "level2", DataTier.LEVEL2,
        (event.to_dict() for event in level2),
        provenance=converter.describe(),
    )
    stats = converter.stats
    print(f"converted {header.n_events} events -> {args.output} "
          f"(reduction {stats.reduction_factor:.2f}x)")
    return 0


def _cmd_display(args, run: _Run) -> int:
    from repro.datamodel import DataTier, DatasetReader
    from repro.outreach import (
        EventDisplayRecord,
        render_event_svg,
        render_lego_ascii,
    )
    from repro.outreach.format import Level2Event

    events = list(DatasetReader(args.input).events(DataTier.LEVEL2,
                                                   Level2Event.from_dict))
    if not 0 <= args.event < len(events):
        raise ReproError(
            f"event index {args.event} out of range 0.."
            f"{len(events) - 1}"
        )
    event = events[args.event]
    if args.svg:
        record = EventDisplayRecord.build(_geometry_for(args.geometry),
                                          event)
        write_atomic(args.svg, render_event_svg(
            record.to_dict()).encode("utf-8"), "event display")
        print(f"wrote {args.svg}")
    else:
        print(render_lego_ascii(event))
    return 0


def _cmd_validate_bundle(args, run: _Run) -> int:
    from repro.core import PreservedAnalysisBundle, revalidate

    bundle = PreservedAnalysisBundle.load(args.bundle)
    outcome = revalidate(bundle)
    print(outcome.summary())
    return 0 if outcome.passed else 1


def _parse_suppressions(entries: list[str]) -> dict:
    """``CODE:REASON`` pairs from the command line, validated."""
    suppressions: dict[str, str] = {}
    for entry in entries:
        code, sep, reason = entry.partition(":")
        if not sep or not code.strip() or not reason.strip():
            raise ReproError(
                f"--suppress needs CODE:REASON, got {entry!r}"
            )
        suppressions[code.strip()] = reason.strip()
    return suppressions


def _cmd_lint(args, run: _Run) -> int:
    from repro.lint import (
        LintConfig,
        LintSession,
        analyze_tree,
        deep_findings,
        det_findings,
        lint_bundled_artifacts,
        lint_path,
        par_findings,
        render_json,
        render_rule_catalog,
        render_text,
    )

    if args.list_rules:
        print(render_rule_catalog())
        return 0
    if not args.targets and not args.bundled:
        raise ReproError(
            "lint needs at least one target path (or --bundled)"
        )
    from repro.runtime.clock import MonotonicClock

    clock = MonotonicClock()
    config = LintConfig(select=tuple(args.select),
                        ignore=tuple(args.ignore),
                        suppressions=_parse_suppressions(args.suppress))
    session = LintSession(config, tracer=run.tracer, metrics=run.metrics)
    graph_passes = [(name, findings) for name, wanted, findings in (
        ("lint.flow", args.deep, deep_findings),
        ("lint.par", args.deep or args.par, par_findings),
        ("lint.det", args.deep or args.det, det_findings),
    ) if wanted]

    def lint_target(label: str, shallow, tree) -> None:
        """One target, each pass under a span; one graph for ``tree``."""
        with session.obs.span("lint.target", target=label) as span:
            started = clock.now()
            before = len(session.report().findings)
            with session.obs.span("lint.shallow"):
                session.extend(shallow())
            if tree is not None and graph_passes:
                with session.obs.span("lint.graph"):
                    graph = analyze_tree(tree)
                for name, findings in graph_passes:
                    with session.obs.span(name):
                        session.extend(findings(graph))
            span.set("n_findings",
                     len(session.report().findings) - before)
        if run.metrics is not None:
            run.metrics.histogram("lint.target_seconds").observe(
                clock.now() - started)

    with session.obs.span("lint.run", n_targets=len(args.targets),
                          bundled=bool(args.bundled)):
        for target in args.targets:
            path = Path(target)
            if not path.exists():
                raise ReproError(f"lint target {target!r} does not exist")
            tree = target if path.is_dir() or path.suffix == ".py" else None
            lint_target(target, functools.partial(lint_path, target), tree)
        if args.bundled:
            import repro.rivet.standard_analyses as standard_analyses
            lint_target("<bundled>", lint_bundled_artifacts,
                        standard_analyses.__file__)
    report = session.report()
    run.record(targets=[str(target) for target in args.targets],
               bundled=bool(args.bundled), exit_code=report.exit_code)
    if args.output_format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code


def _cmd_closure(args, run: _Run) -> int:
    from repro.lint import (
        LintReport,
        check_manifest_against_archive,
        check_manifest_against_repository,
        extract_closure,
        render_json,
        render_text,
    )

    if not Path(args.target).exists():
        raise ReproError(
            f"closure target {args.target!r} does not exist"
        )
    manifest = extract_closure(args.target, entry=args.entry)
    payload = manifest.to_json_bytes()
    if args.output:
        write_atomic(args.output, payload, "closure manifest")

    checking = bool(args.check_archive or args.check_repository)
    if not checking:
        if not args.output:
            # The manifest itself is the output: deterministic bytes,
            # so two runs over the same tree are byte-identical.
            sys.stdout.write(payload.decode("utf-8"))
        else:
            print(f"wrote closure manifest to {args.output}")
        return 0

    findings = []
    if args.check_archive:
        findings.extend(check_manifest_against_archive(
            manifest, args.check_archive))
    if args.check_repository:
        from repro.rivet.standard_analyses import standard_repository

        findings.extend(check_manifest_against_repository(
            manifest, standard_repository()))
    report = LintReport.from_findings(findings)
    if args.output:
        print(f"wrote closure manifest to {args.output}")
    if args.output_format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code


def _cmd_trace(args, run: _Run) -> int:
    from repro.obs import RunReport, render_trace

    print(render_trace(RunReport.load(args.report)))
    return 0


def _cmd_metrics(args, run: _Run) -> int:
    from repro.core.canonical import canonical_text
    from repro.obs import RunReport, render_prometheus

    report = RunReport.load(args.report)
    if args.output_format == "json":
        print(canonical_text(report.metrics))
    else:
        sys.stdout.write(render_prometheus(report.metrics))
    return 0


def _cmd_health(args, run: _Run) -> int:
    from repro.obs import HealthReport, render_health

    report = HealthReport.load(args.report)
    if args.output_format == "json":
        sys.stdout.write(report.to_json_bytes().decode("utf-8"))
    else:
        print(render_health(report))
    return report.exit_code()


def _cmd_profile(args, run: _Run) -> int:
    from repro.obs import RunReport, SpanProfile, render_profile

    profile = SpanProfile.from_report(RunReport.load(args.report))
    if args.collapsed:
        write_atomic(args.collapsed, profile.collapsed().encode("utf-8"),
                     "collapsed stacks")
        # Status goes to stderr: stdout may be the JSON document.
        print(f"wrote {len(profile.nodes)} collapsed stack(s) to "
              f"{args.collapsed}", file=sys.stderr)
    if args.output_format == "json":
        sys.stdout.write(profile.to_json_text())
    else:
        print(render_profile(profile))
    return 0


def _cmd_serve(args, run: _Run) -> int:
    from repro.obs import SLOSpec, evaluate_slo
    from repro.runtime import ExecutionPolicy
    from repro.service import (
        default_service_slo,
        demo_api,
        demo_script,
        load_script,
        run_script,
    )

    if args.slo and not args.health_out:
        raise ReproError("--slo needs --health-out: without it the "
                         "spec would never be evaluated")
    # Read the spec before any back-end work, so a damaged one fails
    # fast instead of after the whole run.
    spec = SLOSpec.load(args.slo) if args.slo else default_service_slo()
    if args.write_script:
        write_atomic(args.write_script, canonical_document(
            demo_script(), indent=2), "submission script")
        print(f"wrote demo submission script to {args.write_script}")
        return 0

    script = (load_script(args.script) if args.script
              else demo_script())
    api = demo_api(n_events=args.events, n_limit_toys=args.toys,
                   seed=args.seed)
    policy = ExecutionPolicy.from_jobs(args.jobs)
    service, tickets = run_script(api, script, policy=policy,
                                  tracer=run.tracer, metrics=run.metrics)

    for ticket in tickets:
        request = api.get_request(ticket.request_id)
        print(f"{ticket.request_id}  {ticket.status:<10}  "
              f"-> {request.status.value}")
    stats = service.cache.stats
    print(f"served {len(tickets)} submission(s): "
          f"{len(service.events)} events, "
          f"cache hit rate {stats.hit_rate:.2f}")
    if args.event_log:
        write_atomic(args.event_log, service.event_log_bytes(), "event log")
        print(f"wrote request-event log to {args.event_log}")
    if args.telemetry_out:
        write_atomic(args.telemetry_out, service.telemetry.to_json_bytes(
            deterministic=True), "telemetry snapshot")
        print(f"wrote telemetry snapshot to {args.telemetry_out}")
    if args.health_out:
        health = evaluate_slo(
            spec, service.telemetry.snapshot(deterministic=True))
        health.save(args.health_out)
        print(f"wrote health report ({health.verdict}) to "
              f"{args.health_out}")
    run.record(script=str(args.script) if args.script else "<demo>",
               n_submissions=len(tickets), n_events=len(service.events))
    return 0


def _cmd_interview(args, run: _Run) -> int:
    from repro.experiments import get_experiment
    from repro.interview import response_for_experiment
    from repro.interview.report import interview_report

    response = response_for_experiment(get_experiment(args.experiment))
    print(interview_report(response))
    return 0


def _cmd_table1(args, run: _Run) -> int:
    from repro.experiments import lhc_experiments, render_table1

    print(render_table1(lhc_experiments()))
    return 0


def _cmd_maturity(args, run: _Run) -> int:
    from repro.experiments import all_experiments
    from repro.interview.report import render_maturity_table

    print(render_maturity_table(all_experiments()))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "process": _cmd_process,
    "campaign": _cmd_campaign,
    "skim": _cmd_skim,
    "convert-level2": _cmd_convert_level2,
    "display": _cmd_display,
    "validate-bundle": _cmd_validate_bundle,
    "lint": _cmd_lint,
    "closure": _cmd_closure,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "health": _cmd_health,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "interview": _cmd_interview,
    "table1": _cmd_table1,
    "maturity": _cmd_maturity,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    run = _Run(args.command, traced=bool(args.trace_out))
    try:
        code = _COMMANDS[args.command](args, run)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # A failed run still gets its report: the spans that finished
        # and the error that ended it.
        run.record(error=str(exc))
        code = 2
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an
        # error in the command itself. Detach stdout so the interpreter
        # does not raise again while flushing at shutdown.
        # lint: ignore[DAS004] -- opens the null device, not an artifact
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    if run.tracer is not None:
        try:
            run.save(args.trace_out, args.trace_deterministic)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
