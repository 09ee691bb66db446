"""Instrumentation wiring: spans and metrics across the whole chain."""

from __future__ import annotations

import pickle

import pytest

from repro.datamodel import (
    AndCut,
    CountCut,
    GoodRunList,
    MassWindowCut,
    RunRecord,
    RunRegistry,
    SkimSpec,
)
from repro.detector import DetectorSimulation, Digitizer
from repro.errors import WorkflowError
from repro.generation import DrellYanZ, GeneratorConfig, ToyGenerator
from repro.lint import Finding, LintConfig, LintSession, Severity
from repro.obs import MetricsRegistry, Tracer
from repro.recast import PreservedSearch, run_mass_scan
from repro.recast.backend import FullChainBackend
from repro.reconstruction import GlobalTagView, Reconstructor
from repro.runtime import ExecutionPolicy, parallel_map
from repro.workflow import (
    ChainRunner,
    ProcessingCampaign,
    ProcessingChain,
    SkimStep,
)


def _square(value: int) -> int:
    return value * value


class TestParallelMapInstrumentation:
    def test_serial_path_records_one_span(self):
        tracer, metrics = Tracer("t"), MetricsRegistry()
        results = parallel_map(_square, [1, 2, 3], None,
                               tracer=tracer, metrics=metrics)
        assert results == [1, 4, 9]
        (span,) = tracer.spans
        assert span.name == "runtime.parallel_map"
        assert span.attributes["mode"] == "serial"
        assert metrics.counter("runtime.items").value == 3

    def test_pooled_path_adopts_chunk_spans_in_order(self):
        tracer, metrics = Tracer("t"), MetricsRegistry()
        policy = ExecutionPolicy.threads(2, chunk_size=2)
        results = parallel_map(_square, list(range(6)), policy,
                               tracer=tracer, metrics=metrics)
        assert results == [v * v for v in range(6)]
        outer = tracer.spans[0]
        assert outer.name == "runtime.parallel_map"
        assert outer.attributes["n_chunks"] == 3
        chunks = tracer.find("runtime.chunk")
        assert [span.attributes["chunk"] for span in chunks] == [0, 1, 2]
        assert all(span.parent_id == outer.span_id for span in chunks)
        assert metrics.counter("runtime.chunks").value == 3
        assert metrics.histogram("runtime.chunk_seconds").count == 3
        assert metrics.histogram("runtime.queue_wait_seconds").count == 3
        assert 0.0 <= metrics.gauge("runtime.worker_utilization").value \
            <= 1.0

    def test_pooled_path_with_metrics_only_times_every_chunk(self):
        # No tracer: the chunk timings must still reach the registry.
        metrics = MetricsRegistry()
        policy = ExecutionPolicy.threads(2, chunk_size=2)
        results = parallel_map(_square, list(range(6)), policy,
                               metrics=metrics)
        assert results == [v * v for v in range(6)]
        assert metrics.counter("runtime.chunks").value == 3
        assert metrics.counter("runtime.items").value == 6
        assert metrics.histogram("runtime.chunk_seconds").count == 3
        assert metrics.histogram("runtime.queue_wait_seconds").count == 3
        assert 0.0 < metrics.gauge("runtime.worker_utilization").value \
            <= 1.0

    def test_process_pool_trace_structure_is_deterministic(self):
        trees = []
        for _ in range(2):
            tracer = Tracer("scan")
            parallel_map(_square, list(range(8)),
                         ExecutionPolicy.processes(2, chunk_size=3),
                         tracer=tracer)
            trees.append([(s.name, s.span_id, s.parent_id,
                           dict(s.attributes)) for s in tracer.spans])
        assert trees[0] == trees[1]

    def test_untraced_call_records_nothing(self):
        tracer = Tracer("t", enabled=False)
        results = parallel_map(_square, [1, 2],
                               ExecutionPolicy.threads(2), tracer=tracer)
        assert results == [1, 4]
        assert tracer.spans == []


def _build_campaign(conditions_store, gpd_geometry, global_tag="GT-FINAL"):
    registry = RunRegistry("ObsRuns")
    good_runs = GoodRunList("ObsGRL")
    for run_number, sections in [(5, 20), (15, 25)]:
        registry.add(RunRecord(run_number, sections, 0.5))
        good_runs.certify(run_number, 1, sections)
    campaign = ProcessingCampaign(
        name="obs-v1",
        geometry=gpd_geometry,
        conditions=conditions_store,
        global_tag=global_tag,
        generator=ToyGenerator(GeneratorConfig(
            processes=[DrellYanZ()], seed=6100)),
        events_per_section=0.2,
        max_events_per_run=4,
    )
    return campaign, registry, good_runs


class TestCampaignInstrumentation:
    def _traced_sweep(self, conditions_store, gpd_geometry, policy):
        campaign, registry, good_runs = _build_campaign(
            conditions_store, gpd_geometry)
        tracer, metrics = Tracer("campaign"), MetricsRegistry()
        campaign.process(registry, good_runs, policy=policy,
                         tracer=tracer, metrics=metrics)
        return tracer, metrics

    def test_sweep_span_with_one_run_child_per_run(
            self, conditions_store, gpd_geometry):
        tracer, metrics = self._traced_sweep(
            conditions_store, gpd_geometry, ExecutionPolicy.serial())
        sweep = tracer.spans[0]
        assert sweep.name == "campaign.process"
        assert sweep.attributes["n_runs"] == 2
        runs = tracer.find("campaign.run")
        assert [span.attributes["run"] for span in runs] == [5, 15]
        assert all(span.parent_id == sweep.span_id for span in runs)
        assert metrics.counter("campaign.runs").value == 2
        assert metrics.counter("campaign.events").value > 0

    def test_run_spans_carry_seed_and_conditions_reads(
            self, conditions_store, gpd_geometry):
        tracer, _ = self._traced_sweep(
            conditions_store, gpd_geometry, ExecutionPolicy.serial())
        for span in tracer.find("campaign.run"):
            assert span.attributes["generator_seed"] > 0
            assert span.attributes["conditions_reads"] > 0

    def test_parallel_sweep_trace_identical_to_serial(
            self, conditions_store, gpd_geometry):
        serial, _ = self._traced_sweep(
            conditions_store, gpd_geometry, ExecutionPolicy.serial())
        parallel, _ = self._traced_sweep(
            conditions_store, gpd_geometry, ExecutionPolicy.processes(2))
        key = [(s.name, s.span_id, s.parent_id, dict(s.attributes))
               for s in serial.spans]
        assert key == [(s.name, s.span_id, s.parent_id,
                        dict(s.attributes)) for s in parallel.spans]

    def test_failed_run_names_span_and_run_index(
            self, conditions_store, gpd_geometry):
        campaign, registry, good_runs = _build_campaign(
            conditions_store, gpd_geometry, global_tag="GT-MISSING")
        with pytest.raises(WorkflowError) as excinfo:
            campaign.process(registry, good_runs)
        message = str(excinfo.value)
        assert "span 'campaign.run'" in message
        assert "run 5" in message
        assert "run index 0" in message


class TestChainInstrumentation:
    def _skim_chain(self):
        return ProcessingChain("post-aod", [
            SkimStep(SkimSpec("dimuon", AndCut((
                CountCut("muons", 2, min_pt=10.0),
                MassWindowCut("muons", 60.0, 120.0,
                              opposite_charge=True),
            )))),
        ])

    def _aod_sample(self, gpd_geometry, conditions_store, n_events=6):
        from repro.datamodel import make_aod

        generator = ToyGenerator(GeneratorConfig(
            processes=[DrellYanZ()], seed=7700))
        simulation = DetectorSimulation(gpd_geometry, seed=7701)
        digitizer = Digitizer(gpd_geometry, run_number=17, seed=7702)
        reconstructor = Reconstructor(
            gpd_geometry, GlobalTagView(conditions_store, "GT-FINAL"))
        return [make_aod(reconstructor.reconstruct(
                    digitizer.digitize(simulation.simulate(event))))
                for event in generator.generate(n_events)]

    def test_chain_run_and_step_spans(self, gpd_geometry,
                                      conditions_store):
        tracer, metrics = Tracer("chain"), MetricsRegistry()
        runner = ChainRunner(tracer=tracer, metrics=metrics)
        aods = self._aod_sample(gpd_geometry, conditions_store)
        runner.run(self._skim_chain(), initial_records=aods)
        run_span = tracer.spans[0]
        assert run_span.name == "chain.run"
        assert run_span.attributes["n_steps"] == 1
        (step,) = tracer.find("chain.step")
        assert step.parent_id == run_span.span_id
        assert step.attributes["step"] == "skim:dimuon"
        assert step.attributes["position"] == 0
        assert step.attributes["n_records"] >= 0
        assert metrics.counter("chain.steps").value == 1

    def test_failed_step_names_span_step_and_position(self):
        runner = ChainRunner(tracer=Tracer("chain"))
        with pytest.raises(WorkflowError) as excinfo:
            # Integers are not AOD events; the skim step dies on them.
            runner.run(self._skim_chain(), initial_records=[1, 2])
        message = str(excinfo.value)
        assert "span 'chain.step'" in message
        assert "step 'skim:dimuon'" in message
        assert "position 0" in message


class TestReconstructionInstrumentation:
    def _raw_sample(self, gpd_geometry, n_events=8):
        generator = ToyGenerator(GeneratorConfig(
            processes=[DrellYanZ()], seed=8800))
        simulation = DetectorSimulation(gpd_geometry, seed=8801)
        digitizer = Digitizer(gpd_geometry, run_number=17, seed=8802)
        return [digitizer.digitize(simulation.simulate(event))
                for event in generator.generate(n_events)]

    def test_serial_pass_records_span_and_counters(
            self, gpd_geometry, conditions_store):
        reconstructor = Reconstructor(
            gpd_geometry, GlobalTagView(conditions_store, "GT-FINAL"))
        tracer, metrics = Tracer("reco"), MetricsRegistry()
        raws = self._raw_sample(gpd_geometry)
        reconstructor.reconstruct_many(raws, tracer=tracer,
                                       metrics=metrics)
        (span,) = tracer.spans
        assert span.name == "reco.reconstruct_many"
        assert span.attributes == {"n_events": 8, "mode": "serial"}
        assert metrics.counter("reco.events").value == 8
        assert metrics.counter("reco.conditions_reads").value > 0

    def test_parallel_pass_nests_scheduler_spans(
            self, gpd_geometry, conditions_store):
        reconstructor = Reconstructor(
            gpd_geometry, GlobalTagView(conditions_store, "GT-FINAL"))
        tracer = Tracer("reco")
        raws = self._raw_sample(gpd_geometry)
        reconstructor.reconstruct_many(
            raws, policy=ExecutionPolicy.processes(2), tracer=tracer)
        outer = tracer.spans[0]
        assert outer.name == "reco.reconstruct_many"
        assert outer.attributes["mode"] == "process"
        (scheduler,) = tracer.find("runtime.parallel_map")
        assert scheduler.parent_id == outer.span_id
        assert scheduler.attributes["n_items"] == len(raws)
        assert len(tracer.find("runtime.chunk")) \
            == scheduler.attributes["n_chunks"]


def _search():
    selection = SkimSpec("highmass", AndCut((
        CountCut("muons", 2, min_pt=30.0),
        MassWindowCut("muons", 500.0, 1e9, opposite_charge=True),
    )))
    return PreservedSearch(
        analysis_id="GPD-EXO-2013-01", title="High-mass dimuon",
        experiment="GPD", selection=selection, n_observed=3,
        background=2.5, background_uncertainty=0.6,
        luminosity_ipb=20000.0,
    )


class TestRecastInstrumentation:
    def test_mass_scan_span_and_request_counters(self):
        tracer, metrics = Tracer("recast"), MetricsRegistry()
        backend = FullChainBackend("GPD", n_events=30, n_limit_toys=50,
                                   seed=6400).instrument(tracer, metrics)
        run_mass_scan(backend, _search(), [800.0, 1600.0],
                      tracer=tracer, metrics=metrics)
        scan = tracer.spans[0]
        assert scan.name == "recast.mass_scan"
        assert scan.attributes["n_points"] == 2
        requests = tracer.find("recast.request")
        assert len(requests) == 2
        assert {span.attributes["model"] for span in requests} \
            == {"zprime-800", "zprime-1600"}
        assert metrics.counter("recast.scan_points").value == 2
        assert metrics.counter(
            "recast.requests", backend=backend.name).value == 2
        assert metrics.counter("recast.events_generated").value == 60

    def test_instrumentation_stripped_before_pickling(self):
        backend = FullChainBackend("GPD", n_events=10, seed=1)
        backend.instrument(Tracer("t"), MetricsRegistry())
        clone = pickle.loads(pickle.dumps(backend))
        assert getattr(clone, "_obs_tracer", None) is None
        assert getattr(clone, "_obs_metrics", None) is None

    def test_parallel_scan_unaffected_by_instrumentation(self):
        backend = FullChainBackend("GPD", n_events=30, n_limit_toys=50,
                                   seed=6400)
        serial = run_mass_scan(backend, _search(), [800.0])
        backend.instrument(Tracer("t"), MetricsRegistry())
        parallel = run_mass_scan(backend, _search(), [800.0],
                                 policy=ExecutionPolicy.processes(2))
        assert serial.limits() == parallel.limits()


class TestLintInstrumentation:
    def _finding(self, code):
        return Finding(code=code, severity=Severity.WARNING,
                       message="m", artifact="", file="a.py", line=1)

    def test_kept_findings_counted_by_code(self):
        metrics = MetricsRegistry()
        session = LintSession(metrics=metrics)
        session.extend([self._finding("DAS001"),
                        self._finding("DAS001"),
                        self._finding("DAS113")])
        assert metrics.counter("lint.findings", code="DAS001").value == 2
        assert metrics.counter("lint.findings", code="DAS113").value == 1

    def test_suppressed_findings_not_counted(self):
        metrics = MetricsRegistry()
        session = LintSession(config=LintConfig(ignore=("DAS001",)),
                              metrics=metrics)
        session.extend([self._finding("DAS001"),
                        self._finding("DAS113")])
        assert metrics.counter("lint.findings", code="DAS001").value == 0
        assert metrics.counter("lint.findings", code="DAS113").value == 1

    def test_session_obs_falls_back_to_noop(self):
        session = LintSession()
        assert not session.obs.enabled
        traced = LintSession(tracer=Tracer("lint"))
        assert traced.obs.enabled
