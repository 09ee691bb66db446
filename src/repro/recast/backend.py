"""RECAST back ends: the experiment-side processing installations.

A back end owns the full experiment software stack. The
:class:`FullChainBackend` generates the requested model, pushes it through
the detector simulation, digitisation, and reconstruction of its
experiment, applies the preserved selection, and sets the CLs limit —
"essentially, the full code base and executables from the experiment are
encapsulated in the RECAST back end processing".
"""

from __future__ import annotations

import abc
import math

from repro.conditions.calibration import default_conditions
from repro.conditions.store import ConditionsStore
from repro.datamodel.event import make_aod
from repro.detector.digitization import Digitizer
from repro.detector.geometry import (
    DetectorGeometry,
    forward_spectrometer,
    generic_lhc_detector,
)
from repro.detector.simulation import DetectorSimulation
from repro.errors import BackendError
from repro.generation.generator import GeneratorConfig, ToyGenerator
from repro.obs.trace import active
from repro.generation.processes import (
    DrellYanZ,
    HiggsToFourLeptons,
    Process,
    WProduction,
    ZPrimeResonance,
)
from repro.recast.catalog import PreservedSearch
from repro.recast.requests import ModelSpec
from repro.recast.results import RecastResult, build_limit_result_extra
from repro.reconstruction.reconstructor import GlobalTagView, Reconstructor
from repro.stats.efficiency import binomial_interval
from repro.stats.likelihood import CountingExperiment
from repro.stats.limits import cls_upper_limit


def build_process(model: ModelSpec) -> Process:
    """Instantiate the generator process for a requester's model spec."""
    parameters = model.parameters
    if model.process == "zprime":
        return ZPrimeResonance(
            mass=float(parameters.get("mass", 1500.0)),
            width=(float(parameters["width"])
                   if "width" in parameters else None),
            flavour=str(parameters.get("flavour", "mu")),
            cross_section_pb=float(
                parameters.get("cross_section_pb", 0.05)
            ),
        )
    if model.process == "drell_yan_z":
        return DrellYanZ(
            flavour=str(parameters.get("flavour", "mu")),
            cross_section_pb=float(
                parameters.get("cross_section_pb", 1100.0)
            ),
        )
    if model.process == "w_production":
        return WProduction(
            flavour=str(parameters.get("flavour", "mu")),
            charge=int(parameters.get("charge", 1)),
            cross_section_pb=float(
                parameters.get("cross_section_pb", 11000.0)
            ),
        )
    if model.process == "higgs_4l":
        return HiggsToFourLeptons()
    raise BackendError(f"no generator for process {model.process!r}")


class RecastBackend(abc.ABC):
    """Interface every back-end processor implements."""

    #: Identifier reported in results.
    name: str = "backend"

    @abc.abstractmethod
    def process(self, search: PreservedSearch,
                model: ModelSpec) -> RecastResult:
        """Re-run the preserved search on the model; return the result."""

    def instrument(self, tracer=None, metrics=None) -> "RecastBackend":
        """Attach a tracer/metrics registry for request handling.

        Instrumentation is driver-local: tracers hold locks and cannot
        cross a process boundary, so :meth:`__getstate__` strips these
        references before a scan pickles the backend to pool workers
        (which then run uninstrumented). Returns ``self`` for chaining.
        """
        self._obs_tracer = tracer
        self._obs_metrics = metrics
        return self

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_obs_tracer", None)
        state.pop("_obs_metrics", None)
        return state


_GEOMETRIES = {
    "GPD": generic_lhc_detector,
    "FWD": forward_spectrometer,
}


class FullChainBackend(RecastBackend):
    """The full simulation + reconstruction + selection chain."""

    name = "full-chain"

    def __init__(
        self,
        experiment: str,
        conditions: ConditionsStore | None = None,
        n_events: int = 400,
        run_number: int = 50,
        seed: int = 2718,
        n_limit_toys: int = 3000,
    ) -> None:
        if n_events <= 0:
            raise BackendError("n_events must be positive")
        self.experiment = experiment
        self.conditions = (conditions if conditions is not None
                           else default_conditions())
        self.n_events = n_events
        self.run_number = run_number
        self.seed = seed
        self.n_limit_toys = n_limit_toys

    def _geometry(self, search: PreservedSearch) -> DetectorGeometry:
        try:
            return _GEOMETRIES[search.geometry_name]()
        except KeyError:
            raise BackendError(
                f"back end has no geometry {search.geometry_name!r}"
            ) from None

    def process(self, search: PreservedSearch,
                model: ModelSpec) -> RecastResult:
        """Generate, simulate, reconstruct, select, and set the limit.

        Instrumented via :meth:`RecastBackend.instrument`: each request
        runs under a ``recast.request`` span carrying the search id,
        model, and selection outcome, with request/event counters.
        """
        obs = active(getattr(self, "_obs_tracer", None))
        metrics = getattr(self, "_obs_metrics", None)
        with obs.span("recast.request", analysis=search.analysis_id,
                      model=model.name, process=model.process,
                      n_events=self.n_events,
                      backend=self.name) as span:
            result = self._process_request(search, model)
            span.set("n_selected", result.n_selected)
            span.set("excluded", result.excluded)
        if metrics is not None:
            metrics.counter("recast.requests",
                            backend=self.name).inc()
            metrics.counter("recast.events_generated").inc(
                result.n_generated)
        return result

    def _process_request(self, search: PreservedSearch,
                         model: ModelSpec) -> RecastResult:
        process = build_process(model)
        generator = ToyGenerator(GeneratorConfig(
            processes=[process], seed=self.seed
        ))
        geometry = self._geometry(search)
        simulation = DetectorSimulation(geometry, seed=self.seed + 1)
        digitizer = Digitizer(geometry, run_number=self.run_number,
                              seed=self.seed + 2)
        reconstructor = Reconstructor(
            geometry, GlobalTagView(self.conditions, search.global_tag)
        )
        n_selected = 0
        for event in generator.stream(self.n_events):
            sim_event = simulation.simulate(event)
            raw = digitizer.digitize(sim_event)
            reco = reconstructor.reconstruct(raw)
            aod = make_aod(reco)
            if search.selection.cut.passes(aod):
                n_selected += 1

        efficiency = n_selected / self.n_events
        interval = binomial_interval(n_selected, self.n_events)
        efficiency_error = 0.5 * (interval[1] - interval[0])

        if efficiency <= 0.0:
            # No sensitivity: the limit is unbounded.
            return RecastResult(
                analysis_id=search.analysis_id,
                model_name=model.name,
                n_generated=self.n_events,
                n_selected=0,
                signal_efficiency=0.0,
                efficiency_error=efficiency_error,
                upper_limit_pb=math.inf,
                model_cross_section_pb=process.cross_section_pb,
                excluded=False,
                backend=self.name,
                extra={"note": "zero selection efficiency"},
            )

        experiment = CountingExperiment(
            n_observed=search.n_observed,
            background=search.background,
            background_uncertainty=search.background_uncertainty,
            signal_efficiency=efficiency,
            luminosity=search.luminosity_ipb,
        )
        limit = cls_upper_limit(experiment, n_toys=self.n_limit_toys,
                                seed=self.seed + 3)
        return RecastResult(
            analysis_id=search.analysis_id,
            model_name=model.name,
            n_generated=self.n_events,
            n_selected=n_selected,
            signal_efficiency=efficiency,
            efficiency_error=efficiency_error,
            upper_limit_pb=limit.upper_limit,
            model_cross_section_pb=process.cross_section_pb,
            excluded=limit.excludes_cross_section(
                process.cross_section_pb
            ),
            backend=self.name,
            extra=build_limit_result_extra(limit),
        )
