"""Per-layer tracing from outside the program, and its self-time fold.

A traced pass installs :class:`LayerTracing`, which replaces the public
entry points of each layer — class methods on the class, module-level
functions in every ``repro`` module that bound them — with wrappers
that open one ``repro.obs.Tracer`` span per call. Because the wrapping
is on the class or module, the split follows whatever path the program
takes to reach a layer. Entry points that return iterators are timed
per ``next()``. The program's own ``tracer=``/``metrics=`` arguments
stay unset.

:func:`fold` turns one pass's spans into per-layer self times with
``repro.obs.SpanProfile``, whose integer-microsecond self times sum
exactly to the pass total; the fold raises if they do not.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass, field

from repro.obs import SpanProfile, Tracer
from repro.obs.profile import validate_profile

#: Name of the span each traced pass runs under; its self time is the
#: benchmark's own loop plus program code outside every layer.
ROOT_SPAN = "harness"

#: How an entry point's work is counted in its span's ``items``.
ONE, BATCH, ITERATOR = "one", "batch", "iterator"

#: ``(layer, module, attribute, kind)`` for every wrapped entry point.
#: ``attribute`` is ``Class.method`` or a module-level function name.
ENTRY_POINTS = (
    ("generation", "repro.generation.generator", "ToyGenerator.stream",
     ITERATOR),
    ("detector.simulation", "repro.detector.simulation",
     "DetectorSimulation.simulate", ONE),
    ("detector.simulation", "repro.detector.simulation",
     "DetectorSimulation.simulate_many_batch", BATCH),
    ("detector.digitization", "repro.detector.digitization",
     "Digitizer.digitize", ONE),
    ("detector.digitization", "repro.detector.digitization",
     "Digitizer.digitize_many_batch", BATCH),
    ("reconstruction", "repro.reconstruction.reconstructor",
     "Reconstructor.reconstruct", ONE),
    ("reconstruction", "repro.reconstruction.reconstructor",
     "Reconstructor.reconstruct_batch", BATCH),
    ("conditions", "repro.conditions.cache",
     "CachedConditionsView.payload", ONE),
    ("conditions", "repro.reconstruction.reconstructor",
     "GlobalTagView.payload", ONE),
    ("workflow.campaign", "repro.workflow.campaign",
     "ProcessingCampaign.process", ONE),
    ("datamodel.io.write", "repro.datamodel.io", "write_dataset", ONE),
    ("datamodel.io.write", "repro.datamodel.io", "DatasetWriter.write", ONE),
    ("datamodel.io.write", "repro.datamodel.io", "DatasetWriter.close", ONE),
    ("datamodel.io.read", "repro.datamodel.io", "read_dataset", ONE),
    ("datamodel.io.read", "repro.datamodel.io", "DatasetReader.__init__",
     ONE),
    ("datamodel.io.read", "repro.datamodel.io", "DatasetReader.records",
     ITERATOR),
    ("datamodel.io.read", "repro.datamodel.event", "AODEvent.from_dict",
     ONE),
    ("datamodel.skimslim", "repro.datamodel.skimslim", "SkimSpec.apply",
     BATCH),
    ("datamodel.skimslim", "repro.datamodel.skimslim", "SlimSpec.apply",
     BATCH),
    ("rivet", "repro.rivet.runner", "RivetRunner.run", ONE),
    ("stats.limits", "repro.stats.limits", "cls_upper_limit", ONE),
    ("core.archive.store", "repro.core.archive",
     "PreservationArchive.store", ONE),
    ("core.archive.save", "repro.core.archive",
     "PreservationArchive.save", ONE),
    ("core.archive.load", "repro.core.archive",
     "PreservationArchive.load", ONE),
    ("core.archive.verify", "repro.core.archive",
     "PreservationArchive.verify_all", ONE),
    ("service.submit", "repro.service.scheduler", "RecastService.submit",
     ONE),
    ("service.step", "repro.service.scheduler", "RecastService.step", ONE),
    ("recast.backend", "repro.recast.backend", "FullChainBackend.process",
     ONE),
    ("lint.shallow", "repro.lint.targets", "lint_path", ONE),
    ("lint.flow", "repro.lint.flow.taint", "lint_tree_deep", ONE),
    ("lint.par", "repro.lint.par.analysis", "lint_tree_par", ONE),
    ("lint.det", "repro.lint.det.analysis", "lint_tree_det", ONE),
    ("lint.report", "repro.lint.engine", "LintReport.from_findings", ONE),
    ("lint.report", "repro.lint.report", "render_json", ONE),
)

#: Every layer name, in table order, then the root.
LAYERS = tuple(dict.fromkeys(entry[0] for entry in ENTRY_POINTS)) \
    + (ROOT_SPAN,)


class _TimedIterator:
    """Times each ``next()`` of an iterator under one span."""

    __slots__ = ("_tracer", "_layer", "_inner")

    def __init__(self, tracer: Tracer, layer: str, inner) -> None:
        self._tracer = tracer
        self._layer = layer
        self._inner = iter(inner)

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        with self._tracer.span(self._layer) as span:
            try:
                item = next(self._inner)
            except StopIteration:
                span.set("items", 0)
                raise
            span.set("items", 1)
        return item


def _wrap(tracer: Tracer, layer: str, kind: str, function):
    """A span-recording stand-in for one entry point."""
    if kind == ITERATOR:
        @functools.wraps(function)
        def iterating(*args, **kwargs):
            return _TimedIterator(tracer, layer, function(*args, **kwargs))
        return iterating

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracer.span(layer) as span:
            if kind == BATCH:
                # The batch is the first argument after ``self``.
                span.set("items", len(args[1]) if len(args) > 1 else 0)
            else:
                span.set("items", 1)
            return function(*args, **kwargs)
    return wrapper


class LayerTracing:
    """Installs span wrappers on every entry point; a context manager.

    Everything it replaces is put back on exit, so passes run before
    and after a traced pass execute the program's own objects.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list = []

    def __enter__(self) -> "LayerTracing":
        try:
            for layer, module_name, attribute, kind in ENTRY_POINTS:
                module = importlib.import_module(module_name)
                if "." in attribute:
                    self._wrap_method(module, attribute, layer, kind)
                else:
                    self._wrap_function(module, attribute, layer, kind)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._restore()

    def _wrap_method(self, module, attribute: str, layer: str,
                     kind: str) -> None:
        class_name, method = attribute.split(".")
        owner = getattr(module, class_name)
        raw = owner.__dict__[method]
        if isinstance(raw, classmethod):
            replacement = classmethod(
                _wrap(self.tracer, layer, kind, raw.__func__))
        else:
            replacement = _wrap(self.tracer, layer, kind, raw)
        setattr(owner, method, replacement)
        self._undo.append((owner, method, raw))

    def _wrap_function(self, module, attribute: str, layer: str,
                       kind: str) -> None:
        original = getattr(module, attribute)
        replacement = _wrap(self.tracer, layer, kind, original)
        # Rebind the name wherever a ``repro`` module imported it, so a
        # caller reaches the wrapper whichever module it imported from.
        for name, loaded in sorted(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            namespace = getattr(loaded, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, key, replacement)
                    self._undo.append((loaded, key, original))

    def _restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


@dataclass
class LayerTable:
    """Per-layer self time (integer µs), calls and items of traced passes."""

    self_us: dict = field(default_factory=lambda: defaultdict(int))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    items: dict = field(default_factory=lambda: defaultdict(int))
    total_us: int = 0
    passes: int = 0

    def add(self, other: "LayerTable") -> None:
        """Accumulate another table (one more pass) into this one."""
        for layer, value in other.self_us.items():
            self.self_us[layer] += value
        for layer, value in other.calls.items():
            self.calls[layer] += value
        for layer, value in other.items.items():
            self.items[layer] += value
        self.total_us += other.total_us
        self.passes += other.passes

    def telescopes(self) -> bool:
        """True when the layer self times sum exactly to the total."""
        return sum(self.self_us.values()) == self.total_us


def fold(spans) -> LayerTable:
    """Fold one traced pass's spans into a :class:`LayerTable`.

    Raises ``repro.errors.ObservabilityError`` if the profile breaks
    the telescoping identity, or ``ValueError`` if the layer self
    times do not sum exactly to the traced total.
    """
    records = [span.to_dict() for span in spans]
    profile = SpanProfile.from_spans(records)
    validate_profile(profile.to_dict())
    table = LayerTable(total_us=profile.total_us, passes=1)
    for node in profile.nodes:
        table.self_us[node.name] += node.self_us
    # Calls and items count outermost spans only: a layer entry point
    # that reaches another entry point of the same layer (a batch that
    # loops over the per-event method) is one unit of work, not two.
    names = {record["span_id"]: record["name"] for record in records}
    for record in records:
        if names.get(record["parent_id"]) == record["name"]:
            continue
        table.calls[record["name"]] += 1
        table.items[record["name"]] += record["attributes"].get("items", 0)
    if not table.telescopes():
        raise ValueError(
            f"layer self times sum to {sum(table.self_us.values())} us, "
            f"not the traced total {table.total_us} us")
    return table
