"""Static dependency-closure extraction for Analysis plugins.

The closure of an analysis is everything a re-run will touch: the
functions its entry points can call, the modules those functions live
in (plus everything *they* import at import time), the conditions
global tags the code asks for, and the histogram keys it books against
reference data. All of it is computed statically from the call and
import graphs — the analysis is never executed — and serialised as a
deterministic :class:`~repro.lint.flow.manifest.ClosureManifest`.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.lint.flow.callgraph import CallGraph, ClassInfo, analyze_tree
from repro.lint.flow.manifest import ClosureManifest
from repro.lint.flow.modgraph import reachable


def extract_closure(root, entry: str | None = None) -> ClosureManifest:
    """Extract the dependency closure of the Analysis classes in a tree.

    ``entry`` restricts extraction to one Analysis subclass (by class
    name or by its metadata name); by default every Analysis subclass
    in the target modules contributes.
    """
    graph = analyze_tree(root)
    return extract_closure_from_graph(graph, entry=entry)


def extract_closure_from_graph(graph: CallGraph,
                               entry: str | None = None
                               ) -> ClosureManifest:
    """Closure extraction over an already-built call graph."""
    entries = graph.analysis_entries()
    if entry is not None:
        entries = [info for info in entries
                   if entry in (info.name, info.metadata_name)]
        if not entries:
            raise ConfigurationError(
                f"no Analysis subclass {entry!r} in the target tree"
            )
    analyses: list[dict] = []
    reached: set[str] = set()
    tags: set[str] = set()
    for info in entries:
        methods = graph.entry_methods(info)
        functions = reachable(methods, lambda qualname: [
            callee for callee, _ in graph.functions[qualname].calls
            if callee in graph.functions])
        reached |= functions
        booked = set().union(*(graph.functions[qualname].booked
                               for qualname in functions))
        tags.update(*(graph.functions[qualname].tags
                      for qualname in functions))
        analyses.append({
            "class": info.name,
            "qualname": info.qualname,
            "module": info.module,
            "name": info.metadata_name,
            "inspire_id": info.inspire_id,
            "entry_methods": sorted(
                m.rpartition(".")[2] for m in methods),
            "booked_keys": sorted(booked),
        })

    function_modules = sorted({
        graph.functions[qualname].module for qualname in reached
    } | {info.module for info in entries})
    module_names = graph.modules.internal_closure(function_modules)
    externals: set[str] = set()
    unresolved: set[str] = set()
    for name in module_names:
        node = graph.modules.modules[name]
        externals.update(node.external_imports)
        unresolved.update(rendered
                          for rendered, _ in node.unresolved_imports)
    modules = [{
        "module": name,
        "path": graph.modules.modules[name].path,
        "sha256": graph.modules.modules[name].source_digest,
    } for name in module_names]

    return ClosureManifest(
        root=graph.modules.anchor.name,
        analyses=sorted(analyses, key=lambda a: a["qualname"]),
        functions=tuple(sorted(
            q for q in reached if not q.endswith(":<module>"))),
        modules=tuple(modules),
        external_modules=tuple(sorted(externals)),
        conditions_tags=tuple(sorted(tags)),
        unresolved_imports=tuple(sorted(unresolved)),
    )
