"""``repro.lint.flow`` — the interprocedural (deep) analysis layer.

Where ``repro.lint.pycheck`` inspects one file one statement at a
time, this package reasons over a whole source tree: a module/import
graph (:mod:`modgraph`), a per-function call graph (:mod:`callgraph`),
taint propagation that carries impurity facts to ``Analysis`` entry
points (:mod:`taint`, rules ``DAS201``–``DAS207``), and a static
dependency-closure extractor whose deterministic manifest is checked
against the archive and the catalogues (:mod:`closure`,
:mod:`manifest`, rules ``DAS208``–``DAS212``).
"""

from repro.lint.flow.callgraph import (
    ANALYSIS_ENTRY_METHODS,
    CallGraph,
    ClassInfo,
    FunctionInfo,
    analyze_tree,
    build_call_graph,
)
from repro.lint.flow.closure import (
    extract_closure,
    extract_closure_from_graph,
)
from repro.lint.flow.manifest import (
    ClosureManifest,
    archive_closure_sources,
    check_manifest_against_archive,
    check_manifest_against_recast,
    check_manifest_against_repository,
    source_module_payload,
)
from repro.lint.flow.modgraph import (
    ModuleGraph,
    ModuleNode,
    build_module_graph,
)
from repro.lint.flow.taint import (
    TaintFact,
    TaintKind,
    deep_findings,
    direct_facts,
    lint_tree_deep,
)

__all__ = [
    "ANALYSIS_ENTRY_METHODS",
    "CallGraph",
    "ClassInfo",
    "ClosureManifest",
    "FunctionInfo",
    "ModuleGraph",
    "ModuleNode",
    "TaintFact",
    "TaintKind",
    "analyze_tree",
    "archive_closure_sources",
    "build_call_graph",
    "build_module_graph",
    "check_manifest_against_archive",
    "check_manifest_against_recast",
    "check_manifest_against_repository",
    "deep_findings",
    "direct_facts",
    "extract_closure",
    "extract_closure_from_graph",
    "lint_tree_deep",
    "source_module_payload",
]
