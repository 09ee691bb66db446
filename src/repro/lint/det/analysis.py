"""Replay-root escape analysis (DAS401–DAS412).

The scan tables attach direct instabilities to functions; this layer
asks the one question the replay contract cares about: *can a
declared serialization root reach that instability?* Roots come from
two places — the library registry (:mod:`repro.lint.det.roots`,
matched by dotted name against the call graph) and ``@replay_root``
decorators found statically in the analysed tree. Instabilities are
then propagated backwards along the call graph's resolved edges,
exactly like the DAS2xx/DAS3xx passes. Edges into ``module:<module>``
pseudo-nodes are deliberately *not* followed: import-time work runs
once per process, before any serialisation, and is policed by
DAS006/DAS206.

Findings carry the full shortest witness chain, like DAS2xx/DAS3xx.
Waivers work the usual way: ``# lint: ignore[DAS4nn]`` at the
instability line kills every chain through it, a waiver at the root's
definition line kills the finding itself.
"""

from __future__ import annotations

from repro.lint.det.roots import replay_roots
from repro.lint.det.rules import (
    RULE_DET_DICT_FROM_UNORDERED,
    RULE_DET_DICT_ITERATION,
    RULE_DET_ENV_READ,
    RULE_DET_FLOAT_FORMAT,
    RULE_DET_HASH_IDENTITY,
    RULE_DET_INVALID_ROOT,
    RULE_DET_LOCALE_STRING,
    RULE_DET_NONCANONICAL_JSON,
    RULE_DET_SET_ITERATION,
    RULE_DET_UNDERIVED_RNG,
    RULE_DET_UNSORTED_FS,
    RULE_DET_WALL_CLOCK,
)
from repro.lint.det.scan import det_facts, root_problem
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, analyze_tree
from repro.lint.flow.chains import ChainAnalysis, readable, scope_facts

#: Instabilities that travel along call edges to a replay root.
_PROPAGATED = {
    "noncanonical-json": RULE_DET_NONCANONICAL_JSON,
    "set-iteration": RULE_DET_SET_ITERATION,
    "dict-view-iteration": RULE_DET_DICT_ITERATION,
    "unsorted-fs": RULE_DET_UNSORTED_FS,
    "wall-clock": RULE_DET_WALL_CLOCK,
    "hash-identity": RULE_DET_HASH_IDENTITY,
    "env-read": RULE_DET_ENV_READ,
    "float-format": RULE_DET_FLOAT_FORMAT,
    "underived-rng": RULE_DET_UNDERIVED_RNG,
    "locale-string": RULE_DET_LOCALE_STRING,
    "dict-from-unordered": RULE_DET_DICT_FROM_UNORDERED,
}

#: Every code a fact kind surfaces as — a waiver at the fact line
#: naming it (or a bare marker) kills all chains through it.
_KIND_CODES = {
    kind: {rule.code} for kind, rule in _PROPAGATED.items()
}


class _DetAnalysis(ChainAnalysis):
    """One det pass over one built call graph."""

    def __init__(self, graph: CallGraph) -> None:
        super().__init__(graph, scope_facts(graph, det_facts),
                         _KIND_CODES)

    # -- roots ---------------------------------------------------------

    def _registry_roots(self) -> dict[str, str]:
        """Registered roots present in the graph: qualname -> label."""
        wanted = replay_roots()
        found: dict[str, str] = {}
        for qualname in self.graph.functions:
            label = wanted.get(qualname.replace(":", "."))
            if label is not None:
                found[qualname] = label
        return found

    def _declared_roots(self) -> dict[str, tuple[str, int]]:
        """Decorator-declared roots of the target modules: qualname ->
        (label, line). DAS412 for bad and duplicate declarations."""
        declared = self.declarations("replay_root", "name",
                                     RULE_DET_INVALID_ROOT,
                                     "replay-root declaration",
                                     root_problem)
        by_label: dict[str, list[str]] = {}
        for qualname, (label, _) in declared.items():
            if label:
                by_label.setdefault(label, []).append(qualname)
        for label, holders in sorted(by_label.items()):
            holders.sort()
            for qualname in holders[1:]:
                self.invalid_declaration(
                    RULE_DET_INVALID_ROOT, "replay-root declaration",
                    qualname, declared[qualname][1],
                    f"label {label!r} is already declared by "
                    f"{readable(holders[0])!r}; every root needs a "
                    f"unique name")
        return declared

    def run(self) -> list[Finding]:
        roots = self._registry_roots()
        for qualname, (label, _) in self._declared_roots().items():
            roots.setdefault(qualname, label)
        for root, label in sorted(roots.items()):
            suffix = f" ({label})" if label else ""
            self.report_chains(
                root, _PROPAGATED,
                f"replay root {readable(root)!r}{suffix}",
                artifact=readable(root),
                tail="; re-serialisation is not byte-stable")
        return sorted(self.findings, key=Finding.sort_key)


def det_findings(graph: CallGraph) -> list[Finding]:
    """All DAS401–DAS412 findings for one analysed tree."""
    return _DetAnalysis(graph).run()


def lint_tree_det(root) -> list[Finding]:
    """Run the determinism/replay pass over one file or directory."""
    return det_findings(analyze_tree(root))
