"""Replay-root escape analysis (DAS401–DAS412).

The scan layer attaches direct instabilities to functions; this layer
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
from repro.lint.det.scan import DetFactKind, RootDecl, scan_det_module
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, analyze_tree
from repro.lint.flow.chains import ChainAnalysis, readable, render_chain

#: Instabilities that travel along call edges to a replay root.
_PROPAGATED = {
    DetFactKind.NONCANONICAL_JSON: RULE_DET_NONCANONICAL_JSON,
    DetFactKind.SET_ITERATION: RULE_DET_SET_ITERATION,
    DetFactKind.DICT_VIEW_ITERATION: RULE_DET_DICT_ITERATION,
    DetFactKind.UNSORTED_FS: RULE_DET_UNSORTED_FS,
    DetFactKind.WALL_CLOCK: RULE_DET_WALL_CLOCK,
    DetFactKind.HASH_IDENTITY: RULE_DET_HASH_IDENTITY,
    DetFactKind.ENV_READ: RULE_DET_ENV_READ,
    DetFactKind.FLOAT_FORMAT: RULE_DET_FLOAT_FORMAT,
    DetFactKind.UNDERIVED_RNG: RULE_DET_UNDERIVED_RNG,
    DetFactKind.LOCALE_STRING: RULE_DET_LOCALE_STRING,
    DetFactKind.DICT_FROM_UNORDERED: RULE_DET_DICT_FROM_UNORDERED,
}

#: Every code a fact kind surfaces as — a waiver at the fact line
#: naming it (or a bare marker) kills all chains through it.
_KIND_CODES = {
    kind: {rule.code} for kind, rule in _PROPAGATED.items()
}


class _DetAnalysis(ChainAnalysis):
    """One det pass over one built call graph."""

    def __init__(self, graph: CallGraph) -> None:
        self.det_scans = {
            name: scan_det_module(name, scan)
            for name, scan in sorted(graph.scans.items())}
        super().__init__(graph, {
            qualname: found for scan in self.det_scans.values()
            for qualname, found in scan.facts.items()}, _KIND_CODES)

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

    def _declared_roots(self) -> dict[str, RootDecl]:
        """Decorator-declared roots in the target modules."""
        declared: dict[str, RootDecl] = {}
        for module in sorted(set(self.graph.modules.targets)):
            det_scan = self.det_scans.get(module)
            if det_scan is None:
                continue
            declared.update(det_scan.roots)
        return declared

    def _declaration_findings(self) -> dict[str, RootDecl]:
        """DAS412 for bad declarations; the valid roots survive."""
        declared = self._declared_roots()
        for module in sorted(set(self.graph.modules.targets)):
            det_scan = self.det_scans.get(module)
            if det_scan is None:
                continue
            file = self._module_file(module)
            for qualname, line, problem in det_scan.root_errors:
                if self._waived(module, line,
                                {RULE_DET_INVALID_ROOT.code}):
                    continue
                self.findings.append(RULE_DET_INVALID_ROOT.finding(
                    f"replay-root declaration on "
                    f"{readable(qualname)!r}: {problem}",
                    artifact=readable(qualname), file=file,
                    line=line,
                ))
        by_label: dict[str, list[str]] = {}
        for qualname, decl in declared.items():
            if decl.label:
                by_label.setdefault(decl.label, []).append(qualname)
        for label, holders in sorted(by_label.items()):
            if len(holders) < 2:
                continue
            holders.sort()
            for qualname in holders[1:]:
                decl = declared[qualname]
                module = qualname.partition(":")[0]
                if self._waived(module, decl.line,
                                {RULE_DET_INVALID_ROOT.code}):
                    continue
                self.findings.append(RULE_DET_INVALID_ROOT.finding(
                    f"replay-root declaration on "
                    f"{readable(qualname)!r}: label {label!r} is "
                    f"already declared by "
                    f"{readable(holders[0])!r}; every root needs a "
                    f"unique name",
                    artifact=readable(qualname),
                    file=self._module_file(module), line=decl.line,
                ))
        return declared

    # -- propagation ---------------------------------------------------

    def _root_findings(self, roots: dict[str, str]) -> None:
        for root, label in sorted(roots.items()):
            info = self.graph.functions.get(root)
            if info is None:
                continue
            suffix = f" ({label})" if label else ""
            traces = self._trace(root)
            for kind in sorted(traces, key=lambda k: k.value):
                rule = _PROPAGATED[kind]
                fact, chain = traces[kind]
                if self._waived(info.module, info.lineno,
                                {rule.code}):
                    continue
                holder = self.graph.functions[chain[-1]]
                fact_file = self._module_file(holder.module)
                self.findings.append(rule.finding(
                    f"replay root {readable(root)!r}{suffix} "
                    f"reaches {fact.description} via "
                    f"{render_chain(chain)} "
                    f"({fact_file}:{fact.line}); re-serialisation "
                    f"is not byte-stable",
                    artifact=readable(root),
                    file=self._module_file(info.module),
                    line=info.lineno,
                ))

    def run(self) -> list[Finding]:
        declared = self._declaration_findings()
        roots = self._registry_roots()
        for qualname, decl in declared.items():
            roots.setdefault(qualname, decl.label)
        self._root_findings(roots)
        return sorted(self.findings, key=Finding.sort_key)


def det_findings(graph: CallGraph) -> list[Finding]:
    """All DAS401–DAS412 findings for one analysed tree."""
    return _DetAnalysis(graph).run()


def lint_tree_det(root) -> list[Finding]:
    """Run the determinism/replay pass over one file or directory."""
    return det_findings(analyze_tree(root))
