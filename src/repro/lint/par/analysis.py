"""Worker reachability and kernel-contract checks (DAS301–DAS312).

The scan layer attaches direct hazards to functions; this layer asks
the two questions the parallel contract cares about:

*Can a pool worker reach that hazard?* Worker roots are resolved from
every dispatch site (:mod:`repro.runtime.workers`) in the target
modules — through ``functools.partial`` wrappers and lambda bodies —
then hazards are propagated backwards along the call graph's resolved
edges. Edges into ``module:<module>`` pseudo-nodes are deliberately
*not* followed: import-time initialisation is serialised by the import
lock and already policed by DAS006/DAS206, so a module-level registry
build is not a parallel hazard.

*Does a kernel honour its declared tier?* Functions carrying an
``@equivalence_tier(...)`` declaration are checked directly: no
in-place mutation or aliasing of caller buffers at any tier, no random
draws or order-sensitive reductions at the ``exact`` tier.

Findings carry the full shortest witness chain, like DAS2xx. Waivers
work the usual way: ``# lint: ignore[DAS3nn]`` at the hazard line
kills every chain through it, a waiver at the worker (or kernel)
definition line kills the finding itself. Unlike the deep pass,
chains of length one are reported — there is no shallow DAS3xx
equivalent to defer to.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, analyze_tree
from repro.lint.flow.chains import ChainAnalysis, readable, render_chain
from repro.lint.par.rules import (
    RULE_PAR_ARG_ATTR_WRITE,
    RULE_PAR_EXACT_RNG,
    RULE_PAR_GLOBAL_WRITE,
    RULE_PAR_INPLACE_PARAM,
    RULE_PAR_INVALID_TIER,
    RULE_PAR_ORDER_SENSITIVE,
    RULE_PAR_RETURNS_VIEW,
    RULE_PAR_SELF_WRITE,
    RULE_PAR_SHARED_RNG,
    RULE_PAR_STATE_MUTATION,
    RULE_PAR_UNDERIVED_SEED,
    RULE_PAR_UNPICKLABLE,
)
from repro.lint.par.scan import DispatchSite, ParFactKind, scan_par_module
from repro.lint.pycheck import _dotted_name

#: Hazards that travel along call edges to a worker root.
_PROPAGATED = {
    ParFactKind.GLOBAL_WRITE: RULE_PAR_GLOBAL_WRITE,
    ParFactKind.STATE_MUTATION: RULE_PAR_STATE_MUTATION,
    ParFactKind.SELF_WRITE: RULE_PAR_SELF_WRITE,
    ParFactKind.SHARED_RNG: RULE_PAR_SHARED_RNG,
    ParFactKind.UNDERIVED_SEED: RULE_PAR_UNDERIVED_SEED,
    ParFactKind.INPLACE_PARAM: RULE_PAR_INPLACE_PARAM,
    ParFactKind.ARG_ATTR_WRITE: RULE_PAR_ARG_ATTR_WRITE,
}

#: Hazards checked directly on tier-declared kernels, at any tier.
_KERNEL_ANY_TIER = {
    ParFactKind.INPLACE_PARAM: RULE_PAR_INPLACE_PARAM,
    ParFactKind.ARG_ATTR_WRITE: RULE_PAR_ARG_ATTR_WRITE,
    ParFactKind.RETURNS_VIEW: RULE_PAR_RETURNS_VIEW,
}

#: Hazards that additionally break the ``exact`` tier's bit-identity.
_KERNEL_EXACT_TIER = {
    ParFactKind.RNG_DRAW: RULE_PAR_EXACT_RNG,
    ParFactKind.SHARED_RNG: RULE_PAR_EXACT_RNG,
    ParFactKind.ORDER_SENSITIVE: RULE_PAR_ORDER_SENSITIVE,
}

#: Every code a fact kind can surface as — a waiver at the fact line
#: naming any of them (or a bare marker) kills all chains through it.
_KIND_CODES = {
    ParFactKind.GLOBAL_WRITE: {"DAS301"},
    ParFactKind.STATE_MUTATION: {"DAS302"},
    ParFactKind.SELF_WRITE: {"DAS303"},
    ParFactKind.SHARED_RNG: {"DAS305", "DAS310"},
    ParFactKind.UNDERIVED_SEED: {"DAS306"},
    ParFactKind.INPLACE_PARAM: {"DAS307"},
    ParFactKind.RETURNS_VIEW: {"DAS308"},
    ParFactKind.ARG_ATTR_WRITE: {"DAS309"},
    ParFactKind.RNG_DRAW: {"DAS310"},
    ParFactKind.ORDER_SENSITIVE: {"DAS311"},
}


class _ParAnalysis(ChainAnalysis):
    """One par pass over one built call graph."""

    def __init__(self, graph: CallGraph) -> None:
        self.par_scans = {
            name: scan_par_module(name, scan)
            for name, scan in sorted(graph.scans.items())}
        super().__init__(graph, {
            qualname: found for scan in self.par_scans.values()
            for qualname, found in scan.facts.items()}, _KIND_CODES)

    # -- worker roots --------------------------------------------------

    def _resolve_worker(self, site: DispatchSite
                        ) -> tuple[list[str], list[str]]:
        """(root qualnames, unpicklable worker descriptions).

        Follows ``partial(f, ...)`` wrappers and simple local bindings
        one step at a time until a name, a lambda or a dead end.
        """
        roots: list[str] = []
        unpicklable: list[str] = []
        chased: set[str] = set()
        expr: ast.expr | None = site.worker
        while expr is not None:
            worker, expr = expr, None
            if isinstance(worker, ast.Lambda):
                unpicklable.append("a lambda")
                for sub in ast.walk(worker.body):
                    if isinstance(sub, ast.Call):
                        dotted = _dotted_name(sub.func)
                        if dotted is not None:
                            roots.extend(self._resolve(site, dotted))
            elif isinstance(worker, ast.Call):
                dotted = _dotted_name(worker.func)
                if (dotted is not None
                        and dotted.rpartition(".")[2] == "partial"
                        and worker.args):
                    expr = worker.args[0]
            else:
                dotted = _dotted_name(worker)
                if dotted is None:
                    continue
                if "." not in dotted and dotted in site.nested_names:
                    unpicklable.append(
                        f"locally defined function {dotted!r}")
                elif ("." not in dotted and dotted in site.bindings
                        and dotted not in chased):
                    chased.add(dotted)
                    expr = site.bindings[dotted]
                else:
                    roots.extend(self._resolve(site, dotted))
        return roots, unpicklable

    def _resolve(self, site: DispatchSite, dotted: str) -> list[str]:
        target = self.graph.resolve_call(site.module, dotted,
                                         site.class_name)
        return [] if target is None else [target]

    def _worker_roots(self) -> dict[str, list[DispatchSite]]:
        """Every resolved worker root in the target modules."""
        roots: dict[str, list[DispatchSite]] = {}
        for module in sorted(set(self.graph.modules.targets)):
            par_scan = self.par_scans.get(module)
            if par_scan is None:
                continue
            for site in par_scan.sites:
                resolved, unpicklable = self._resolve_worker(site)
                for description in unpicklable:
                    self._unpicklable_finding(site, description)
                for root in resolved:
                    roots.setdefault(root, []).append(site)
        for sites in roots.values():
            sites.sort(key=lambda s: (s.module, s.line, s.dispatcher))
        return roots

    def _unpicklable_finding(self, site: DispatchSite,
                             description: str) -> None:
        if self._waived(site.module, site.line,
                        {RULE_PAR_UNPICKLABLE.code}):
            return
        self.findings.append(RULE_PAR_UNPICKLABLE.finding(
            f"{site.dispatcher}() dispatches {description} as a "
            f"parallel worker; process pools cannot pickle it, so "
            f"the call dies under mode='process' only",
            artifact=readable(site.caller),
            file=self._module_file(site.module), line=site.line,
        ))

    # -- propagation ---------------------------------------------------

    def _worker_findings(self) -> None:
        for root, sites in sorted(self._worker_roots().items()):
            info = self.graph.functions.get(root)
            if info is None:
                continue
            site = sites[0]
            traces = self._trace(root)
            for kind in sorted(traces, key=lambda k: k.value):
                rule = _PROPAGATED.get(kind)
                if rule is None:
                    continue
                fact, chain = traces[kind]
                if self._waived(info.module, info.lineno,
                                {rule.code}):
                    continue
                holder = self.graph.functions[chain[-1]]
                fact_file = self._module_file(holder.module)
                self.findings.append(rule.finding(
                    f"parallel worker {readable(root)!r} "
                    f"(dispatched by {site.dispatcher}() at "
                    f"{self._module_file(site.module)}:{site.line}) "
                    f"reaches {fact.description} via "
                    f"{render_chain(chain)} "
                    f"({fact_file}:{fact.line})",
                    artifact=readable(root),
                    file=self._module_file(info.module),
                    line=info.lineno,
                ))

    # -- kernels -------------------------------------------------------

    def _kernel_findings(self) -> None:
        for module in sorted(set(self.graph.modules.targets)):
            par_scan = self.par_scans.get(module)
            if par_scan is None:
                continue
            file = self._module_file(module)
            for qualname, line, problem in par_scan.tier_errors:
                if self._waived(module, line,
                                {RULE_PAR_INVALID_TIER.code}):
                    continue
                self.findings.append(RULE_PAR_INVALID_TIER.finding(
                    f"equivalence-tier declaration on "
                    f"{readable(qualname)!r}: {problem}",
                    artifact=readable(qualname), file=file,
                    line=line,
                ))
            for qualname, decl in sorted(par_scan.tiers.items()):
                reported: set[str] = set()
                for fact in self.facts.get(qualname, ()):
                    rule = _KERNEL_ANY_TIER.get(fact.kind)
                    if rule is None and decl.tier == "exact":
                        rule = _KERNEL_EXACT_TIER.get(fact.kind)
                    if rule is None or rule.code in reported:
                        continue
                    reported.add(rule.code)
                    self.findings.append(rule.finding(
                        f"{decl.tier}-tier kernel "
                        f"{readable(qualname)!r} has "
                        f"{fact.description} ({file}:{fact.line})",
                        artifact=readable(qualname), file=file,
                        line=fact.line,
                    ))

    def run(self) -> list[Finding]:
        self._worker_findings()
        self._kernel_findings()
        return sorted(self.findings, key=Finding.sort_key)


def par_findings(graph: CallGraph) -> list[Finding]:
    """All DAS301–DAS312 findings for one analysed tree."""
    return _ParAnalysis(graph).run()


def lint_tree_par(root) -> list[Finding]:
    """Run the parallel-safety pass over one file or directory."""
    return par_findings(analyze_tree(root))
