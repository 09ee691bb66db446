"""Worker reachability and kernel-contract checks (DAS301–DAS312).

The scan tables attach direct hazards to functions; this layer asks
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
from repro.lint.flow.chains import ChainAnalysis, readable, scope_facts
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
from repro.lint.par.scan import (
    DispatchSite,
    dispatch_sites,
    par_facts,
    tier_problem,
)
from repro.lint.pycheck import _dotted_name

#: Hazards that travel along call edges to a worker root.
_PROPAGATED = {
    "global-write": RULE_PAR_GLOBAL_WRITE,
    "state-mutation": RULE_PAR_STATE_MUTATION,
    "self-write": RULE_PAR_SELF_WRITE,
    "shared-rng": RULE_PAR_SHARED_RNG,
    "underived-seed": RULE_PAR_UNDERIVED_SEED,
    "inplace-param": RULE_PAR_INPLACE_PARAM,
    "arg-attr-write": RULE_PAR_ARG_ATTR_WRITE,
}

#: Hazards checked directly on tier-declared kernels, at any tier.
_KERNEL_ANY_TIER = {
    "inplace-param": RULE_PAR_INPLACE_PARAM,
    "arg-attr-write": RULE_PAR_ARG_ATTR_WRITE,
    "returns-view": RULE_PAR_RETURNS_VIEW,
}

#: Hazards that additionally break the ``exact`` tier's bit-identity.
_KERNEL_EXACT_TIER = {
    "rng-draw": RULE_PAR_EXACT_RNG,
    "shared-rng": RULE_PAR_EXACT_RNG,
    "order-sensitive": RULE_PAR_ORDER_SENSITIVE,
}

#: Every code a fact kind can surface as — a waiver at the fact line
#: naming any of them (or a bare marker) kills all chains through it.
_TABLES = (_PROPAGATED, _KERNEL_ANY_TIER, _KERNEL_EXACT_TIER)
_KIND_CODES = {kind: {table[kind].code for table in _TABLES
                      if kind in table}
               for table in _TABLES for kind in table}


class _ParAnalysis(ChainAnalysis):
    """One par pass over one built call graph."""

    def __init__(self, graph: CallGraph) -> None:
        super().__init__(graph, scope_facts(graph, par_facts),
                         _KIND_CODES)

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
        bindings = site.scope.bindings(per_statement=True)
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
                if "." not in dotted and dotted in site.scope.nested:
                    unpicklable.append(
                        f"locally defined function {dotted!r}")
                elif ("." not in dotted and dotted in bindings
                        and dotted not in chased):
                    chased.add(dotted)
                    expr = bindings[dotted]
                else:
                    roots.extend(self._resolve(site, dotted))
        return roots, unpicklable

    def _resolve(self, site: DispatchSite, dotted: str) -> list[str]:
        target = self.graph.resolve_call(site.module, dotted,
                                         site.scope.class_name)
        return [] if target is None else [target]

    def _worker_roots(self) -> dict[str, list[DispatchSite]]:
        """Every resolved worker root in the target modules."""
        roots: dict[str, list[DispatchSite]] = {}
        for module in sorted(set(self.graph.modules.targets)):
            facts = self.graph.facts.get(module)
            if facts is None:
                continue
            for site in dispatch_sites(module, facts):
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
            artifact=readable(site.scope.qualname),
            file=self._module_file(site.module), line=site.line,
        ))

    # -- kernels -------------------------------------------------------

    def _kernel_findings(self) -> None:
        tiers = self.declarations(
            "equivalence_tier", "tier", RULE_PAR_INVALID_TIER,
            "equivalence-tier declaration", tier_problem)
        for qualname, (tier, _) in sorted(tiers.items()):
            file = self._module_file(qualname.partition(":")[0])
            reported: set[str] = set()
            for fact in self.facts.get(qualname, ()):
                rule = _KERNEL_ANY_TIER.get(fact.kind)
                if rule is None and tier == "exact":
                    rule = _KERNEL_EXACT_TIER.get(fact.kind)
                if rule is None or rule.code in reported:
                    continue
                reported.add(rule.code)
                self.findings.append(rule.finding(
                    f"{tier}-tier kernel {readable(qualname)!r} has "
                    f"{fact.description} ({file}:{fact.line})",
                    artifact=readable(qualname), file=file,
                    line=fact.line,
                ))

    def run(self) -> list[Finding]:
        for root, sites in sorted(self._worker_roots().items()):
            site = sites[0]
            self.report_chains(
                root, _PROPAGATED,
                f"parallel worker {readable(root)!r} (dispatched by "
                f"{site.dispatcher}() at "
                f"{self._module_file(site.module)}:{site.line})",
                artifact=readable(root))
        self._kernel_findings()
        return sorted(self.findings, key=Finding.sort_key)


def par_findings(graph: CallGraph) -> list[Finding]:
    """All DAS301–DAS312 findings for one analysed tree."""
    return _ParAnalysis(graph).run()


def lint_tree_par(root) -> list[Finding]:
    """Run the parallel-safety pass over one file or directory."""
    return par_findings(analyze_tree(root))
