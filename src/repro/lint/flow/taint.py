"""Taint propagation: impurity facts carried through the call graph.

The single-file pass (``pycheck``) flags an impure statement where it
stands. This pass asks the question preservation actually cares about:
*can an Analysis entry point reach that statement?* The call graph
classifies each function's direct facts with the classifiers the
shallow pass uses; they are propagated backwards along call and
import edges by the chain engine the par and det passes share
(:mod:`repro.lint.flow.chains`). Findings fire on the entry point,
carrying the full propagation chain in the message.

A fact whose source line is waived with ``# lint: ignore[...]`` — by
the matching shallow code (``DAS001``…), the matching deep code
(``DAS201``…), or a bare marker — does not propagate: a reasoned
waiver at the source silences every chain through it.

Chains of length one (the impure statement sits in the entry method
itself) are left to the shallow rules, which already report them; the
deep rules only report what at least one call or import edge hides.
"""

from __future__ import annotations

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, ClassInfo, analyze_tree
from repro.lint.flow.chains import ChainAnalysis, Fact
from repro.lint.flow.rules import (
    RULE_CLOSURE_UNRESOLVED,
    RULE_DEEP_ENV,
    RULE_DEEP_FILESYSTEM,
    RULE_DEEP_GLOBAL_WRITE,
    RULE_DEEP_NETWORK,
    RULE_DEEP_RANDOM,
    RULE_DEEP_WALLCLOCK,
)

#: The impurity kinds the deep pass propagates: their deep rule and the
#: shallow code whose waiver also silences it.
_KIND_RULES = {
    "wall-clock": (RULE_DEEP_WALLCLOCK, "DAS001"),
    "unseeded-rng": (RULE_DEEP_RANDOM, "DAS002"),
    "network": (RULE_DEEP_NETWORK, "DAS003"),
    "filesystem": (RULE_DEEP_FILESYSTEM, "DAS004"),
    "env-read": (RULE_DEEP_ENV, "DAS005"),
    "global-write": (RULE_DEEP_GLOBAL_WRITE, "DAS006"),
}

_RULES = {kind: rule for kind, (rule, _) in _KIND_RULES.items()}

#: Every code a fact kind surfaces as — a waiver at the fact line
#: naming either (or a bare marker) kills all chains through it.
_KIND_CODES = {kind: {rule.code, shallow_code}
               for kind, (rule, shallow_code) in _KIND_RULES.items()}


def direct_facts(graph: CallGraph) -> dict[str, tuple[Fact, ...]]:
    """Per-function direct impurity facts, before waivers."""
    return {qualname: info.facts
            for qualname, info in graph.functions.items() if info.facts}


class _DeepAnalysis(ChainAnalysis):
    """One deep pass over one built call graph."""

    follow_imports = True
    root_facts = False

    def __init__(self, graph: CallGraph) -> None:
        super().__init__(graph, direct_facts(graph), _KIND_CODES)

    def _entry_findings(self, entry: ClassInfo) -> None:
        """One finding per kind, from the first lifecycle method.

        The first lifecycle method that reaches a kind claims it for
        the class, so a waiver on its def line drops that kind from
        every later method too.
        """
        claimed: set[str] = set()
        for method_qualname in self.graph.entry_methods(entry):
            method = method_qualname.rpartition(".")[2]
            self.report_chains(
                method_qualname, _RULES,
                f"analysis {entry.name!r}: {method}()",
                artifact=entry.name, claimed=claimed)

    def run(self) -> list[Finding]:
        for entry in self.graph.analysis_entries():
            self._entry_findings(entry)
        for name in sorted(set(self.graph.modules.targets)):
            node = self.graph.modules.modules[name]
            for rendered, line in node.unresolved_imports:
                self.findings.append(RULE_CLOSURE_UNRESOLVED.finding(
                    f"relative import {rendered!r} cannot be resolved "
                    f"inside the tree; the dependency closure is "
                    f"incomplete",
                    file=node.path, line=line,
                ))
        return self.findings


def deep_findings(graph: CallGraph) -> list[Finding]:
    """All DAS201–DAS207 findings for one analysed tree."""
    return _DeepAnalysis(graph).run()


def lint_tree_deep(root) -> list[Finding]:
    """Run the interprocedural pass over one file or directory."""
    return deep_findings(analyze_tree(root))
