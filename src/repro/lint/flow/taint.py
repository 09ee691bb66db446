"""Taint propagation: impurity facts carried through the call graph.

The single-file pass (``pycheck``) flags an impure statement where it
stands. This pass asks the question preservation actually cares about:
*can an Analysis entry point reach that statement?* Direct facts are
classified from the call graph's external events using the same tables
the shallow pass uses, then propagated backwards along call and
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

import enum
from dataclasses import dataclass

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, ClassInfo, analyze_tree
from repro.lint.flow.chains import ChainAnalysis, render_chain
from repro.lint.flow.rules import (
    RULE_CLOSURE_UNRESOLVED,
    RULE_DEEP_ENV,
    RULE_DEEP_FILESYSTEM,
    RULE_DEEP_GLOBAL_WRITE,
    RULE_DEEP_NETWORK,
    RULE_DEEP_RANDOM,
    RULE_DEEP_WALLCLOCK,
)
from repro.lint.pycheck import (
    _NETWORK_MODULES,
    _NUMPY_RANDOM_SAFE,
    _OS_FILE_CALLS,
    _PATH_METHODS,
    _WALLCLOCK_CALLS,
)


class TaintKind(enum.Enum):
    """The impurity families the deep pass propagates."""

    WALL_CLOCK = "wall-clock"
    UNSEEDED_RNG = "unseeded-rng"
    NETWORK = "network"
    FILESYSTEM = "filesystem"
    ENV_READ = "env-read"
    GLOBAL_WRITE = "global-write"


#: Deep rule and the shallow code whose waiver also silences it.
_KIND_RULES = {
    TaintKind.WALL_CLOCK: (RULE_DEEP_WALLCLOCK, "DAS001"),
    TaintKind.UNSEEDED_RNG: (RULE_DEEP_RANDOM, "DAS002"),
    TaintKind.NETWORK: (RULE_DEEP_NETWORK, "DAS003"),
    TaintKind.FILESYSTEM: (RULE_DEEP_FILESYSTEM, "DAS004"),
    TaintKind.ENV_READ: (RULE_DEEP_ENV, "DAS005"),
    TaintKind.GLOBAL_WRITE: (RULE_DEEP_GLOBAL_WRITE, "DAS006"),
}

#: Every code a fact kind surfaces as — a waiver at the fact line
#: naming either (or a bare marker) kills all chains through it.
_KIND_CODES = {kind: {rule.code, shallow_code}
               for kind, (rule, shallow_code) in _KIND_RULES.items()}


@dataclass(frozen=True)
class TaintFact:
    """One direct impurity inside one function."""

    kind: TaintKind
    description: str
    module: str
    line: int


def _classify_call(dotted: str, has_args: bool) -> tuple | None:
    """(kind, description) of one resolved external call, if impure."""
    if dotted in _WALLCLOCK_CALLS:
        return TaintKind.WALL_CLOCK, f"wall-clock call {dotted}()"
    if dotted == "random.Random" and not has_args:
        return (TaintKind.UNSEEDED_RNG,
                "random.Random() constructed without a seed")
    if dotted.startswith("random.") and dotted != "random.Random":
        return (TaintKind.UNSEEDED_RNG,
                f"call to module-global RNG {dotted}()")
    if dotted == "numpy.random.default_rng" and not has_args:
        return (TaintKind.UNSEEDED_RNG,
                "numpy.random.default_rng() without a seed")
    if dotted.startswith("numpy.random."):
        attr = dotted.split(".", 2)[2]
        if attr not in _NUMPY_RANDOM_SAFE and attr != "default_rng":
            return (TaintKind.UNSEEDED_RNG,
                    f"call to legacy global RNG {dotted}()")
    root = dotted.split(".")[0]
    if root in _NETWORK_MODULES:
        return TaintKind.NETWORK, f"network call {dotted}()"
    if dotted == "open":
        return (TaintKind.FILESYSTEM,
                "direct open() outside the archive API")
    if dotted in _OS_FILE_CALLS or dotted.startswith("shutil."):
        return TaintKind.FILESYSTEM, f"filesystem call {dotted}()"
    if dotted in ("os.getenv", "os.environ.get"):
        return TaintKind.ENV_READ, f"environment read via {dotted}()"
    return None


def _classify_event(event: tuple) -> tuple | None:
    """(kind, description) of one call-graph event, if impure."""
    tag = event[0]
    if tag == "call":
        return _classify_call(event[1], event[3])
    if tag == "import":
        root = event[1].split(".")[0]
        if root in _NETWORK_MODULES:
            return (TaintKind.NETWORK,
                    f"import of network module {event[1]!r}")
        return None
    if tag == "attr":
        return TaintKind.ENV_READ, f"environment read via {event[1]}"
    if tag == "pathchain":
        receiver, _, method = event[1].rpartition(".")
        if (receiver in ("pathlib.Path", "Path")
                and method in _PATH_METHODS):
            return (TaintKind.FILESYSTEM,
                    f"Path(...).{method}() outside the archive API")
        return None
    if tag == "global_write":
        return (TaintKind.GLOBAL_WRITE,
                f"write to module-level name {event[1]!r}")
    if tag == "global_mutate":
        return (TaintKind.GLOBAL_WRITE,
                f"mutation of module-level container {event[1]}")
    return None


def direct_facts(graph: CallGraph) -> dict[str, tuple[TaintFact, ...]]:
    """Per-function direct impurity facts, before waivers."""
    facts: dict[str, tuple[TaintFact, ...]] = {}
    for qualname, info in graph.functions.items():
        found: list[TaintFact] = []
        for event in info.events:
            classified = _classify_event(event)
            if classified is not None:
                kind, description = classified
                found.append(TaintFact(kind=kind, description=description,
                                       module=info.module, line=event[2]))
        if found:
            facts[qualname] = tuple(sorted(
                found, key=lambda f: (f.line, f.kind.value,
                                      f.description)))
    return facts


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
        reported: set[TaintKind] = set()
        for method_qualname in self.graph.entry_methods(entry):
            method = method_qualname.rpartition(".")[2]
            lineno = self.graph.functions[method_qualname].lineno
            traces = self._trace(method_qualname)
            for kind in sorted(traces, key=lambda k: k.value):
                if kind in reported:
                    continue
                reported.add(kind)
                rule, _ = _KIND_RULES[kind]
                if self._waived(entry.module, lineno, {rule.code}):
                    continue
                fact, chain = traces[kind]
                self.findings.append(rule.finding(
                    f"analysis {entry.name!r}: {method}() reaches "
                    f"{fact.description} via {render_chain(chain)} "
                    f"({self._module_file(fact.module)}:{fact.line})",
                    artifact=entry.name,
                    file=self._module_file(entry.module), line=lineno,
                ))

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
