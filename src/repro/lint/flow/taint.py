"""Taint propagation: impurity facts carried through the call graph.

The single-file pass (``pycheck``) flags an impure statement where it
stands. This pass asks the question preservation actually cares about:
*can an Analysis entry point reach that statement?* Direct facts are
classified from the call graph's external events using the same tables
the shallow pass uses, then propagated backwards along call and
import edges. Findings fire on the entry point, carrying the full
propagation chain in the message.

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
from collections import deque
from dataclasses import dataclass

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, ClassInfo, analyze_tree
from repro.lint.flow.chains import render_chain
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
    _ignored_codes_by_line,
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
    """Per-function direct impurity facts, with waivers applied."""
    waivers: dict[str, dict] = {}
    for name, node in graph.modules.modules.items():
        waivers[name] = _ignored_codes_by_line(node.source)
    facts: dict[str, tuple[TaintFact, ...]] = {}
    for qualname, info in graph.functions.items():
        found: list[TaintFact] = []
        for event in info.events:
            classified = _classify_event(event)
            if classified is None:
                continue
            kind, description = classified
            line = event[2]
            waived = waivers.get(info.module, {})
            if line in waived:
                codes = waived[line]
                deep_rule, shallow_code = _KIND_RULES[kind]
                if codes is None or {shallow_code,
                                     deep_rule.code} & codes:
                    continue
            found.append(TaintFact(kind=kind, description=description,
                                   module=info.module, line=line))
        if found:
            facts[qualname] = tuple(sorted(
                found, key=lambda f: (f.line, f.kind.value,
                                      f.description)))
    return facts


@dataclass(frozen=True)
class TaintTrace:
    """One witness chain from an entry point to a direct fact."""

    entry: str  # entry method qualname
    fact: TaintFact
    chain: tuple[str, ...]  # qualnames, entry first, fact holder last

    def render_chain(self) -> str:
        """`a.f -> b.g -> c.h` with graph qualnames made readable."""
        return render_chain(self.chain)


def trace_from(graph: CallGraph,
               facts: dict[str, tuple[TaintFact, ...]],
               entry: str) -> list[TaintTrace]:
    """Shortest witness chain per taint kind reachable from ``entry``.

    Deterministic breadth-first search: neighbours are visited in
    sorted order, so equal-length chains always resolve the same way.
    """
    if entry not in graph.functions:
        return []
    traces: dict[TaintKind, TaintTrace] = {}
    seen = {entry}
    queue: deque[tuple[str, tuple[str, ...]]] = deque(
        [(entry, (entry,))])
    while queue:
        current, chain = queue.popleft()
        for fact in facts.get(current, ()):
            if fact.kind not in traces and len(chain) > 1:
                traces[fact.kind] = TaintTrace(
                    entry=entry, fact=fact, chain=chain)
        info = graph.functions.get(current)
        if info is None:
            continue
        for callee, _ in sorted(info.calls):
            if callee not in seen:
                seen.add(callee)
                queue.append((callee, chain + (callee,)))
    return [traces[kind] for kind in sorted(traces,
                                            key=lambda k: k.value)]


def _entry_findings(graph: CallGraph,
                    facts: dict[str, tuple[TaintFact, ...]],
                    entry: ClassInfo,
                    waivers: dict[str, dict]) -> list[Finding]:
    findings: list[Finding] = []
    reported: set[tuple[str, TaintKind]] = set()
    node = graph.modules.modules.get(entry.module)
    file = node.path if node is not None else ""
    for method_qualname in graph.entry_methods(entry):
        method = method_qualname.rpartition(".")[2]
        for trace in trace_from(graph, facts, method_qualname):
            if (entry.qualname, trace.fact.kind) in reported:
                continue
            reported.add((entry.qualname, trace.fact.kind))
            rule, _ = _KIND_RULES[trace.fact.kind]
            fact_node = graph.modules.modules.get(trace.fact.module)
            fact_file = (fact_node.path if fact_node is not None
                         else trace.fact.module)
            lineno = graph.functions[method_qualname].lineno
            line_waivers = waivers.get(entry.module, {})
            if lineno in line_waivers:
                codes = line_waivers[lineno]
                if codes is None or rule.code in codes:
                    continue
            findings.append(rule.finding(
                f"analysis {entry.name!r}: {method}() reaches "
                f"{trace.fact.description} via {trace.render_chain()} "
                f"({fact_file}:{trace.fact.line})",
                artifact=entry.name, file=file, line=lineno,
            ))
    return findings


def deep_findings(graph: CallGraph) -> list[Finding]:
    """All DAS201–DAS207 findings for one analysed tree."""
    facts = direct_facts(graph)
    waivers = {name: _ignored_codes_by_line(node.source)
               for name, node in graph.modules.modules.items()}
    findings: list[Finding] = []
    for entry in graph.analysis_entries():
        findings.extend(_entry_findings(graph, facts, entry, waivers))
    wanted = set(graph.modules.targets)
    for name in sorted(wanted):
        node = graph.modules.modules[name]
        for rendered, line in node.unresolved_imports:
            findings.append(RULE_CLOSURE_UNRESOLVED.finding(
                f"relative import {rendered!r} cannot be resolved "
                f"inside the tree; the dependency closure is "
                f"incomplete",
                file=node.path, line=line,
            ))
    return findings


def lint_tree_deep(root) -> list[Finding]:
    """Run the interprocedural pass over one file or directory."""
    return deep_findings(analyze_tree(root))
