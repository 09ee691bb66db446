"""Root-to-fact witness chains shared by the deep, par and det passes.

Each pass attaches direct facts to call-graph functions, drops the
facts waived at their source line, and reports, per root and fact kind,
the shortest chain of resolved call edges from the root to a function
holding that fact. The par and det facts come from classification
tables over the fact walk's record (:func:`scope_facts`). Two
class-level settings tell the passes apart: par and det do not descend
into ``module:<module>`` pseudo-nodes (import-time work runs once,
under the import lock and before any pool or serialisation, and is
policed by DAS006/DAS206), while the deep pass does; and the deep pass
leaves a fact held by the root itself to the shallow rules, which
already report it.
"""

from __future__ import annotations

from collections import deque

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.factwalk import Fact, decorator_label, sorted_facts
from repro.lint.pycheck import _ignored_codes_by_line


def scope_facts(graph: CallGraph, classify) -> dict:
    """``classify(scope, module_facts)`` over every function scope.

    A qualname defined twice keeps the facts of its last definition
    that has any.
    """
    facts: dict[str, tuple[Fact, ...]] = {}
    for module in graph.facts.values():
        for scope in module.scopes:
            if scope.funcdef is not None:
                found = sorted_facts(classify(scope, module))
                if found:
                    facts[scope.qualname] = found
    return facts


def readable(qualname: str) -> str:
    """``pkg.mod.func`` for a graph qualname; pseudo-nodes say so."""
    return qualname.replace(":<module>", " (import)").replace(":", ".")


def render_chain(chain: tuple[str, ...]) -> str:
    """``a.f -> b.g -> c.h`` with graph qualnames made readable."""
    return " -> ".join(readable(part) for part in chain)


class ChainAnalysis:
    """Waivers, surviving facts and shortest chains over one graph.

    ``facts`` maps function qualnames to their direct fact tuples;
    ``kind_codes`` names, per fact kind, every rule code whose waiver
    at the fact line drops the fact.
    """

    #: Whether chains descend into ``module:<module>`` pseudo-nodes.
    follow_imports = False
    #: Whether a fact held by the root itself ends a chain of one.
    root_facts = True

    def __init__(self, graph: CallGraph, facts: dict,
                 kind_codes: dict) -> None:
        self.graph = graph
        self.waivers = {
            name: _ignored_codes_by_line(node.source)
            for name, node in graph.modules.modules.items()
            if not node.parse_error}
        self.facts: dict[str, tuple] = {}
        for qualname, found in facts.items():
            module = qualname.partition(":")[0]
            kept = tuple(fact for fact in found
                         if not self._waived(module, fact.line,
                                             kind_codes[fact.kind]))
            if kept:
                self.facts[qualname] = kept
        self.findings: list[Finding] = []

    def _waived(self, module: str, line: int,
                codes: set[str]) -> bool:
        table = self.waivers.get(module, {})
        if line not in table:
            return False
        waived = table[line]
        return waived is None or bool(waived & codes)

    def _module_file(self, module: str) -> str:
        node = self.graph.modules.modules.get(module)
        return node.path if node is not None else module

    def _trace(self, root: str) -> dict:
        """Shortest (fact, holder chain) per fact kind from a root.

        Deterministic breadth-first search over resolved call edges,
        neighbours in sorted order.
        """
        traces: dict = {}
        seen = {root}
        queue: deque[tuple[str, tuple[str, ...]]] = deque(
            [(root, (root,))])
        while queue:
            current, chain = queue.popleft()
            if self.root_facts or len(chain) > 1:
                for fact in self.facts.get(current, ()):
                    if fact.kind not in traces:
                        traces[fact.kind] = (fact, chain)
            info = self.graph.functions.get(current)
            if info is None:
                continue
            for callee, _ in sorted(info.calls):
                if callee in seen or (not self.follow_imports
                                      and callee.endswith(":<module>")):
                    continue
                seen.add(callee)
                queue.append((callee, chain + (callee,)))
        return traces

    def report_chains(self, root: str, rules: dict, subject: str, *,
                      artifact: str, tail: str = "",
                      claimed: set | None = None) -> None:
        """One finding per fact kind ``root`` reaches, in kind order.

        A root outside the graph (a class without ``__init__``) reaches
        nothing. ``rules`` maps the kinds to report to their rules. A
        waiver of the rule at the root's def line drops the finding. A
        kind in ``claimed`` is skipped, and a reported (or waived) kind
        is added to it.
        """
        info = self.graph.functions.get(root)
        if info is None:
            return
        traces = self._trace(root)
        for kind in sorted(traces):
            rule = rules.get(kind)
            if rule is None or (claimed is not None and kind in claimed):
                continue
            if claimed is not None:
                claimed.add(kind)
            if self._waived(info.module, info.lineno, {rule.code}):
                continue
            fact, chain = traces[kind]
            holder = self.graph.functions[chain[-1]]
            self.findings.append(rule.finding(
                f"{subject} reaches {fact.description} via "
                f"{render_chain(chain)} "
                f"({self._module_file(holder.module)}:{fact.line})"
                f"{tail}",
                artifact=artifact, file=self._module_file(info.module),
                line=info.lineno,
            ))

    def declarations(self, decorator: str, keyword: str, rule,
                     noun: str, check) -> dict[str, tuple[str, int]]:
        """The ``@decorator(...)`` declarations of the target modules.

        ``check(label)`` names what is wrong with a label (None for a
        computed one, see :func:`decorator_label`), or returns None. A
        wrong declaration is a ``rule`` finding about the ``noun``.
        Returns the valid ones, qualname -> (label, line); a qualname
        defined twice keeps its last valid declaration.
        """
        declared: dict[str, tuple[str, int]] = {}
        for module in sorted(set(self.graph.modules.targets)):
            facts = self.graph.facts.get(module)
            for scope in facts.scopes if facts is not None else ():
                found = (decorator_label(scope.funcdef, decorator, keyword)
                         if scope.funcdef is not None else None)
                if found is None:
                    continue
                problem = check(found[0])
                if problem is None:
                    declared[scope.qualname] = found
                else:
                    self.invalid_declaration(rule, noun, scope.qualname,
                                             found[1], problem)
        return declared

    def invalid_declaration(self, rule, noun: str, qualname: str,
                            line: int, problem: str) -> None:
        """A ``rule`` finding on one declaration, unless waived at its
        line."""
        module = qualname.partition(":")[0]
        if self._waived(module, line, {rule.code}):
            return
        self.findings.append(rule.finding(
            f"{noun} on {readable(qualname)!r}: {problem}",
            artifact=readable(qualname), file=self._module_file(module),
            line=line,
        ))
