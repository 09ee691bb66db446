"""The per-function call graph over a module graph.

Functions are identified as ``module:func`` / ``module:Class.method``;
each module additionally gets a pseudo-node ``module:<module>`` holding
its import-time statements, with edges to the pseudo-nodes of the
internal modules it imports — so import-time effects propagate exactly
like call-time ones.

Bodies are not walked here: the edges and facts are resolved from the
fact walk's record of each module (:mod:`repro.lint.flow.factwalk`).
Call targets are resolved purely statically: through the module's
import aliases, through package ``__init__`` re-exports (bounded alias
chasing), through ``self.``-method lookup including internal base
classes, and through constructor calls (``Class()`` edges to
``Class.__init__``). What stays outside the tree is classified on the
spot into the function's direct impurity facts, by the classifiers the
shallow rules use; over-approximation is preferred to silence
throughout.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.flow.factwalk import Fact, ModuleFacts, Scope, sorted_facts
from repro.lint.flow.modgraph import ModuleGraph, build_module_graph
from repro.lint.pycheck import (
    _ENV_READS,
    _classify_call,
    _dotted_name,
    _find_metadata_call,
    _network_import,
)

#: Method names whose call on a container mutates it.
_MUTATOR_METHODS = {
    "append", "add", "update", "setdefault", "pop", "popitem",
    "extend", "insert", "remove", "discard", "clear", "appendleft",
}

#: Entry-point methods of an Analysis plugin, in lifecycle order.
ANALYSIS_ENTRY_METHODS = ("__init__", "init", "analyze", "finalize")

_ALIAS_CHASE_LIMIT = 8


@dataclass(frozen=True)
class FunctionInfo:
    """One function (or module pseudo-node) and what it does."""

    qualname: str
    module: str
    lineno: int
    #: Resolved internal call/import edges: (callee qualname, line).
    calls: tuple[tuple[str, int], ...]
    #: Direct impurity facts: what it reaches outside the tree, and
    #: its writes to module-level state.
    facts: tuple[Fact, ...] = ()
    #: Histogram keys booked through ``self.book("key", ...)``.
    booked: tuple[str, ...] = ()
    #: Conditions global tags it names (``GT-...``).
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ClassInfo:
    """One class definition plus statically extracted metadata."""

    qualname: str
    module: str
    name: str
    lineno: int
    bases: tuple[str, ...]  # resolved dotted base paths
    methods: tuple[str, ...]
    metadata_name: str = ""
    inspire_id: str = ""


@dataclass
class CallGraph:
    """Functions, classes, and resolved edges for one source tree."""

    modules: ModuleGraph
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: The fact walk's record of each parsed module; the par and det
    #: passes classify the same records.
    facts: dict[str, ModuleFacts] = field(default_factory=dict,
                                          repr=False, compare=False)

    def _tree_bases(self, info: ClassInfo) -> list[str]:
        """Qualnames of the class's bases defined inside the tree."""
        bases = []
        for base in info.bases:
            member = self.modules.resolve_module(base)
            if member is not None:
                bases.append(f"{member}:{base[len(member) + 1:]}")
        return bases

    def is_analysis_class(self, qualname: str,
                          _seen: frozenset = frozenset()) -> bool:
        """True when the class (transitively) subclasses ``Analysis``."""
        info = self.classes.get(qualname)
        if info is None or qualname in _seen:
            return False
        return (any(base.split(".")[-1] == "Analysis"
                    for base in info.bases)
                or any(self.is_analysis_class(base, _seen | {qualname})
                       for base in self._tree_bases(info)))

    def analysis_entries(self) -> list[ClassInfo]:
        """Analysis subclasses, restricted to the target modules."""
        wanted = set(self.modules.targets)
        return [info for qualname, info in sorted(self.classes.items())
                if info.module in wanted
                and self.is_analysis_class(qualname)]

    def entry_methods(self, entry: ClassInfo) -> list[str]:
        """Entry-point method qualnames the class actually defines."""
        return [f"{entry.qualname}.{method}"
                for method in ANALYSIS_ENTRY_METHODS
                if f"{entry.qualname}.{method}" in self.functions]

    def method_on_class(self, class_qualname: str, method: str,
                        depth: int = 0) -> str | None:
        """Resolve a method through the class and its internal bases."""
        info = self.classes.get(class_qualname)
        if info is None or depth > _ALIAS_CHASE_LIMIT:
            return None
        if method in info.methods:
            return f"{class_qualname}.{method}"
        for base in self._tree_bases(info):
            found = self.method_on_class(base, method, depth + 1)
            if found is not None:
                return found
        return None

    def lookup_attr(self, module: str, attr: str,
                    depth: int = 0) -> str | None:
        """An attribute path inside a tree module -> def qualname."""
        if not attr or depth > _ALIAS_CHASE_LIMIT:
            return None
        facts = self.facts.get(module)
        if facts is None:
            return None
        head, _, rest = attr.partition(".")
        if head in facts.function_defs and not rest:
            return f"{module}:{head}"
        if head in facts.class_defs:
            class_qualname = f"{module}:{head}"
            if rest:
                return self.method_on_class(class_qualname, rest)
            init = self.method_on_class(class_qualname, "__init__")
            # An edge to the class itself keeps it in the closure even
            # when no tree-level __init__ exists.
            return init or class_qualname
        # Chase one re-export hop (package __init__ aliases).
        target = facts.aliases.alias_target(head)
        if target is None:
            return None
        dotted = f"{target}.{rest}" if rest else target
        member = self.modules.resolve_module(dotted)
        if member is None or member == module:
            return None
        return self.lookup_attr(member, dotted[len(member) + 1:],
                                depth + 1)

    def resolve_call(self, module: str, dotted: str,
                     class_name: str | None) -> str | None:
        """A call target as written in ``module`` -> def qualname."""
        aliases = self.facts[module].aliases
        if class_name is not None and dotted.startswith("self."):
            return self.method_on_class(f"{module}:{class_name}",
                                        dotted[5:])
        head = dotted.split(".")[0]
        if aliases.alias_target(head) is None:
            # Not an imported name: try the module's own namespace.
            return self.lookup_attr(module, dotted)
        resolved = aliases.resolve(dotted)
        member = self.modules.resolve_module(resolved)
        if member is None:
            return None
        attr = resolved[len(member) + 1:]
        if not attr:
            return None
        return self.lookup_attr(member, attr)


def _metadata_fields(call: ast.Call) -> tuple[str, str]:
    """(name, inspire_id) constants of an AnalysisMetadata(...) call."""
    name = inspire = ""
    for keyword in call.keywords:
        if (keyword.arg in ("name", "inspire_id")
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, str)):
            if keyword.arg == "name":
                name = keyword.value.value
            else:
                inspire = keyword.value.value
    return name, inspire


class _GraphBuilder:
    """Two-pass construction: collect defs, then resolve bodies."""

    def __init__(self, modules: ModuleGraph) -> None:
        self.modules = modules
        self.graph = CallGraph(modules=modules)

    def build(self) -> CallGraph:
        for name, node in sorted(self.modules.modules.items()):
            if node.facts is not None:
                self.graph.facts[name] = node.facts
        for name, facts in self.graph.facts.items():
            self._register_defs(name, facts)
        for name, facts in self.graph.facts.items():
            for scope in facts.scopes:
                self._resolve_scope(name, facts, scope)
        return self.graph

    # -- pass 1: definitions -------------------------------------------

    def _register_defs(self, module: str, facts: ModuleFacts) -> None:
        for klass in facts.class_defs.values():
            def resolve_base(dotted: str) -> str:
                # A bare name defined in this very module is a local
                # class, not an import — qualify it so transitive
                # Analysis detection can follow it.
                if ("." not in dotted and dotted in facts.class_defs
                        and facts.aliases.alias_target(dotted) is None):
                    return f"{module}.{dotted}"
                return facts.aliases.resolve(dotted)

            bases = tuple(sorted(
                resolve_base(dotted)
                for dotted in (_dotted_name(base)
                               for base in klass.bases)
                if dotted
            ))
            methods = tuple(sorted(
                stmt.name for stmt in klass.body
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef))
            ))
            metadata_call = _find_metadata_call(klass)
            name = inspire = ""
            if metadata_call is not None:
                name, inspire = _metadata_fields(metadata_call)
            self.graph.classes[f"{module}:{klass.name}"] = ClassInfo(
                qualname=f"{module}:{klass.name}",
                module=module,
                name=klass.name,
                lineno=klass.lineno,
                bases=bases,
                methods=methods,
                metadata_name=name,
                inspire_id=inspire,
            )

    # -- pass 2: bodies ------------------------------------------------

    def _resolve_scope(self, module: str, facts: ModuleFacts,
                       scope: Scope) -> None:
        """Edges, direct facts, booked keys and tags of what runs when
        the scope runs; a function's ``global`` names mark its name
        writes."""
        calls: list[tuple[str, int]] = []
        found: list[Fact] = []
        booked: set[str] = set()
        tags = {node.value for node in scope.executed(scope.tags)}
        resolve = facts.aliases.resolve

        def add(classified: tuple | None, line: int) -> None:
            if classified is not None:
                found.append(Fact(*classified, line))

        if scope.funcdef is None:
            node = self.modules.modules[module]
            calls.extend((f"{imported}:<module>", 0)
                         for imported in node.internal_imports)
            for dotted, line in node.imports:
                add(_network_import(dotted), line)
        else:
            # Import-time effects of the defining module are visible to
            # every caller of the function: edge to the pseudo-node.
            calls.append((f"{module}:<module>", scope.lineno))
        for node in scope.executed(scope.imports):
            for dotted, resolved, candidate in facts.imported(node):
                if not resolved or candidate:
                    continue
                add(_network_import(dotted), node.lineno)
                member = self.modules.resolve_module(dotted)
                if member is not None and member != module:
                    calls.append((f"{member}:<module>", node.lineno))
        for node in scope.executed(scope.calls):
            for keyword in node.keywords:
                if (keyword.arg == "global_tag"
                        and isinstance(keyword.value, ast.Constant)
                        and isinstance(keyword.value.value, str)):
                    tags.add(keyword.value.value)
            func, first = node.func, node.args[0] if node.args else None
            dotted = _dotted_name(func)
            if (dotted == "self.book" and scope.class_name is not None
                    and isinstance(first, ast.Constant)
                    and isinstance(first.value, str)):
                booked.add(first.value)
            # Mutation of a module-level container.
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in facts.mutable_names
                    and func.attr in _MUTATOR_METHODS):
                found.append(Fact(
                    "global-write", "mutation of module-level container "
                    f"{func.value.id}.{func.attr}", node.lineno))
            # ``functools.partial(f, ...)`` freezes arguments but the
            # call still lands in ``f``: edge through the wrapper so
            # taint and worker-escape chains don't stop at the partial
            # boundary.
            if (first is not None and dotted is not None
                    and resolve(dotted) == "functools.partial"
                    and (wrapped := _dotted_name(first)) is not None):
                inner = self.graph.resolve_call(module, wrapped,
                                                scope.class_name)
                if inner is not None:
                    calls.append((inner, node.lineno))
            target = (None if dotted is None else self.graph.resolve_call(
                module, dotted, scope.class_name))
            if target is not None:
                calls.append((target, node.lineno))
            else:
                add(_classify_call(node, resolve), node.lineno)
        for node in scope.executed(scope.attributes):
            dotted = _dotted_name(node)
            if dotted and (read := resolve(dotted)) in _ENV_READS:
                found.append(Fact("env-read", f"environment read via {read}",
                                  node.lineno))
        for node in scope.executed(scope.stores):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Name)
                        and scope.funcdef is not None
                        and target.id in scope.globals):
                    found.append(Fact(
                        "global-write",
                        f"write to module-level name {target.id!r}",
                        node.lineno))
                elif (isinstance(target, ast.Subscript)
                      and isinstance(target.value, ast.Name)
                      and target.value.id in facts.mutable_names):
                    found.append(Fact(
                        "global-write", "mutation of module-level "
                        f"container {target.value.id}[...]", node.lineno))
        self.graph.functions[scope.qualname] = FunctionInfo(
            qualname=scope.qualname, module=module, lineno=scope.lineno,
            calls=tuple(sorted(set(calls))), facts=sorted_facts(found),
            booked=tuple(sorted(booked)), tags=tuple(sorted(tags)),
        )


def build_call_graph(modules: ModuleGraph) -> CallGraph:
    """Build the call graph for an already-scanned module graph."""
    return _GraphBuilder(modules).build()


def analyze_tree(root) -> CallGraph:
    """Module graph + call graph for one file or directory target."""
    return build_call_graph(build_module_graph(root))
