"""The per-function call graph over a module graph.

Functions are identified as ``module:func`` / ``module:Class.method``;
each module additionally gets a pseudo-node ``module:<module>`` holding
its import-time statements, with edges to the pseudo-nodes of the
internal modules it imports — so import-time effects propagate exactly
like call-time ones.

Call targets are resolved purely statically: through the module's
import aliases, through package ``__init__`` re-exports (bounded alias
chasing), through ``self.``-method lookup including internal base
classes, and through constructor calls (``Class()`` edges to
``Class.__init__``). Anything unresolvable inside the tree is recorded
as an *external event* for the taint tables; over-approximation is
preferred to silence throughout.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.flow.modgraph import ModuleGraph, ModuleNode, build_module_graph
from repro.lint.pycheck import _ImportMap, _dotted_name, _is_mutable_value

#: Method names whose call on a module-level container mutates it.
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
    #: External events: ("call", dotted, line, has_args),
    #: ("import", dotted, line), ("attr", dotted, line),
    #: ("pathchain", method, line), ("global_write", name, line),
    #: ("global_mutate", name.method, line), ("book", key, line),
    #: ("tag", value, line).
    events: tuple[tuple, ...]


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
    #: The per-module scans the graph was resolved from; the par and
    #: det passes read their facts off the same parsed trees.
    scans: dict[str, _ModuleScan] = field(default_factory=dict,
                                          repr=False, compare=False)

    def is_analysis_class(self, qualname: str,
                          _seen: frozenset = frozenset()) -> bool:
        """True when the class (transitively) subclasses ``Analysis``."""
        info = self.classes.get(qualname)
        if info is None or qualname in _seen:
            return False
        for base in info.bases:
            if base.split(".")[-1] == "Analysis":
                return True
            member = self.modules.resolve_module(base)
            if member is not None:
                attr = base[len(member) + 1:]
                if self.is_analysis_class(f"{member}:{attr}",
                                          _seen | {qualname}):
                    return True
        return False

    def analysis_entries(self,
                         target_modules: tuple[str, ...] | None = None
                         ) -> list[ClassInfo]:
        """Analysis subclasses, restricted to the target modules."""
        targets = (self.modules.targets if target_modules is None
                   else target_modules)
        wanted = set(targets)
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
        for base in info.bases:
            member = self.modules.resolve_module(base)
            if member is None:
                continue
            attr = base[len(member) + 1:]
            found = self.method_on_class(f"{member}:{attr}", method,
                                         depth + 1)
            if found is not None:
                return found
        return None

    def lookup_attr(self, module: str, attr: str,
                    depth: int = 0) -> str | None:
        """An attribute path inside a tree module -> def qualname."""
        if not attr or depth > _ALIAS_CHASE_LIMIT:
            return None
        scan = self.scans.get(module)
        if scan is None:
            return None
        head, _, rest = attr.partition(".")
        if head in scan.function_defs and not rest:
            return f"{module}:{head}"
        if head in scan.class_defs:
            class_qualname = f"{module}:{head}"
            if rest:
                return self.method_on_class(class_qualname, rest)
            init = self.method_on_class(class_qualname, "__init__")
            # An edge to the class itself keeps it in the closure even
            # when no tree-level __init__ exists.
            return init or class_qualname
        # Chase one re-export hop (package __init__ aliases).
        target = scan.imports.alias_target(head)
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
        scan = self.scans[module]
        if class_name is not None and dotted.startswith("self."):
            return self.method_on_class(f"{module}:{class_name}",
                                        dotted[5:])
        head = dotted.split(".")[0]
        if scan.imports.alias_target(head) is None:
            # Not an imported name: try the module's own namespace.
            return self.lookup_attr(module, dotted)
        resolved = scan.imports.resolve(dotted)
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


def _find_metadata_call(klass: ast.ClassDef) -> ast.Call | None:
    """Class-level or ``__init__``-assigned metadata call, if any."""
    for stmt in klass.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "metadata"
                        for t in stmt.targets)
                and isinstance(stmt.value, ast.Call)):
            return stmt.value
    for stmt in klass.body:
        if (isinstance(stmt, ast.FunctionDef)
                and stmt.name == "__init__"):
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Assign)
                        and isinstance(sub.value, ast.Call)
                        and any(isinstance(t, ast.Attribute)
                                and t.attr == "metadata"
                                for t in sub.targets)):
                    return sub.value
    return None


class _ModuleScan:
    """Defs, import map, and module-level mutable names of one module."""

    def __init__(self, node: ModuleNode) -> None:
        self.node = node
        self.tree = tree = node.tree
        self.imports = _ImportMap(package=node.package)
        self.function_defs: dict[str, ast.FunctionDef] = {}
        self.class_defs: dict[str, ast.ClassDef] = {}
        self.mutable_names: set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Import):
                self.imports.visit_import(stmt)
            elif isinstance(stmt, ast.ImportFrom):
                self.imports.visit_import_from(stmt)
            elif isinstance(stmt, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                self.function_defs[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                self.class_defs[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign):
                if _is_mutable_value(stmt.value):
                    self.mutable_names.update(
                        t.id for t in stmt.targets
                        if isinstance(t, ast.Name))


class _GraphBuilder:
    """Two-pass construction: collect defs, then resolve bodies."""

    def __init__(self, modules: ModuleGraph) -> None:
        self.modules = modules
        self.graph = CallGraph(modules=modules)
        self.scans = self.graph.scans

    def build(self) -> CallGraph:
        for name, node in sorted(self.modules.modules.items()):
            if node.tree is not None:
                self.scans[name] = _ModuleScan(node)
        for name, scan in sorted(self.scans.items()):
            self._register_defs(name, scan)
        for name, scan in sorted(self.scans.items()):
            self._resolve_module(name, scan)
        return self.graph

    # -- pass 1: definitions -------------------------------------------

    def _register_defs(self, module: str, scan: _ModuleScan) -> None:
        for klass in scan.class_defs.values():
            def resolve_base(dotted: str) -> str:
                # A bare name defined in this very module is a local
                # class, not an import — qualify it so transitive
                # Analysis detection can follow it.
                if ("." not in dotted and dotted in scan.class_defs
                        and scan.imports.alias_target(dotted) is None):
                    return f"{module}.{dotted}"
                return scan.imports.resolve(dotted)

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

    def _resolve_module(self, module: str, scan: _ModuleScan) -> None:
        pseudo = f"{module}:<module>"
        calls: list[tuple[str, int]] = []
        events: list[tuple] = []
        for imported in scan.node.internal_imports:
            calls.append((f"{imported}:<module>", 0))
        for dotted, line in scan.node.imports:
            events.append(("import", dotted, line))
        self._scan_statements(module, scan,
                              self._import_time_statements(scan.tree),
                              None, calls, events)
        self.graph.functions[pseudo] = FunctionInfo(
            qualname=pseudo, module=module, lineno=1,
            calls=tuple(sorted(set(calls))),
            events=tuple(sorted(set(events))),
        )
        for name, funcdef in sorted(scan.function_defs.items()):
            self._resolve_function(module, scan, f"{module}:{name}",
                                   funcdef, None)
        for class_name, klass in sorted(scan.class_defs.items()):
            for stmt in klass.body:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    self._resolve_function(
                        module, scan,
                        f"{module}:{class_name}.{stmt.name}",
                        stmt, class_name,
                    )

    @staticmethod
    def _import_time_statements(tree: ast.Module) -> list[ast.stmt]:
        """Statements that execute at import: module body plus class
        bodies, minus function definitions."""
        statements: list[ast.stmt] = []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ClassDef):
                statements.extend(
                    sub for sub in stmt.body
                    if not isinstance(sub, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)))
                continue
            statements.append(stmt)
        return statements

    def _resolve_function(self, module: str, scan: _ModuleScan,
                          qualname: str, funcdef: ast.FunctionDef,
                          class_name: str | None) -> None:
        calls: list[tuple[str, int]] = []
        events: list[tuple] = []
        # Import-time effects of the defining module are visible to
        # every caller of the function: edge to the module pseudo-node.
        calls.append((f"{module}:<module>", funcdef.lineno))
        self._scan_statements(module, scan, funcdef.body, class_name,
                              calls, events, in_function=True)
        self.graph.functions[qualname] = FunctionInfo(
            qualname=qualname, module=module, lineno=funcdef.lineno,
            calls=tuple(sorted(set(calls))),
            events=tuple(sorted(set(events))),
        )

    def _scan_statements(self, module: str, scan: _ModuleScan,
                         statements: list[ast.stmt],
                         class_name: str | None, calls: list,
                         events: list, in_function: bool = False) -> None:
        """One walk over a body; a function's ``global`` names (found
        anywhere in it, nested defs included) mark its name writes."""
        global_names: set[str] = set()
        name_writes: list[tuple[str, int]] = []
        for node in (node for stmt in statements
                     for node in ast.walk(stmt)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    events.append(("import", alias.name, node.lineno))
                    member = self.modules.resolve_module(alias.name)
                    if member is not None and member != module:
                        calls.append((f"{member}:<module>",
                                      node.lineno))
            elif isinstance(node, ast.ImportFrom):
                base = scan.imports._absolute_base(node.module,
                                                   node.level)
                if base is not None:
                    events.append(("import", base, node.lineno))
                    member = self.modules.resolve_module(base)
                    if member is not None and member != module:
                        calls.append((f"{member}:<module>",
                                      node.lineno))
            elif isinstance(node, ast.Call):
                self._scan_call(module, scan, node, class_name,
                                calls, events)
            elif isinstance(node, ast.Attribute):
                dotted = _dotted_name(node)
                if dotted and scan.imports.resolve(dotted) in (
                    "os.environ", "os.environb", "os.getenv",
                ):
                    events.append(("attr", scan.imports.resolve(dotted),
                                   node.lineno))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Name):
                        name_writes.append((target.id, node.lineno))
                    elif (isinstance(target, ast.Subscript)
                          and isinstance(target.value, ast.Name)
                          and target.value.id in scan.mutable_names):
                        events.append((
                            "global_mutate",
                            f"{target.value.id}[...]", node.lineno))
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.startswith("GT-")):
                events.append(("tag", node.value, node.lineno))
            elif isinstance(node, ast.Global):
                global_names.update(node.names)
        if in_function:
            events.extend(("global_write", name, line)
                          for name, line in name_writes
                          if name in global_names)

    def _scan_call(self, module: str, scan: _ModuleScan,
                   node: ast.Call, class_name: str | None,
                   calls: list, events: list) -> None:
        dotted = _dotted_name(node.func)
        has_args = bool(node.args)
        for keyword in node.keywords:
            if (keyword.arg == "global_tag"
                    and isinstance(keyword.value, ast.Constant)
                    and isinstance(keyword.value.value, str)):
                events.append(("tag", keyword.value.value,
                               node.lineno))
        if dotted is None:
            # Path("...").write_text(...)-style chains.
            if (isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Call)):
                receiver = _dotted_name(node.func.value.func)
                if receiver is not None:
                    events.append((
                        "pathchain",
                        f"{scan.imports.resolve(receiver)}"
                        f".{node.func.attr}", node.lineno))
            return
        if (dotted == "self.book" and class_name is not None
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            events.append(("book", node.args[0].value, node.lineno))
        # Mutation of a module-level container.
        if (isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in scan.mutable_names
                and node.func.attr in _MUTATOR_METHODS):
            events.append(("global_mutate",
                           f"{node.func.value.id}.{node.func.attr}",
                           node.lineno))
        # ``functools.partial(f, ...)`` freezes arguments but the call
        # still lands in ``f``: edge through the wrapper so taint and
        # worker-escape chains don't stop at the partial boundary.
        if (scan.imports.resolve(dotted) == "functools.partial"
                and node.args):
            wrapped = _dotted_name(node.args[0])
            if wrapped is not None:
                inner = self.graph.resolve_call(module, wrapped,
                                               class_name)
                if inner is not None:
                    calls.append((inner, node.lineno))
        target = self.graph.resolve_call(module, dotted, class_name)
        if target is not None:
            calls.append((target, node.lineno))
            return
        events.append(("call", scan.imports.resolve(dotted),
                       node.lineno, has_args))


def build_call_graph(modules: ModuleGraph) -> CallGraph:
    """Build the call graph for an already-scanned module graph."""
    return _GraphBuilder(modules).build()


def analyze_tree(root) -> CallGraph:
    """Module graph + call graph for one file or directory target."""
    return build_call_graph(build_module_graph(root))
