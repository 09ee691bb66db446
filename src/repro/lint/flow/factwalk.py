"""The fact walk: one breadth-first pass over each module's AST.

The module graph parses each module once and walks its tree once,
here. The walk files the nodes the deep passes read under the scope
that owns them — ``module:func``, ``module:Class.method``, or the
``module:<module>`` pseudo-node for the code that runs at import —
and no pass walks again: the module graph takes its imports from the
record, the call graph resolves its edges and classifies its direct
facts from it, and the par and det scans are classification tables
over it.

Every filed node is an entry ``(node, index, in_body, in_loop)``.
``index`` is the scope's top-level statement the node sits under; a
function's decorators, defaults and annotations share the index after
its last statement. ``in_body`` is False for those parts and, on the
pseudo-node, for class bodies. ``in_loop`` is True under a ``for`` or
``while`` of the scope. Each list keeps the walk's breadth-first order,
which is the order of one walk over the whole function; a stable sort
on ``index`` gives the order of one walk per statement.

The shared readers the par and det tables classify with sit here too:
the RNG-call classifier and the decorator-label reader. So does
:class:`Fact`, the one record every pass classifies into.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

from repro.lint.pycheck import (
    _ENV_READS,
    _NUMPY_RANDOM_SAFE,
    _dotted_name,
    _ImportMap,
    _is_mutable_value,
)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Statements whose body repeats.
_LOOPS = (ast.For, ast.AsyncFor, ast.While)

#: Node type -> the :class:`Scope` list it is filed under.
_FILED = {
    ast.Call: "calls", ast.Assign: "stores", ast.AugAssign: "stores",
    ast.Return: "returns", ast.Import: "imports",
    ast.ImportFrom: "imports", ast.Attribute: "attributes",
    ast.For: "iterations", ast.AsyncFor: "iterations",
    ast.ListComp: "iterations", ast.SetComp: "iterations",
    ast.GeneratorExp: "iterations", ast.DictComp: "iterations",
    ast.FormattedValue: "formats",
}

#: Constructors that start a random stream (seed analysis applies).
_RNG_CONSTRUCTORS = {"default_rng", "Random", "RandomState", "Generator",
                     "PCG64", "Philox", "SeedSequence"}

#: Callables whose presence in a seed expression marks it as derived.
_SEED_DERIVERS = {"derive_seed", "spawn"}


@dataclass(frozen=True)
class Fact:
    """One direct fact of one kind inside one function."""

    kind: str
    description: str
    line: int


def sorted_facts(found) -> tuple[Fact, ...]:
    """Distinct facts by line, kind and description."""
    return tuple(sorted(set(found), key=lambda f: (f.line, f.kind,
                                                   f.description)))


@dataclass(eq=False, slots=True)
class Scope:
    """The filed nodes of one function, or of one module's import-time
    code (``funcdef`` is None for that pseudo-node)."""

    qualname: str
    lineno: int
    funcdef: ast.FunctionDef | ast.AsyncFunctionDef | None = None
    class_name: str | None = None
    calls: list = field(default_factory=list)
    #: ``Assign`` and ``AugAssign`` statements.
    stores: list = field(default_factory=list)
    returns: list = field(default_factory=list)
    #: Imports below the top level (the module's own import
    #: statements are :attr:`ModuleFacts.imports`).
    imports: list = field(default_factory=list)
    #: Attribute chains, and bare names aliasing an environment read.
    attributes: list = field(default_factory=list)
    #: ``for`` loops and comprehensions.
    iterations: list = field(default_factory=list)
    #: f-string replacement fields and ``%`` operations.
    formats: list = field(default_factory=list)
    percents: list = field(default_factory=list)
    #: String constants naming a conditions global tag (``GT-...``).
    tags: list = field(default_factory=list)
    #: Names declared ``global`` anywhere in the scope.
    globals: list = field(default_factory=list)
    #: Parameters of the def and of every def or lambda nested in it,
    #: ``*args``/``**kwargs`` included and ``self``/``cls`` excluded: a
    #: nested helper's parameter almost always carries the enclosing
    #: function's value.
    params: set = field(default_factory=set)
    #: Names of the defs nested in the body.
    nested: list = field(default_factory=list)

    def executed(self, entries: list) -> list:
        """The nodes that run when the scope runs: a function's body,
        and all of the import-time code."""
        return [entry[0] for entry in entries
                if entry[2] or self.funcdef is None]

    def bindings(self, per_statement: bool = False) -> dict:
        """The last simple ``name = expr`` of the body, per name.

        In walk order by default; ``per_statement`` orders the stores
        statement by statement, so a binding nested deeper in an
        earlier statement loses to a later statement's.
        """
        stores = (sorted(self.stores, key=itemgetter(1))
                  if per_statement else self.stores)
        return {node.targets[0].id: node.value
                for node, _, in_body, _ in stores
                if in_body and isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)}


@dataclass(eq=False)
class ModuleFacts:
    """The fact walk's record of one module."""

    #: Aliases bound by the module's top-level imports.
    aliases: _ImportMap
    #: Every ``Import``/``ImportFrom`` node, at any depth.
    imports: list = field(default_factory=list)
    #: Top-level defs and classes by name (the last binding wins).
    function_defs: dict = field(default_factory=dict)
    class_defs: dict = field(default_factory=dict)
    #: Module-level names bound to a mutable container.
    mutable_names: set = field(default_factory=set)
    #: The pseudo-node, then top-level functions by name, then the
    #: methods of each class (classes by name, methods in body order).
    scopes: list = field(default_factory=list)

    def imported(self, node) -> list[tuple[str, bool, bool]]:
        """(dotted, resolved, candidate) per module an import names.

        ``resolved`` is False for a relative import the package context
        cannot absolutise (named as written). ``candidate`` marks a
        from-import name that may be a submodule.
        """
        if isinstance(node, ast.Import):
            return [(alias.name, True, False) for alias in node.names]
        base = self.aliases._absolute_base(node.module, node.level)
        if base is None:
            return [("." * node.level + (node.module or ""), False, False)]
        return [(base, True, False)] + [
            (f"{base}.{alias.name}", True, True)
            for alias in node.names if alias.name != "*"]


def _params(funcdef) -> list[str]:
    args = funcdef.args
    names = [p.arg for p in (*args.posonlyargs, *args.args,
                             *args.kwonlyargs)]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _file(scope: Scope, node: ast.AST, entry: tuple,
          aliases: _ImportMap) -> None:
    kind = type(node)
    if kind in _FILED:
        getattr(scope, _FILED[kind]).append(entry)
    elif kind is ast.Name and aliases.alias_target(node.id) in _ENV_READS:
        scope.attributes.append(entry)
    elif kind is ast.Global:
        scope.globals.extend(node.names)
    elif kind is ast.BinOp and isinstance(node.op, ast.Mod):
        scope.percents.append(entry)
    elif (kind is ast.Constant and isinstance(node.value, str)
          and node.value.startswith("GT-")):
        scope.tags.append(entry)
    elif kind in _DEFS or kind is ast.Lambda:
        scope.params.update(_params(node))
        if entry[2] and kind is not ast.Lambda:
            scope.nested.append(node.name)


def walk_module(tree: ast.Module, module: str,
                package: str) -> ModuleFacts:
    """Walk one parsed module once and file what the passes read."""
    facts = ModuleFacts(aliases=_ImportMap(package=package))
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            facts.aliases.visit_import(stmt)
        elif isinstance(stmt, ast.ImportFrom):
            facts.aliases.visit_import_from(stmt)
        elif isinstance(stmt, _DEFS):
            facts.function_defs[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            facts.class_defs[stmt.name] = stmt
        elif isinstance(stmt, ast.Assign) and _is_mutable_value(stmt.value):
            facts.mutable_names.update(
                t.id for t in stmt.targets if isinstance(t, ast.Name))
    pseudo = Scope(f"{module}:<module>", 1)
    # Each live def starts its own scope; a def shadowed by a later one
    # of the same name starts none, and its nodes are filed nowhere.
    roots: dict[ast.AST, Scope] = {}
    for name, funcdef in sorted(facts.function_defs.items()):
        roots[funcdef] = Scope(f"{module}:{name}", funcdef.lineno,
                               funcdef)
    for class_name, klass in sorted(facts.class_defs.items()):
        for stmt in klass.body:
            if isinstance(stmt, _DEFS):
                roots[stmt] = Scope(f"{module}:{class_name}.{stmt.name}",
                                    stmt.lineno, stmt, class_name)
    facts.scopes = [pseudo, *roots.values()]

    # The module's own imports, defs and classes belong to no scope;
    # the other top-level statements run at import.
    queue = deque(
        (stmt, None if isinstance(stmt, (ast.Import, ast.ImportFrom,
                                         ast.ClassDef, *_DEFS))
         else pseudo, index, True, False)
        for index, stmt in enumerate(tree.body))
    while queue:
        node, scope, index, in_body, in_loop = queue.popleft()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            facts.imports.append(node)
        root = roots.get(node)
        if root is not None:
            root.params.update(_params(node))
            body = {id(stmt): i for i, stmt in enumerate(node.body)}
            queue.extend(
                (child, root, body.get(id(child), len(body)),
                 id(child) in body, False)
                for child in ast.iter_child_nodes(node))
            continue
        if scope is None and tree.body[index] is node and isinstance(
                node, ast.ClassDef):
            # A class body runs at import, outside the module body;
            # its methods are scope roots.
            body = {id(stmt) for stmt in node.body}
            queue.extend(
                (child, pseudo if id(child) in body
                 and not isinstance(child, _DEFS) else None,
                 index, False, False)
                for child in ast.iter_child_nodes(node))
            continue
        entry = (node, index, in_body, in_loop)
        if scope is not None:
            _file(scope, node, entry, facts.aliases)
        in_loop = in_loop or isinstance(node, _LOOPS)
        queue.extend((child, scope, index, in_body, in_loop)
                     for child in ast.iter_child_nodes(node))
    for scope in facts.scopes:
        scope.params.difference_update(("self", "cls"))
    return facts


# -- shared readers ------------------------------------------------------


def root_name(expr: ast.expr) -> str | None:
    """The base ``Name`` an attribute/subscript chain hangs off."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _seed_is_derived(call: ast.Call, params: set[str]) -> bool:
    """Does any seed argument trace back to a derived stream?

    A seed expression counts as derived when it contains a call to a
    ``derive_seed``-family helper, a reference to one of the
    function's own parameters (the seed flows in from the dispatcher),
    or an attribute read (configuration/state the caller owns).
    """
    exprs = list(call.args) + [kw.value for kw in call.keywords]
    for expr in exprs:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                dotted = _dotted_name(sub.func)
                if (dotted is not None and
                        dotted.rpartition(".")[2] in _SEED_DERIVERS):
                    return True
            elif isinstance(sub, ast.Name) and sub.id in params:
                return True
            elif isinstance(sub, ast.Attribute):
                return True
    return False


def classify_rng(call: ast.Call, resolved: str,
                 params: set[str]) -> str | None:
    """How one resolved call handles randomness, if it does.

    ``"unseeded"`` and ``"constant"`` for a stream constructed without
    a seed or from one not derived per work unit, ``"global"`` and
    ``"legacy"`` for a draw from the process-wide ``random`` or legacy
    ``numpy.random`` stream; None for anything else.
    """
    base = resolved.rpartition(".")[2]
    if resolved == "random.Random" or (
            resolved.startswith("numpy.random.")
            and (base in _RNG_CONSTRUCTORS or base in _NUMPY_RANDOM_SAFE)):
        if not call.args and not call.keywords:
            return "unseeded"
        return None if _seed_is_derived(call, params) else "constant"
    if resolved.startswith("random."):
        return "global"
    if resolved.startswith("numpy.random.") and base != "default_rng":
        return "legacy"
    return None


def decorator_label(funcdef, name: str,
                    keyword: str) -> tuple[str | None, int] | None:
    """(label, line) of the first ``@name`` or ``@name(...)`` decorator.

    The label is the first positional argument or the ``keyword``
    argument: its value when it is a string constant, ``""`` when the
    decorator has none, and None when it is computed. Returns None for
    a function without such a decorator.
    """
    for decorator in funcdef.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        dotted = _dotted_name(decorator if call is None else call.func)
        if dotted is None or dotted.rpartition(".")[2] != name:
            continue
        labels = [] if call is None else [*call.args, *(
            kw.value for kw in call.keywords if kw.arg == keyword)]
        if not labels:
            return "", decorator.lineno
        label = labels[0]
        if isinstance(label, ast.Constant) and isinstance(label.value,
                                                          str):
            return label.value, decorator.lineno
        return None, decorator.lineno
    return None
