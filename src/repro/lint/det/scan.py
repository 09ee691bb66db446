"""Determinism facts and root declarations: tables over the fact walk.

The flow layer's call graph answers *who calls whom*; these tables
answer *what each function does that replayed serialization must
care about*: non-canonical JSON encoding, iteration over unordered
collections, filesystem enumeration, ambient-state reads (clocks,
identities, environment), drifting float formats, undisciplined
randomness, and locale-dependent rendering. They classify the fact
walk's record of each function (:mod:`repro.lint.flow.factwalk`);
nothing is walked, imported or executed. Facts carry the same
``module:func`` / ``module:Class.method`` qualnames the call graph
uses so the analysis layer can carry them along call edges.

``@replay_root`` declarations are read here too — recognised by
dotted-name suffix, so a tree only ever *parsed* by the linter still
declares its roots.
"""

from __future__ import annotations

import ast
import re

from repro.lint.flow.chains import Fact
from repro.lint.flow.factwalk import (
    ModuleFacts,
    Scope,
    classify_rng,
    root_name,
)
from repro.lint.pycheck import _WALLCLOCK_CALLS, _dotted_name

#: Builtins that consume an unordered source and emit an order-free
#: (or deterministically ordered) result: iterating through them is
#: fine, and a filesystem listing passed straight in is fine too.
_SANITIZERS = {"sorted", "len", "min", "max", "sum", "any", "all",
               "frozenset", "set"}

#: Module-level filesystem enumerations (resolved dotted names).
_FS_ENUM_CALLS = {"os.listdir", "os.scandir", "glob.glob",
                  "glob.iglob"}

#: Path-object methods enumerating a directory.
_FS_ENUM_METHODS = {"iterdir", "glob", "rglob", "scandir"}

#: Dict-view accessors whose iteration order is insertion order.
_DICT_VIEW_METHODS = {"keys", "values", "items"}

#: A format spec that pins float rendering to libc-style rounding.
_FLOAT_SPEC_RE = re.compile(r"[eEfFgG%]$")

#: A %-format template containing a float conversion.
_FLOAT_PERCENT_RE = re.compile(r"%[-+ #0]*[\d.]*[eEfFgG]")


#: RNG call class (:func:`classify_rng`) -> description.
_RNG_FACTS = {
    "unseeded": "an RNG constructed without a seed ({}())",
    "constant": "an RNG seeded from a constant ({}(...))",
    "global": "a draw from the process-global stream ({}())",
    "legacy": "a draw from the legacy global stream ({}())",
}


def _is_setish(expr: ast.expr, bindings: dict,
               seen: frozenset = frozenset()) -> bool:
    """Is this expression (statically) a set?"""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in {"set", "frozenset"}:
            return True
    if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # Set algebra: either operand being a set makes the result one.
        return (_is_setish(expr.left, bindings, seen)
                or _is_setish(expr.right, bindings, seen))
    if isinstance(expr, ast.Name) and expr.id not in seen:
        bound = bindings.get(expr.id)
        if bound is not None and not isinstance(bound, ast.Name):
            return _is_setish(bound, bindings, seen | {expr.id})
    return False


def _is_dict_view(expr: ast.expr) -> bool:
    """Is this expression a ``.keys()/.values()/.items()`` view?"""
    return (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _DICT_VIEW_METHODS
            and not expr.args and not expr.keywords)


def _is_sorted_call(expr: ast.expr) -> bool:
    return (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in {"sorted", "reversed"})


class _DetTable:
    """The direct instabilities of one function scope.

    Iterations are checked against the last binding of each name in
    walk order; a sanitizer call's arguments are exempt from the
    enumeration checks.
    """

    def __init__(self, scope: Scope, module: ModuleFacts) -> None:
        self.aliases = module.aliases
        self.params = scope.params
        # Last simple ``name = expr`` binding per local name, so
        # ``tags = {...}; for t in tags:`` is still seen as a set.
        self.bindings = scope.bindings()
        # Expressions consumed by a sanitizer: ``sorted(p.iterdir())``
        # is a deterministic enumeration, not a hazard.
        self.sanitized = {
            id(arg) for node, *_ in scope.calls
            if isinstance(node.func, ast.Name)
            and node.func.id in _SANITIZERS for arg in node.args}
        self.facts: list[Fact] = []
        for node, *_ in scope.iterations:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self._iteration(node.iter, node.lineno, False)
            else:
                for generator in node.generators:
                    self._iteration(generator.iter, node.lineno,
                                    isinstance(node, ast.DictComp))
        for node, *_ in scope.calls:
            self._call(node)
        for node, *_ in scope.attributes:
            dotted = _dotted_name(node)
            if dotted is not None and self.aliases.resolve(dotted) in {
                    "os.environ", "os.environb"}:
                self._add("env-read", "an environment read (os.environ)",
                          node.lineno)
        for node, *_ in scope.formats:
            self._format_spec(node)
        for node, *_ in scope.percents:
            left = node.left
            if (isinstance(left, ast.Constant)
                    and isinstance(left.value, str)
                    and _FLOAT_PERCENT_RE.search(left.value)):
                self._add("float-format", "a %-style float format",
                          node.lineno)

    def _add(self, kind: str, description: str, line: int) -> None:
        self.facts.append(Fact(kind, description, line))

    def _iteration(self, source: ast.expr, line: int,
                   dict_target: bool) -> None:
        if _is_sorted_call(source):
            return
        if _is_setish(source, self.bindings):
            if dict_target:
                self._add("dict-from-unordered",
                          "a dict comprehension over a set (insertion "
                          "order bakes in set order)", line)
            else:
                self._add("set-iteration",
                          "iteration over a set (hash-seed-dependent "
                          "order)", line)
        elif _is_dict_view(source):
            method = source.func.attr
            self._add("dict-view-iteration",
                      f"unsorted iteration over a .{method}() dict "
                      f"view", line)

    def _call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        resolved = (self.aliases.resolve(dotted)
                    if dotted is not None else None)
        if resolved in {"json.dumps", "json.dump"}:
            self._json(node, resolved)
        if resolved in _WALLCLOCK_CALLS:
            self._add("wall-clock", f"a wall-clock read ({resolved}())",
                      node.lineno)
        elif resolved in _FS_ENUM_CALLS:
            if id(node) not in self.sanitized:
                self._add("unsorted-fs",
                          f"an unsorted filesystem enumeration "
                          f"({resolved}())", node.lineno)
        elif resolved == "os.getenv":
            self._add("env-read", "an environment read (os.getenv())",
                      node.lineno)
        elif resolved is not None and resolved.startswith("locale."):
            self._add("locale-string",
                      f"a locale-dependent operation ({resolved}())",
                      node.lineno)
        elif resolved is not None:
            rng = classify_rng(node, resolved, self.params)
            if rng is not None:
                self._add("underived-rng",
                          _RNG_FACTS[rng].format(resolved), node.lineno)
        if isinstance(node.func, ast.Attribute):
            self._method_call(node, resolved)
        if (isinstance(node.func, ast.Name)
                and node.func.id in {"id", "hash"}
                and self.aliases.alias_target(node.func.id) is None):
            self._add("hash-identity",
                      f"a per-process {node.func.id}() value",
                      node.lineno)
        for keyword in node.keywords:
            if (keyword.arg == "key"
                    and isinstance(keyword.value, ast.Name)
                    and keyword.value.id in {"id", "hash"}):
                self._add("hash-identity",
                          f"an ordering keyed on "
                          f"{keyword.value.id}()", node.lineno)

    def _json(self, node: ast.Call, resolved: str) -> None:
        for keyword in node.keywords:
            if keyword.arg == "sort_keys":
                value = keyword.value
                if (isinstance(value, ast.Constant)
                        and value.value is True):
                    return
                self._add("noncanonical-json",
                          f"a {resolved}() whose sort_keys is not the "
                          f"constant True", node.lineno)
                return
        self._add("noncanonical-json",
                  f"a {resolved}() without sort_keys=True "
                  f"(insertion-ordered keys)", node.lineno)

    def _method_call(self, node: ast.Call, resolved: str | None) -> None:
        method = node.func.attr
        if (method in _FS_ENUM_METHODS
                and resolved not in _FS_ENUM_CALLS
                and id(node) not in self.sanitized):
            root = root_name(node.func.value)
            receiver = f"{root}." if root is not None else ""
            self._add("unsorted-fs",
                      f"an unsorted filesystem enumeration "
                      f"({receiver}{method}())", node.lineno)
        elif method == "strftime":
            self._add("locale-string",
                      "a strftime() rendering (locale-dependent "
                      "names)", node.lineno)

    def _format_spec(self, node: ast.FormattedValue) -> None:
        spec = node.format_spec
        if not isinstance(spec, ast.JoinedStr):
            return
        text = "".join(part.value for part in spec.values
                       if isinstance(part, ast.Constant))
        if _FLOAT_SPEC_RE.search(text):
            self._add("float-format", f"a fixed float format (:{text})",
                      node.lineno)


def det_facts(scope: Scope, module: ModuleFacts) -> list[Fact]:
    """The direct instabilities of one function scope."""
    return _DetTable(scope, module).facts


def root_problem(label: str | None) -> str | None:
    """What is wrong with a ``@replay_root`` label, if anything.

    The bare decorator and a zero-argument call declare an unlabelled
    root; a constant-string argument (positional or ``name=``) labels
    it. Anything computed is a DAS412 problem.
    """
    if label is None:
        return ("root name is not a string constant; a computed root "
                "declares nothing checkable")
    return None
