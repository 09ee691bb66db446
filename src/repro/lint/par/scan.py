"""Parallel and kernel-tier safety facts: tables over the fact walk.

The flow layer's call graph answers *who calls whom*; these tables
answer *what each function does that a pool must care about*: writes
to shared state, undisciplined randomness, in-place mutation of
caller-owned arrays, order-sensitive float accumulation, equivalence
tier declarations, and the dispatch sites that hand workers to a pool
(calls of :func:`repro.runtime.parallel_map`). They classify the fact
walk's record of each function (:mod:`repro.lint.flow.factwalk`);
nothing is walked, imported or executed. Facts carry the same ``module:func`` /
``module:Class.method`` qualnames the call graph uses so the analysis
layer can carry them along call edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from operator import itemgetter

from repro.columnar.tiers import EQUIVALENCE_TIERS
from repro.lint.flow.callgraph import _MUTATOR_METHODS
from repro.lint.flow.chains import Fact
from repro.lint.flow.factwalk import (
    ModuleFacts,
    Scope,
    classify_rng,
    root_name,
)
from repro.lint.pycheck import _dotted_name

#: Method names that draw from (i.e. advance) a random stream.
_RNG_DRAW_METHODS = {
    "normal", "standard_normal", "uniform", "random", "integers",
    "choice", "shuffle", "permutation", "poisson", "exponential",
    "binomial", "gauss", "randint", "rand", "randn", "random_sample",
}

#: Array methods returning views into the receiver's buffer.
_VIEW_METHODS = {"reshape", "ravel", "view", "transpose", "swapaxes",
                 "squeeze", "diagonal"}

#: numpy-level functions returning views (or no-copy passthroughs).
_VIEW_FUNCTIONS = {"asarray", "ravel", "transpose", "atleast_1d",
                   "squeeze", "broadcast_to"}

#: Methods where writes to ``self`` are construction, not mutation.
_CONSTRUCTOR_METHODS = {"__init__", "__post_init__", "__new__",
                        "__setstate__", "__init_subclass__"}

#: RNG call class (:func:`classify_rng`) -> kind and description.
_RNG_FACTS = {
    "unseeded": ("underived-seed",
                 "an RNG constructed without a seed ({}())"),
    "constant": ("underived-seed",
                 "an RNG seeded from a constant, not a "
                 "derive_seed(...)-derived argument ({}(...))"),
    "global": ("shared-rng", "a draw from the process-global stream {}()"),
    "legacy": ("shared-rng", "a draw from the legacy global stream {}()"),
}


@dataclass(frozen=True)
class DispatchSite:
    """One ``parallel_map`` call handing a worker callable to a pool."""

    module: str
    line: int
    #: The enclosing function (or pseudo-node).
    scope: Scope
    worker: ast.expr


def _has_slice(subscript: ast.Subscript) -> bool:
    index = subscript.slice
    if isinstance(index, ast.Slice):
        return True
    return (isinstance(index, ast.Tuple)
            and any(isinstance(e, ast.Slice) for e in index.elts))


class _ParTable:
    """The direct hazards of one function scope."""

    def __init__(self, scope: Scope, module: ModuleFacts) -> None:
        self.module = module
        self.scope = scope
        self.params = scope.params
        self.constructing = (scope.class_name is not None
                             and scope.funcdef.name in _CONSTRUCTOR_METHODS)
        self.facts: list[Fact] = []
        for node, _, _, in_loop in scope.stores:
            self._store(node, in_loop)
        for node, *_ in scope.calls:
            self._call(node)
        for node, *_ in scope.returns:
            self._return(node)

    def _add(self, kind: str, description: str, line: int) -> None:
        self.facts.append(Fact(kind, description, line))

    def _write(self, root: str | None, line: int, on_self: str,
               on_param: tuple[str, str],
               on_module: str | None = None) -> None:
        """A write into what ``root`` names: instance state (outside
        construction), a parameter, or a module-level container."""
        if root == "self" and not self.constructing:
            if self.scope.class_name is not None:
                self._add("self-write", on_self, line)
        elif root in self.params:
            self._add(*on_param, line)
        elif on_module is not None and root in self.module.mutable_names:
            self._add("state-mutation", on_module, line)

    # -- stores --------------------------------------------------------

    def _store(self, node, in_loop: bool) -> None:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        augmented = isinstance(node, ast.AugAssign)
        line = node.lineno
        if (augmented and isinstance(node.op, (ast.Add, ast.Sub))
                and in_loop):
            self._add("order-sensitive",
                      "a loop-carried float accumulation "
                      "(chunking-dependent reduction order)", line)
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in self.scope.globals:
                    self._add("global-write",
                              f"a write to module-level name "
                              f"{target.id!r}", line)
                elif augmented and target.id in self.params:
                    self._add("inplace-param",
                              f"an augmented assignment to parameter "
                              f"{target.id!r}", line)
            elif isinstance(target, ast.Subscript):
                root = root_name(target.value)
                self._write(
                    root, line, f"an item write into instance state of "
                    f"{self.scope.class_name!r}",
                    ("inplace-param", f"an item/slice assignment into "
                                      f"parameter {root!r}"),
                    f"an item write into module-level container {root!r}")
            elif isinstance(target, ast.Attribute):
                root = root_name(target.value)
                self._write(
                    root, line,
                    f"a write to instance attribute self.{target.attr}",
                    ("arg-attr-write", f"a write to attribute "
                                       f"{root}.{target.attr} of a "
                                       f"parameter"))

    # -- calls ---------------------------------------------------------

    def _call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        aliases = self.module.aliases
        if isinstance(node.func, ast.Attribute):
            self._method_call(node)
        if dotted is not None:
            resolved = aliases.resolve(dotted)
            rng = classify_rng(node, resolved, self.params)
            if rng is not None:
                kind, description = _RNG_FACTS[rng]
                self._add(kind, description.format(resolved), node.lineno)
        if (isinstance(node.func, ast.Name) and node.func.id == "sum"
                and aliases.alias_target("sum") is None):
            self._add("order-sensitive",
                      "a builtin sum() reduction (use math.fsum or a "
                      "whole-array reduction for a fixed order)",
                      node.lineno)
        for keyword in node.keywords:
            if keyword.arg == "out":
                root = root_name(keyword.value)
                if root in self.params:
                    self._add("inplace-param",
                              f"an out={root} aimed at a parameter",
                              node.lineno)

    def _method_call(self, node: ast.Call) -> None:
        method = node.func.attr
        root = root_name(node.func.value)
        if method in _MUTATOR_METHODS:
            self._write(
                root, node.lineno,
                f"a mutating .{method}() call on instance state",
                ("inplace-param", f"a mutating .{method}() call on "
                                  f"parameter {root!r}"),
                f"a mutating {root}.{method}() call on a module-level "
                f"container" if isinstance(node.func.value, ast.Name)
                else None)
        if method in _RNG_DRAW_METHODS and root is not None:
            self._add("rng-draw",
                      f"a random draw via .{method}()", node.lineno)

    # -- returns -------------------------------------------------------

    def _return(self, node: ast.Return) -> None:
        value = node.value
        if value is None:
            return
        if (isinstance(value, ast.Attribute) and value.attr == "T"
                and root_name(value.value) in self.params):
            self._add("returns-view",
                      "a .T transpose view of a parameter returned",
                      node.lineno)
        elif (isinstance(value, ast.Subscript) and _has_slice(value)
              and root_name(value.value) in self.params):
            self._add("returns-view",
                      f"a slice view of parameter "
                      f"{root_name(value.value)!r} returned",
                      node.lineno)
        elif isinstance(value, ast.Call):
            dotted = _dotted_name(value.func)
            if (isinstance(value.func, ast.Attribute)
                    and value.func.attr in _VIEW_METHODS
                    and root_name(value.func.value) in self.params):
                self._add("returns-view",
                          f"a .{value.func.attr}() view of a "
                          f"parameter returned", node.lineno)
            elif (dotted is not None
                  and dotted.rpartition(".")[2] in _VIEW_FUNCTIONS
                  and len(value.args) >= 1
                  and isinstance(value.args[0], ast.Name)
                  and value.args[0].id in self.params):
                self._add("returns-view",
                          f"a no-copy {dotted}() passthrough of a "
                          f"parameter returned", node.lineno)


def par_facts(scope: Scope, module: ModuleFacts) -> list[Fact]:
    """The direct hazards of one function scope."""
    return _ParTable(scope, module).facts


def tier_problem(tier: str | None) -> str | None:
    """What is wrong with an ``@equivalence_tier`` label, if anything."""
    if not tier:
        return ("tier is not a string constant; a computed tier "
                "declares nothing checkable")
    if tier not in EQUIVALENCE_TIERS:
        return (f"unknown tier {tier!r} (expected one of "
                f"{', '.join(EQUIVALENCE_TIERS)})")
    return None


def _worker_argument(call: ast.Call) -> ast.expr | None:
    """The expression travelling in ``parallel_map``'s worker slot:
    position 0 or keyword ``fn``."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "fn":
            return keyword.value
    return None


def dispatch_sites(name: str, module: ModuleFacts) -> list[DispatchSite]:
    """The body calls of one module that hand a worker to
    ``parallel_map``; one scope's sites in statement order."""
    sites: list[DispatchSite] = []
    for scope in module.scopes:
        for node, _, in_body, _ in sorted(scope.calls, key=itemgetter(1)):
            dotted = _dotted_name(node.func)
            # Matched by the last dotted segment: the analyzer sees
            # ``repro.runtime.scheduler.parallel_map`` in one tree and
            # a bare ``parallel_map`` import alias in another.
            if (not in_body or dotted is None
                    or dotted.rpartition(".")[2] != "parallel_map"):
                continue
            worker = _worker_argument(node)
            if worker is None:
                continue
            sites.append(DispatchSite(
                module=name, line=node.lineno, scope=scope,
                worker=worker))
    return sites
