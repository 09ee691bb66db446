"""AST reproducibility checks for preserved Python sources.

These rules run over RIVET ``Analysis`` plugin sources, example scripts,
and any other Python file an archive carries. Nothing is imported or
executed — a hostile or broken file can at worst produce findings.

Findings can be waived in the source itself with an end-of-line
marker::

    value = time.time()  # lint: ignore[DAS001] -- wall time is display-only

A bare ``# lint: ignore`` waives every rule on that line. The marker
sits either on the physical line the finding points at or on a
standalone comment directly above it (so long waiver reasons can be
written out in full).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.lint.engine import register_rule
from repro.lint.findings import Finding, Severity

RULE_SYNTAX = register_rule(
    "DAS010", "unparseable-source", Severity.ERROR, "rivet",
    "A preserved Python source does not parse.",
    "An archive whose code cannot even be parsed is unrunnable by "
    "definition; static checking is the cheapest place to notice.",
    "a truncated ``analysis.py`` inside a bundle",
)

RULE_WALLCLOCK = register_rule(
    "DAS001", "wall-clock-call", Severity.ERROR, "rivet",
    "Analysis code reads the wall clock.",
    "``time.time()``-family calls make re-runs depend on when they "
    "happen, so archived outputs can never be reproduced bit-for-bit.",
    "``started = time.time()`` inside ``analyze()``",
)

RULE_RANDOM = register_rule(
    "DAS002", "unseeded-random", Severity.ERROR, "rivet",
    "Analysis code draws from an unseeded or process-global RNG.",
    "Module-global RNG state (``random.*``, legacy ``numpy.random.*``) "
    "or ``default_rng()`` without a seed gives every re-run a different "
    "event sample; preserved code must derive randomness from an "
    "explicit recorded seed.",
    "``smear = random.gauss(0, 1)`` or ``np.random.default_rng()``",
)

RULE_NETWORK = register_rule(
    "DAS003", "network-access", Severity.ERROR, "rivet",
    "Analysis code imports or uses a network module.",
    "A preserved analysis must be self-contained: a fetch from a URL "
    "that has since moved is the classic way archived code dies.",
    "``import urllib.request`` in an analysis module",
)

RULE_FILESYSTEM = register_rule(
    "DAS004", "filesystem-access", Severity.WARNING, "rivet",
    "Analysis code touches the filesystem outside the archive API.",
    "Paths valid at preservation time rarely survive migration; all "
    "content should flow through the archive/dataset interfaces that "
    "verify fixity.",
    "``open('/data/cal.txt')`` inside ``init()``",
)

RULE_ENV = register_rule(
    "DAS005", "env-var-read", Severity.WARNING, "rivet",
    "Analysis code reads environment variables.",
    "Environment state is invisible to the preservation record; a "
    "re-run on a clean host silently sees different configuration.",
    "``threshold = float(os.environ['CUT'])``",
)

RULE_MUTABLE_GLOBAL = register_rule(
    "DAS006", "mutable-module-state", Severity.WARNING, "rivet",
    "A module-level name is bound to a mutable container.",
    "Module-level lists/dicts/sets accumulate state across events and "
    "across analyses sharing the interpreter, making results depend on "
    "execution order.",
    "``_cache = {}`` at module scope",
)

RULE_SWALLOW = register_rule(
    "DAS007", "swallowed-exception", Severity.ERROR, "rivet",
    "A handler swallows broad or preservation-family exceptions.",
    "``except:`` (or catching ``Exception``/``PreservationError`` "
    "without re-raising) turns fixity and validation failures into "
    "silently wrong physics.",
    "``except PreservationError: pass``",
)

RULE_METADATA = register_rule(
    "DAS008", "analysis-missing-metadata", Severity.WARNING, "rivet",
    "An Analysis subclass defines no AnalysisMetadata.",
    "The metadata block is the only link between archived code and the "
    "publication it implements; without it the plugin cannot even be "
    "registered.",
    "``class MyAnalysis(Analysis):`` with no ``metadata =`` assignment",
)

RULE_INSPIRE = register_rule(
    "DAS009", "analysis-no-inspire-id", Severity.INFO, "rivet",
    "Analysis metadata carries no literature key (inspire_id).",
    "Preserved measurements should point back at their publication the "
    "way RIVET/HepData entries do; purely generated analyses may waive "
    "this with a reason.",
    "``AnalysisMetadata(name=..., description=...)`` without "
    "``inspire_id=``",
)

_WALLCLOCK_CALLS = {
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.localtime", "time.gmtime", "time.ctime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_NETWORK_MODULES = ("socket", "urllib", "http", "requests", "ftplib",
                    "smtplib", "xmlrpc")

#: numpy.random attributes that are fine to *name* (seeded construction).
_NUMPY_RANDOM_SAFE = {"Generator", "SeedSequence", "PCG64", "Philox",
                      "BitGenerator", "RandomState"}

_OS_FILE_CALLS = {
    "os.remove", "os.unlink", "os.rename", "os.replace", "os.rmdir",
    "os.makedirs", "os.mkdir", "os.removedirs", "os.symlink",
}

_PATH_METHODS = {
    "write_text", "write_bytes", "read_text", "read_bytes", "unlink",
    "mkdir", "rmdir", "touch", "rename", "replace", "open",
}

#: Methods that open or write a file whatever their receiver, so an
#: access through a path variable (``self.path.open("wb")``,
#: ``self.path.write_bytes(...)``) is seen too.
_FILE_METHODS = frozenset({"open", "write_text", "write_bytes"})


#: Resolved names whose read reads the environment.
_ENV_READS = frozenset({"os.environ", "os.environb", "os.getenv"})


def _network_import(module: str) -> tuple | None:
    """(kind, description) of an import of ``module``, if a network
    module."""
    if module.split(".")[0] in _NETWORK_MODULES:
        return "network", f"import of network module {module!r}"
    return None


def _classify_call(node: ast.Call, resolve) -> tuple | None:
    """(kind, description) of one call, if impure.

    The callee, or the receiver of a ``Path(...).method()`` chain, is
    resolved through ``resolve``. The shallow rules and the call
    graph's direct facts share it.
    """
    dotted = _dotted_name(node.func)
    if dotted is None:
        # Path("...").write_text(...)-style chains.
        if (isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Call)):
            receiver = _dotted_name(node.func.value.func)
            method = node.func.attr
            if (receiver is not None and method in _PATH_METHODS
                    and resolve(receiver) in ("pathlib.Path", "Path")):
                return ("filesystem",
                        f"Path(...).{method}() outside the archive API")
        return _file_method_call(node.func)
    dotted = resolve(dotted)
    if dotted in _WALLCLOCK_CALLS:
        return "wall-clock", f"wall-clock call {dotted}()"
    if dotted == "random.Random" and not node.args:
        return ("unseeded-rng",
                "random.Random() constructed without a seed")
    if dotted.startswith("random.") and dotted != "random.Random":
        return ("unseeded-rng",
                f"call to module-global RNG {dotted}()")
    if dotted == "numpy.random.default_rng" and not node.args:
        return ("unseeded-rng",
                "numpy.random.default_rng() without a seed")
    if dotted.startswith("numpy.random."):
        attr = dotted.split(".", 2)[2]
        if attr not in _NUMPY_RANDOM_SAFE and attr != "default_rng":
            return ("unseeded-rng",
                    f"call to legacy global RNG {dotted}()")
    root = dotted.split(".")[0]
    if root in _NETWORK_MODULES:
        return "network", f"network call {dotted}()"
    if dotted == "open":
        return ("filesystem",
                "direct open() outside the archive API")
    if dotted in _OS_FILE_CALLS or dotted.startswith("shutil."):
        return "filesystem", f"filesystem call {dotted}()"
    if dotted in ("os.getenv", "os.environ.get"):
        return "env-read", f"environment read via {dotted}()"
    return _file_method_call(node.func)


def _file_method_call(func: ast.expr) -> tuple | None:
    """``filesystem`` for ``<anything>.open/write_text/write_bytes(...)``."""
    if isinstance(func, ast.Attribute) and func.attr in _FILE_METHODS:
        return "filesystem", f".{func.attr}() outside the archive API"
    return None


#: Shallow rule of each kind :func:`_classify_call` reports; an
#: environment read is reported where the attribute is read.
_CALL_RULES = {"wall-clock": RULE_WALLCLOCK, "unseeded-rng": RULE_RANDOM,
               "network": RULE_NETWORK, "filesystem": RULE_FILESYSTEM}

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}
_PRESERVATION_EXCEPTIONS = {
    "ReproError", "PreservationError", "ArchiveError", "FixityError",
    "ValidationError", "MetadataError", "MigrationError",
}

_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "Counter",
                  "OrderedDict", "deque"}

_IGNORE_RE = re.compile(
    r"#\s*lint:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]+)\])?"
)


def _ignored_codes_by_line(code: str) -> dict[int, set[str] | None]:
    """Line -> waived codes (``None`` means every code) from markers.

    A marker at the end of a code line waives that line; a marker on a
    standalone comment line waives the next code line (so the waiver
    reason can be written out in full above the statement).
    """
    ignores: dict[int, set[str] | None] = {}
    pending: set[str] | None = None
    pending_active = False
    for number, line in enumerate(code.splitlines(), start=1):
        is_comment_line = line.strip().startswith("#")
        match = _IGNORE_RE.search(line)
        waived: set[str] | None = None
        has_marker = match is not None
        if match is not None:
            codes = match.group("codes")
            if codes is not None:
                waived = {c.strip() for c in codes.split(",")
                          if c.strip()}
        if is_comment_line:
            if has_marker:
                pending, pending_active = waived, True
            continue
        if has_marker:
            ignores[number] = waived
        elif pending_active:
            ignores[number] = pending
        if line.strip():
            pending, pending_active = None, False
    return ignores


class _ImportMap:
    """Resolves local names to the dotted module paths they alias.

    ``package`` is the dotted package containing the module being
    checked; when given, relative imports (``from . import x``,
    ``from ..sub import y``) resolve to absolute module paths instead
    of being dropped.
    """

    def __init__(self, package: str = "") -> None:
        self._aliases: dict[str, str] = {}
        self.package = package

    def visit_import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                # ``import a.b as c`` binds the full dotted submodule
                # to the alias — resolving through it must yield
                # ``a.b.<attr>``, never the bare root ``a``.
                self._aliases[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self._aliases[root] = root

    def visit_import_from(self, node: ast.ImportFrom) -> None:
        base = self._absolute_base(node.module, node.level)
        if base is None:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            self._aliases[alias.asname or alias.name] = (
                f"{base}.{alias.name}"
            )

    def _absolute_base(self, module: str | None, level: int) -> str | None:
        """Absolute dotted base of a (possibly relative) from-import."""
        if not level:
            return module
        if not self.package:
            return None  # relative import, package unknown: unresolvable
        parts = self.package.split(".")
        if level - 1 > len(parts):
            return None  # climbs above the tree root
        base_parts = parts[:len(parts) - (level - 1)]
        if module:
            base_parts.append(module)
        return ".".join(base_parts) if base_parts else None

    def alias_target(self, name: str) -> str | None:
        """The dotted path a bare local name aliases, if any."""
        return self._aliases.get(name)

    def resolve(self, dotted: str) -> str:
        """Expand the leading segment through the alias table."""
        head, _, rest = dotted.partition(".")
        base = self._aliases.get(head, head)
        return f"{base}.{rest}" if rest else base


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_mutable_value(value: ast.expr) -> bool:
    """True for expressions that build a mutable container."""
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        dotted = _dotted_name(value.func)
        return (dotted or "").split(".")[-1] in _MUTABLE_CALLS
    return False


def _find_metadata_call(klass: ast.ClassDef) -> ast.Call | None:
    """The ``AnalysisMetadata(...)`` call backing ``metadata``: a
    class-level assignment, or one to ``self.metadata`` in
    ``__init__``."""
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


class _SourceChecker(ast.NodeVisitor):
    """One pass over a module AST, emitting findings as it goes."""

    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.findings: list[Finding] = []
        self.imports = _ImportMap()

    def _emit(self, rule, message: str, node: ast.AST,
              artifact: str = "") -> None:
        self.findings.append(rule.finding(
            message, artifact=artifact, file=self.filename,
            line=getattr(node, "lineno", 0),
        ))

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        self.imports.visit_import(node)
        for alias in node.names:
            self._check_network_module(alias.name, node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            # A relative import names a module of the file's own
            # package, never a top-level one: its names resolve to the
            # import as written, which matches no rule.
            prefix = "." * node.level + (f"{node.module}."
                                         if node.module else "")
            self.imports._aliases.update(
                (alias.asname or alias.name, prefix + alias.name)
                for alias in node.names if alias.name != "*")
        else:
            self.imports.visit_import_from(node)
            self._check_network_module(node.module, node)
        self.generic_visit(node)

    def _check_network_module(self, module: str, node: ast.AST) -> None:
        classified = _network_import(module)
        if classified is not None:
            self._emit(RULE_NETWORK, classified[1], node)

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        classified = _classify_call(node, self.imports.resolve)
        if classified is not None and classified[0] in _CALL_RULES:
            kind, description = classified
            self._emit(_CALL_RULES[kind], description, node)
        self.generic_visit(node)

    # -- environment ---------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = _dotted_name(node)
        if dotted and self.imports.resolve(dotted) in _ENV_READS:
            self._emit(RULE_ENV,
                       f"environment read via {dotted}", node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        # ``from os import environ``: the bare name reads it too.
        if self.imports.alias_target(node.id) in _ENV_READS:
            self._emit(RULE_ENV, f"environment read via {node.id}", node)

    # -- exception handling --------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        caught = self._caught_names(node.type)
        swallows = not self._body_raises(node)
        if node.type is None:
            if swallows:
                self._emit(RULE_SWALLOW,
                           "bare except: swallows every exception "
                           "(including PreservationError)", node)
        else:
            broad = caught & _BROAD_EXCEPTIONS
            preservation = caught & _PRESERVATION_EXCEPTIONS
            if swallows and (broad or preservation):
                name = sorted(broad | preservation)[0]
                self._emit(
                    RULE_SWALLOW,
                    f"except {name} swallows the preservation-error "
                    f"family without re-raising", node,
                )
        self.generic_visit(node)

    @staticmethod
    def _caught_names(type_node: ast.expr | None) -> set[str]:
        if type_node is None:
            return set()
        nodes = (type_node.elts if isinstance(type_node, ast.Tuple)
                 else [type_node])
        names = set()
        for sub in nodes:
            dotted = _dotted_name(sub)
            if dotted:
                names.add(dotted.split(".")[-1])
        return names

    @staticmethod
    def _body_raises(node: ast.ExceptHandler) -> bool:
        return any(isinstance(sub, ast.Raise)
                   for stmt in node.body for sub in ast.walk(stmt))

    # -- module-level mutable state ------------------------------------

    def check_module_body(self, module: ast.Module) -> None:
        """Flag mutable containers bound at module scope."""
        for stmt in module.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not self._is_mutable(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name) \
                        and not target.id.startswith("__"):
                    self._emit(
                        RULE_MUTABLE_GLOBAL,
                        f"module-level mutable state {target.id!r}",
                        stmt,
                    )

    _is_mutable = staticmethod(_is_mutable_value)

    # -- Analysis subclass metadata ------------------------------------

    def check_classes(self, module: ast.Module) -> None:
        """DAS008/DAS009 over every Analysis subclass in the module."""
        for stmt in module.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            bases = {(_dotted_name(base) or "").split(".")[-1]
                     for base in stmt.bases}
            if "Analysis" not in bases:
                continue
            metadata_call = _find_metadata_call(stmt)
            if metadata_call is None:
                self._emit(
                    RULE_METADATA,
                    f"Analysis subclass {stmt.name!r} defines no "
                    f"AnalysisMetadata", stmt, artifact=stmt.name,
                )
                continue
            if not self._has_inspire_id(metadata_call):
                self._emit(
                    RULE_INSPIRE,
                    f"analysis {stmt.name!r} metadata has no "
                    f"inspire_id (no literature linkage)",
                    metadata_call, artifact=stmt.name,
                )

    @staticmethod
    def _has_inspire_id(call: ast.Call) -> bool:
        for keyword in call.keywords:
            if keyword.arg == "inspire_id":
                if isinstance(keyword.value, ast.Constant):
                    return bool(keyword.value.value)
                return True
        return False


def lint_source(code: str, filename: str = "<source>") -> list[Finding]:
    """Run every source rule over one Python module's text."""
    try:
        module = ast.parse(code, filename=filename)
    except SyntaxError as exc:
        return [RULE_SYNTAX.finding(
            f"source does not parse: {exc.msg}",
            file=filename, line=exc.lineno or 0,
        )]
    checker = _SourceChecker(filename)
    checker.visit(module)
    checker.check_module_body(module)
    checker.check_classes(module)
    ignores = _ignored_codes_by_line(code)
    findings = []
    for finding in checker.findings:
        waived = ignores.get(finding.line)
        if waived is None and finding.line in ignores:
            continue  # bare ignore: every code waived
        if waived is not None and finding.code in waived:
            continue
        findings.append(finding)
    return findings


def lint_source_file(path: str | Path) -> list[Finding]:
    """Lint one ``.py`` file from disk.

    Unreadable or undecodable files yield a deterministic ``DAS010``
    error finding instead of raising — a ``--bundled`` or directory
    sweep must report every file it could not check and keep going,
    never abort mid-report.
    """
    path = Path(path)
    try:
        code = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [RULE_SYNTAX.finding(
            f"source unreadable: {exc}", file=str(path),
        )]
    return lint_source(code, str(path))
