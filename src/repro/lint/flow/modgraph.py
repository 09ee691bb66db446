"""The module/import graph over a preserved source tree.

Modules are discovered from the filesystem, named by their dotted path,
and linked by the imports their ASTs declare — including imports inside
function bodies, since those execute (and therefore matter for the
dependency closure) just the same. Nothing is imported or executed.

The *anchor* of a tree is the directory module names are computed
from. For a package (directories carrying ``__init__.py``) the anchor
is the parent of the topmost package directory, so absolute imports
inside the package (``from repro.kinematics import ...``) resolve to
tree members. For a plain directory of scripts the anchor is the
directory itself.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.flow.factwalk import ModuleFacts, walk_module


@dataclass(frozen=True)
class ModuleNode:
    """One Python module in the tree."""

    name: str
    path: str  # POSIX path relative to the anchor
    source: str
    source_digest: str  # SHA-256 of the source bytes
    imports: tuple[tuple[str, int], ...]  # (absolute dotted, line)
    internal_imports: tuple[str, ...] = ()
    external_imports: tuple[str, ...] = ()
    unresolved_imports: tuple[tuple[str, int], ...] = ()
    parse_error: str = ""
    #: The fact walk's record of the parsed source, shared by every
    #: pass over this graph.
    facts: ModuleFacts | None = field(default=None, compare=False,
                                      repr=False)

    @property
    def package(self) -> str:
        """The dotted package relative imports resolve against."""
        if self.path.endswith("__init__.py"):
            return self.name
        return self.name.rpartition(".")[0]


@dataclass
class ModuleGraph:
    """All modules under one anchor plus their import edges."""

    anchor: Path
    modules: dict[str, ModuleNode] = field(default_factory=dict)
    #: Modules the caller actually asked about (a single-file target
    #: scans its whole package for resolution but targets one module).
    targets: tuple[str, ...] = ()

    def internal_closure(self, start: list[str]) -> list[str]:
        """Modules transitively reachable from ``start`` via imports."""
        return sorted(reachable(
            [name for name in start if name in self.modules],
            lambda name: self.modules[name].internal_imports))

    def resolve_module(self, dotted: str) -> str | None:
        """Longest prefix of ``dotted`` that names a tree module."""
        return _longest_prefix(dotted, self.modules)


def reachable(start, neighbours) -> set:
    """Everything reachable from ``start`` along ``neighbours(node)``."""
    seen: set = set()
    frontier = list(start)
    while frontier:
        current = frontier.pop()
        if current not in seen:
            seen.add(current)
            frontier.extend(neighbours(current))
    return seen


def _longest_prefix(dotted: str, names) -> str | None:
    """Longest dotted prefix of ``dotted`` among ``names``."""
    parts = dotted.split(".")
    for length in range(len(parts), 0, -1):
        candidate = ".".join(parts[:length])
        if candidate in names:
            return candidate
    return None


def _find_anchor(root: Path) -> Path:
    """The directory module names are computed from (see module doc)."""
    directory = root if root.is_dir() else root.parent
    if not (directory / "__init__.py").is_file():
        return directory
    while ((directory.parent / "__init__.py").is_file()
           and directory.parent != directory):
        directory = directory.parent
    return directory.parent


def _module_name(relative: Path) -> str:
    """Dotted module name of one source file under the anchor."""
    parts = list(relative.parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][:-3]  # strip .py
    return ".".join(parts)


def build_module_graph(root: str | Path) -> ModuleGraph:
    """Scan a file or directory target into a :class:`ModuleGraph`."""
    root = Path(root).resolve()
    anchor = _find_anchor(root)
    graph = ModuleGraph(anchor=anchor)
    records: list[tuple[str, Path, str, str, list, str,
                        ModuleFacts | None]] = []
    for path in sorted(anchor.rglob("*.py")):
        relative = path.relative_to(anchor)
        name = _module_name(relative)
        if not name:
            continue
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            records.append((name, relative, "", "", [],
                            f"source unreadable: {exc}", None))
            continue
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        package = (name if relative.name == "__init__.py"
                   else name.rpartition(".")[0])
        try:
            module = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            records.append((name, relative, source, digest, [],
                            f"source does not parse: {exc.msg}", None))
            continue
        facts = walk_module(module, name, package)
        # (absolute dotted, line, resolved, candidate) per import; an
        # unresolved relative import becomes DAS207 material, and a
        # candidate submodule only counts on an exact tree match.
        imports = [(dotted, node.lineno, resolved, candidate)
                   for node in facts.imports
                   for dotted, resolved, candidate in facts.imported(node)]
        records.append((name, relative, source, digest, imports, "",
                        facts))

    known = {name for name, *_ in records}

    for name, relative, source, digest, imports, error, facts in records:
        internal: list[str] = []
        external: list[str] = []
        unresolved: list[tuple[str, int]] = []
        raw: list[tuple[str, int]] = []
        for dotted, line, resolved, candidate in imports:
            if candidate:
                # Submodule candidates only count on an exact match;
                # the base import already covers the other cases.
                if dotted in known and dotted != name:
                    raw.append((dotted, line))
                    internal.append(dotted)
                continue
            raw.append((dotted, line))
            if not resolved:
                unresolved.append((dotted, line))
                continue
            member = _longest_prefix(dotted, known)
            if member is not None and member != name:
                internal.append(member)
            elif member is None:
                external.append(dotted)
        graph.modules[name] = ModuleNode(
            name=name,
            path=relative.as_posix(),
            source=source,
            source_digest=digest,
            imports=tuple(sorted(set(raw))),
            internal_imports=tuple(sorted(set(internal))),
            external_imports=tuple(sorted(set(external))),
            unresolved_imports=tuple(sorted(set(unresolved))),
            parse_error=error,
            facts=facts,
        )

    if root.is_file():
        target = _module_name(root.relative_to(anchor))
        graph.targets = (target,) if target in graph.modules else ()
    else:
        prefix = root.relative_to(anchor).as_posix()
        graph.targets = tuple(sorted(
            name for name, node in graph.modules.items()
            if prefix in ("", ".") or node.path.startswith(prefix + "/")
            or node.path == prefix
        ))
    return graph
