"""Module/import graph and call graph construction (repro.lint.flow)."""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.lint.flow import analyze_tree, build_module_graph
from repro.lint.pycheck import _ImportMap


def write_tree(root, files: dict) -> None:
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


class TestModuleGraph:
    def test_plain_directory_modules(self, tmp_path):
        write_tree(tmp_path, {
            "analysis.py": "import helpers\n",
            "helpers.py": "import math\n",
        })
        graph = build_module_graph(tmp_path)
        assert set(graph.modules) == {"analysis", "helpers"}
        assert graph.modules["analysis"].internal_imports == ("helpers",)
        assert graph.modules["helpers"].external_imports == ("math",)

    def test_package_anchor_walks_above_init(self, tmp_path):
        write_tree(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/mod.py": "from pkg import other\n",
            "src/pkg/other.py": "",
        })
        graph = build_module_graph(tmp_path / "src" / "pkg")
        assert graph.anchor == tmp_path / "src"
        assert "pkg.mod" in graph.modules
        assert graph.modules["pkg.mod"].internal_imports == (
            "pkg", "pkg.other")

    def test_relative_import_resolves_inside_package(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/sub/__init__.py": "",
            "pkg/sub/a.py": "from .. import b\nfrom . import c\n",
            "pkg/sub/c.py": "",
            "pkg/b.py": "",
        })
        graph = build_module_graph(tmp_path / "pkg")
        node = graph.modules["pkg.sub.a"]
        assert set(node.internal_imports) == {
            "pkg", "pkg.b", "pkg.sub", "pkg.sub.c"}
        assert node.unresolved_imports == ()

    def test_relative_import_above_root_is_unresolved(self, tmp_path):
        write_tree(tmp_path, {"orphan.py": "from ..nowhere import x\n"})
        graph = build_module_graph(tmp_path)
        node = graph.modules["orphan"]
        rendered = [name for name, _ in node.unresolved_imports]
        assert rendered == ["..nowhere"]

    def test_internal_closure_follows_import_chain(self, tmp_path):
        write_tree(tmp_path, {
            "a.py": "import b\n",
            "b.py": "import c\n",
            "c.py": "",
            "island.py": "",
        })
        graph = build_module_graph(tmp_path)
        assert graph.internal_closure(["a"]) == ["a", "b", "c"]

    def test_file_target_narrows_targets_not_graph(self, tmp_path):
        write_tree(tmp_path, {
            "main.py": "import dep\n",
            "dep.py": "",
        })
        graph = build_module_graph(tmp_path / "main.py")
        assert graph.targets == ("main",)
        assert set(graph.modules) == {"main", "dep"}

    def test_syntax_error_recorded_not_raised(self, tmp_path):
        write_tree(tmp_path, {"broken.py": "def f(:\n"})
        graph = build_module_graph(tmp_path)
        assert graph.modules["broken"].parse_error


class TestImportMapRegressions:
    def parse(self, source: str, package: str = "") -> _ImportMap:
        imports = _ImportMap(package)
        for node in ast.walk(ast.parse(textwrap.dedent(source))):
            if isinstance(node, ast.Import):
                imports.visit_import(node)
            elif isinstance(node, ast.ImportFrom):
                imports.visit_import_from(node)
        return imports

    def test_dotted_alias_keeps_full_path(self):
        imports = self.parse("import os.path as p\n")
        assert imports.alias_target("p") == "os.path"
        assert imports.resolve("p.join") == "os.path.join"

    def test_dotted_import_without_alias_binds_root(self, tmp_path):
        imports = self.parse("import os.path\n")
        assert imports.resolve("os.path.join") == "os.path.join"
        write_tree(tmp_path, {"mod.py": "import os.path\n"})
        graph = build_module_graph(tmp_path)
        assert ("os.path", 1) in graph.modules["mod"].imports

    def test_relative_from_import_uses_package(self):
        imports = self.parse("from . import util\n", package="pkg.sub")
        assert imports.alias_target("util") == "pkg.sub.util"

    def test_two_dot_relative_climbs_one_package(self):
        imports = self.parse("from ..core import io\n",
                             package="pkg.sub")
        assert imports.alias_target("io") == "pkg.core.io"

    def test_relative_import_without_package_is_dropped(self, tmp_path):
        imports = self.parse("from . import util\n")
        assert imports.alias_target("util") is None
        # Outside a package the import is only named as written.
        write_tree(tmp_path, {"mod.py": "from . import util\n"})
        graph = build_module_graph(tmp_path)
        assert graph.modules["mod"].imports == ((".", 1),)

    def test_from_import_alias(self):
        imports = self.parse("from json import dumps as d\n")
        assert imports.resolve("d") == "json.dumps"


class TestCallGraph:
    def test_two_hop_call_chain(self, tmp_path):
        write_tree(tmp_path, {
            "analysis.py": """
                import helpers

                def run():
                    return helpers.smear(1.0)
            """,
            "helpers.py": """
                import util

                def smear(x):
                    return x + util.offset()
            """,
            "util.py": """
                def offset():
                    return 0.5
            """,
        })
        graph = analyze_tree(tmp_path)
        calls = dict(graph.functions["analysis:run"].calls)
        assert "helpers:smear" in calls
        calls = dict(graph.functions["helpers:smear"].calls)
        assert "util:offset" in calls

    def test_self_method_resolution(self, tmp_path):
        write_tree(tmp_path, {
            "mod.py": """
                class Thing:
                    def outer(self):
                        return self.inner()

                    def inner(self):
                        return 1
            """,
        })
        graph = analyze_tree(tmp_path)
        calls = dict(graph.functions["mod:Thing.outer"].calls)
        assert "mod:Thing.inner" in calls

    def test_constructor_call_edges_to_init(self, tmp_path):
        write_tree(tmp_path, {
            "mod.py": """
                class Box:
                    def __init__(self):
                        self.items = []

                def build():
                    return Box()
            """,
        })
        graph = analyze_tree(tmp_path)
        calls = dict(graph.functions["mod:build"].calls)
        assert "mod:Box.__init__" in calls

    def test_analysis_subclass_detected_through_base(self, tmp_path):
        write_tree(tmp_path, {
            "base.py": """
                class Analysis:
                    pass
            """,
            "mine.py": """
                from base import Analysis

                class Middle(Analysis):
                    pass

                class ZPeak(Middle):
                    def analyze(self, event):
                        pass
            """,
        })
        graph = analyze_tree(tmp_path)
        names = {info.name for info in graph.analysis_entries()}
        assert "ZPeak" in names and "Middle" in names

    def test_metadata_name_extracted_statically(self, tmp_path):
        write_tree(tmp_path, {
            "base.py": """
                class Analysis:
                    pass

                class AnalysisMetadata:
                    def __init__(self, name, inspire_id=""):
                        pass
            """,
            "mine.py": """
                from base import Analysis, AnalysisMetadata

                class ZPeak(Analysis):
                    def __init__(self):
                        self.metadata = AnalysisMetadata(
                            name="TOY_2013_I0042",
                            inspire_id="I0042",
                        )
            """,
        })
        graph = analyze_tree(tmp_path)
        info = next(c for c in graph.analysis_entries()
                    if c.name == "ZPeak")
        assert info.metadata_name == "TOY_2013_I0042"
        assert info.inspire_id == "I0042"

    def test_dynamic_metadata_name_left_empty(self, tmp_path):
        write_tree(tmp_path, {
            "base.py": """
                class Analysis:
                    pass

                class AnalysisMetadata:
                    def __init__(self, name):
                        pass
            """,
            "mine.py": """
                from base import Analysis, AnalysisMetadata

                class Param(Analysis):
                    def __init__(self, n):
                        self.metadata = AnalysisMetadata(
                            name=f"TOY_{n}")
            """,
        })
        graph = analyze_tree(tmp_path)
        info = next(c for c in graph.analysis_entries()
                    if c.name == "Param")
        assert info.metadata_name == ""

    def test_functions_edge_to_their_module_pseudo_node(self, tmp_path):
        write_tree(tmp_path, {
            "mod.py": """
                import time

                def f():
                    return 1
            """,
        })
        graph = analyze_tree(tmp_path)
        calls = dict(graph.functions["mod:f"].calls)
        assert "mod:<module>" in calls

    def test_standard_analyses_graph_builds(self):
        import repro.rivet.standard_analyses as standard_analyses

        graph = analyze_tree(standard_analyses.__file__)
        entries = graph.analysis_entries()
        names = {info.metadata_name for info in entries}
        assert "TOY_2013_I0001" in names
        assert len(entries) >= 7


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
