"""Cost contracts of the deep passes: one parse and one walk per module,
no garbage.

Each of ``lint_tree_deep``, ``lint_tree_par`` and ``lint_tree_det``
parses every module of the tree exactly once — the module-graph scan
parses each module and walks it once, and the call graph and the
par/det tables read that walk's record. ``deep_findings``/
``par_findings``/``det_findings`` on a built graph parse nothing, so
``repro lint --deep`` parses every module twice: once for the shallow
pass and once for the one graph its three deep passes share. Building
the graph and running all three passes asks for each AST node's
children about once. A pass frees everything it built by reference
counting alone: no reference cycle keeps a call graph (and every AST in
it) alive until the cyclic collector happens to run.
"""

from __future__ import annotations

import ast
import gc
from collections import Counter

import pytest

from perfbench.corpus import write_corpus
from repro.cli import main
from repro.lint import (
    analyze_tree,
    deep_findings,
    det_findings,
    lint_tree_deep,
    lint_tree_det,
    lint_tree_par,
    par_findings,
)

PASSES = [lint_tree_deep, lint_tree_par, lint_tree_det]


@pytest.fixture
def corpus(tmp_path):
    write_corpus(tmp_path, 1, packages=2)
    return tmp_path


@pytest.fixture
def parses(monkeypatch):
    """Counts ``ast.parse`` calls by the filename they were given."""
    counts: Counter = Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        counts[str(filename)] += 1
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    return counts


@pytest.mark.parametrize("run", PASSES, ids=lambda run: run.__name__)
def test_each_pass_parses_every_module_once(run, corpus, parses):
    run(corpus)
    expected = {str(path): 1 for path in sorted(corpus.rglob("*.py"))}
    assert len(expected) == 32
    assert dict(parses) == expected


@pytest.mark.parametrize("findings",
                         [deep_findings, par_findings, det_findings],
                         ids=lambda findings: findings.__name__)
def test_findings_on_a_built_graph_parse_nothing(findings, corpus,
                                                 parses):
    graph = analyze_tree(corpus)
    parses.clear()
    assert findings(graph)
    assert not parses


def test_cli_deep_lint_parses_every_module_twice(corpus, parses, capsys):
    main(["lint", "--deep", str(corpus)])
    capsys.readouterr()
    expected = {str(path): 2 for path in sorted(corpus.rglob("*.py"))}
    assert len(expected) == 32
    assert dict(parses) == expected


def test_graph_and_passes_walk_each_node_once(corpus, monkeypatch):
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(corpus.rglob("*.py"))]
    nodes = sum(1 for tree in trees for _ in ast.walk(tree))
    calls = 0
    real_iter_child_nodes = ast.iter_child_nodes

    def counting_iter_child_nodes(node):
        nonlocal calls
        calls += 1
        return real_iter_child_nodes(node)

    # ``ast.walk`` looks the function up on the module too.
    monkeypatch.setattr(ast, "iter_child_nodes", counting_iter_child_nodes)
    graph = analyze_tree(corpus)
    for findings in (deep_findings, par_findings, det_findings):
        assert findings(graph)
    # Every node but the module roots is visited through the function,
    # and almost nothing is visited twice.
    assert calls >= nodes - len(trees)
    assert calls <= 1.1 * nodes


@pytest.mark.parametrize("run", PASSES, ids=lambda run: run.__name__)
def test_pass_leaves_no_cyclic_garbage(run, corpus):
    run(corpus)  # first call pays for imports and registries
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run(corpus)
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == 0
