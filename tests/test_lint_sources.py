"""Trigger/clean pairs for every AST source rule (DAS001-DAS010)."""

from __future__ import annotations

import textwrap

import pytest

from repro.cli import main
from repro.lint import lint_source, lint_source_file, lint_tree_deep


def codes(source: str) -> list[str]:
    """Lint a snippet and return the finding codes."""
    return [finding.code
            for finding in lint_source(textwrap.dedent(source))]


# ----------------------------------------------------------------------
# DAS001 wall clock
# ----------------------------------------------------------------------

def test_das001_triggers_on_time_time():
    source = """
    import time

    def analyze(event):
        started = time.time()
        return started
    """
    assert "DAS001" in codes(source)


def test_das001_triggers_on_datetime_now_from_import():
    source = """
    from datetime import datetime

    def stamp():
        return datetime.now()
    """
    assert "DAS001" in codes(source)


def test_das001_clean_on_seeded_deterministic_code():
    source = """
    def analyze(event):
        return event.weight * 2.0
    """
    assert codes(source) == []


# ----------------------------------------------------------------------
# DAS002 unseeded random
# ----------------------------------------------------------------------

def test_das002_triggers_on_global_random():
    source = """
    import random

    def smear(value):
        return value + random.gauss(0.0, 1.0)
    """
    assert "DAS002" in codes(source)


def test_das002_triggers_on_unseeded_default_rng():
    source = """
    import numpy as np

    rng_factory = None

    def build():
        return np.random.default_rng()
    """
    assert "DAS002" in codes(source)


def test_das002_triggers_on_legacy_numpy_global():
    source = """
    import numpy

    def draw():
        return numpy.random.normal()
    """
    assert "DAS002" in codes(source)


def test_das002_clean_on_seeded_rng():
    source = """
    import numpy as np
    import random

    def build(seed):
        return np.random.default_rng(seed), random.Random(seed)
    """
    assert codes(source) == []


# ----------------------------------------------------------------------
# DAS003 network
# ----------------------------------------------------------------------

def test_das003_triggers_on_network_import():
    source = """
    import urllib.request

    def fetch(url):
        return urllib.request.urlopen(url)
    """
    assert "DAS003" in codes(source)


def test_das003_triggers_on_from_import():
    source = """
    from socket import create_connection
    """
    assert "DAS003" in codes(source)


def _package_with_http(tmp_path, mod: str):
    """A package with its own ``http`` module and one importer."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "http.py").write_text(
        "def helper():\n    return 1\n", encoding="utf-8")
    (package / "mod.py").write_text(textwrap.dedent(mod),
                                    encoding="utf-8")
    return package / "mod.py"


@pytest.mark.parametrize("mod", [
    """
    from .http import helper

    def run():
        return helper()
    """,
    """
    from . import http

    def run():
        return http.helper()
    """,
], ids=["from_module", "from_package"])
def test_das003_clean_on_relative_import_of_a_package_module(tmp_path,
                                                              mod):
    target = _package_with_http(tmp_path, mod)
    assert lint_source_file(target) == []
    assert main(["lint", str(target)]) == 0
    assert lint_tree_deep(target) == []


def test_das003_relative_name_rebound_by_an_absolute_import():
    source = """
    from . import http
    import http

    def fetch():
        return http.client.HTTPConnection("example.org")
    """
    assert codes(source) == ["DAS003", "DAS003"]


def test_das003_clean_on_stdlib_math():
    source = """
    import math

    def f(x):
        return math.sqrt(x)
    """
    assert codes(source) == []


# ----------------------------------------------------------------------
# DAS004 filesystem
# ----------------------------------------------------------------------

def test_das004_triggers_on_open():
    source = """
    def load():
        with open("/data/calibration.txt") as handle:
            return handle.read()
    """
    assert "DAS004" in codes(source)


def test_das004_triggers_on_path_write():
    source = """
    from pathlib import Path

    def dump(text):
        Path("out.txt").write_text(text)
    """
    assert "DAS004" in codes(source)


def test_das004_triggers_on_shutil():
    source = """
    import shutil

    def wipe(path):
        shutil.rmtree(path)
    """
    assert "DAS004" in codes(source)


def test_das004_triggers_on_write_through_a_path_variable():
    source = """
    def dump(p, text):
        p.write_text(text)
    """
    assert "DAS004" in codes(source)


def test_das004_triggers_on_write_through_an_attribute():
    source = """
    class Writer:
        def close(self, data):
            self.path.write_bytes(data)
    """
    assert "DAS004" in codes(source)


def test_das004_triggers_on_open_through_an_attribute():
    source = """
    class Writer:
        def close(self, data):
            with self.path.open("wb") as handle:
                handle.write(data)
    """
    assert codes(source) == ["DAS004"]


def test_das004_triggers_on_os_open():
    source = """
    import os

    def detach():
        return os.open(os.devnull, os.O_WRONLY)
    """
    assert "DAS004" in codes(source)


def test_das004_clean_on_stream_write_and_str_replace():
    source = """
    def emit(handle, text):
        handle.write(text.replace("a", "b"))
        return str.replace(text, "a", "b")
    """
    assert codes(source) == []


def test_das004_clean_without_file_io():
    source = """
    def ht(jets):
        return sum(jet.pt for jet in jets)
    """
    assert codes(source) == []


# ----------------------------------------------------------------------
# DAS005 environment variables
# ----------------------------------------------------------------------

def test_das005_triggers_on_environ():
    source = """
    import os

    def threshold():
        return float(os.environ["CUT_GEV"])
    """
    assert "DAS005" in codes(source)


def test_das005_triggers_on_getenv():
    source = """
    import os

    def tag():
        return os.getenv("GLOBAL_TAG", "GT-FINAL")
    """
    assert "DAS005" in codes(source)


@pytest.mark.parametrize("read", [
    'environ["CUT_GEV"]', 'environ.get("CUT_GEV")', 'getenv("CUT_GEV")',
])
def test_das005_triggers_on_from_import_alias(read):
    source = f"""
    from os import environ, getenv

    def threshold():
        return float({read})
    """
    assert codes(source) == ["DAS005"]


def test_das005_clean_on_relative_environ():
    source = """
    from .os import environ

    def threshold():
        return environ["CUT_GEV"]
    """
    assert codes(source) == []


def test_das005_clean_on_os_path_use():
    source = """
    import os

    def join(a, b):
        return os.path.join(a, b)
    """
    assert codes(source) == []


# ----------------------------------------------------------------------
# DAS006 mutable module state
# ----------------------------------------------------------------------

def test_das006_triggers_on_module_level_dict():
    source = """
    _cache = {}

    def lookup(key):
        return _cache.get(key)
    """
    assert "DAS006" in codes(source)


def test_das006_triggers_on_list_constructor():
    source = """
    results = list()
    """
    assert "DAS006" in codes(source)


def test_das006_clean_on_tuples_and_function_locals():
    source = """
    CHANNELS = ("ee", "mumu")

    def collect(events):
        seen = []
        for event in events:
            seen.append(event)
        return seen
    """
    assert codes(source) == []


# ----------------------------------------------------------------------
# DAS007 swallowed exceptions
# ----------------------------------------------------------------------

def test_das007_triggers_on_bare_except():
    source = """
    def safe(fn):
        try:
            return fn()
        except:
            return None
    """
    assert "DAS007" in codes(source)


def test_das007_triggers_on_swallowed_preservation_error():
    source = """
    from repro.errors import PreservationError

    def safe(fn):
        try:
            return fn()
        except PreservationError:
            pass
    """
    assert "DAS007" in codes(source)


def test_das007_clean_when_reraised():
    source = """
    def safe(fn):
        try:
            return fn()
        except Exception:
            raise
    """
    assert codes(source) == []


def test_das007_clean_on_narrow_handler():
    source = """
    def parse(text):
        try:
            return int(text)
        except ValueError:
            return 0
    """
    assert codes(source) == []


# ----------------------------------------------------------------------
# DAS008 / DAS009 analysis metadata
# ----------------------------------------------------------------------

def test_das008_triggers_on_missing_metadata():
    source = """
    from repro.rivet.analysis import Analysis

    class NoMetadata(Analysis):
        def init(self):
            pass

        def analyze(self, event):
            pass
    """
    assert "DAS008" in codes(source)


def test_das008_clean_with_init_assigned_metadata():
    source = """
    from repro.rivet.analysis import Analysis, AnalysisMetadata

    class Configured(Analysis):
        def __init__(self, name):
            self.metadata = AnalysisMetadata(
                name=name, description="d", inspire_id="I0042",
            )
            super().__init__()

        def init(self):
            pass

        def analyze(self, event):
            pass
    """
    assert codes(source) == []


def test_das009_triggers_on_missing_inspire_id():
    source = """
    from repro.rivet.analysis import Analysis, AnalysisMetadata

    class NoLinkage(Analysis):
        metadata = AnalysisMetadata(name="X", description="d")

        def init(self):
            pass

        def analyze(self, event):
            pass
    """
    assert "DAS009" in codes(source)


def test_das009_clean_with_inspire_id():
    source = """
    from repro.rivet.analysis import Analysis, AnalysisMetadata

    class Linked(Analysis):
        metadata = AnalysisMetadata(name="X", description="d",
                                    inspire_id="I0001")

        def init(self):
            pass

        def analyze(self, event):
            pass
    """
    assert codes(source) == []


# ----------------------------------------------------------------------
# DAS010 unparseable source
# ----------------------------------------------------------------------

def test_das010_triggers_on_syntax_error():
    assert codes("def broken(:\n    pass") == ["DAS010"]


def test_das010_clean_on_valid_module():
    assert codes("x = 1") == []


# ----------------------------------------------------------------------
# Inline suppression markers
# ----------------------------------------------------------------------

def test_inline_ignore_waives_named_code():
    source = """
    import time

    def stamp():
        return time.time()  # lint: ignore[DAS001] -- display only
    """
    assert codes(source) == []


def test_inline_ignore_only_waives_named_codes():
    source = """
    import time
    import random

    def stamp():
        return time.time() + random.random()  # lint: ignore[DAS001]
    """
    assert codes(source) == ["DAS002"]


def test_bare_ignore_waives_everything_on_line():
    source = """
    import time
    import random

    def stamp():
        return time.time() + random.random()  # lint: ignore
    """
    assert codes(source) == []


def test_standalone_comment_marker_waives_next_line():
    source = """
    import time

    def stamp():
        # lint: ignore[DAS001] -- wall time feeds the progress bar
        # only, never the physics outputs.
        return time.time()
    """
    assert codes(source) == []


def test_marker_does_not_leak_to_later_lines():
    source = """
    import time

    def stamp():
        a = time.time()  # lint: ignore[DAS001]
        b = time.time()
        return a + b
    """
    assert codes(source) == ["DAS001"]


# ----------------------------------------------------------------------
# The bundled analyses must satisfy their own linter
# ----------------------------------------------------------------------

def test_standard_analyses_source_is_clean():
    import repro.rivet.standard_analyses as module
    from repro.lint import lint_source_file

    assert lint_source_file(module.__file__) == []


# ----------------------------------------------------------------------
# Unreadable sources are findings, never exceptions
# ----------------------------------------------------------------------

def test_das010_on_undecodable_file(tmp_path):
    from repro.lint import lint_source_file

    path = tmp_path / "binary.py"
    path.write_bytes(b"\xff\xfe\x00junk")
    findings = lint_source_file(path)
    assert [f.code for f in findings] == ["DAS010"]
    assert "unreadable" in findings[0].message


def test_das010_on_missing_file(tmp_path):
    from repro.lint import lint_source_file

    findings = lint_source_file(tmp_path / "ghost.py")
    assert [f.code for f in findings] == ["DAS010"]
    assert "unreadable" in findings[0].message
