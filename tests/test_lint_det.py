"""The determinism/replay-safety pass: DAS401–DAS412."""

from __future__ import annotations

import json
import re
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.lint import lint_tree_det
from repro.lint.det import replay_root
from repro.lint.det.roots import _REGISTRY, register_replay_root

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def write_tree(root, files: dict) -> None:
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


def det_lint(tmp_path, files: dict):
    write_tree(tmp_path, files)
    return lint_tree_det(tmp_path)


# ---------------------------------------------------------------------------
# Known-bad fixtures: each rule fires on its dedicated module.
# ---------------------------------------------------------------------------

NONCANONICAL = {
    "enc.py": """
        import json

        from repro.lint.det import replay_root

        @replay_root("record stream")
        def dump(records):
            return "\\n".join(json.dumps(r) for r in records)
    """,
}

SET_ITERATION = {
    "enc.py": """
        from repro.lint.det import replay_root

        def collect(tags):
            return [tag for tag in set(tags)]

        @replay_root("tag block")
        def dump(tags):
            return ",".join(collect(tags))
    """,
}

DICT_ITERATION = {
    "enc.py": """
        from repro.lint.det import replay_root

        @replay_root("summary")
        def dump(counts):
            lines = []
            for name, count in counts.items():
                lines.append(f"{name}={count}")
            return "\\n".join(lines)
    """,
}

UNSORTED_FS = {
    "enc.py": """
        from repro.lint.det import replay_root

        @replay_root("manifest")
        def dump(base):
            return [str(p) for p in base.iterdir()]
    """,
}

WALL_CLOCK = {
    "enc.py": """
        import time

        from repro.lint.det import replay_root

        def stamp():
            return time.time()

        @replay_root("stamped log")
        def dump(lines):
            return f"{stamp()}: " + ";".join(lines)
    """,
}

HASH_IDENTITY = {
    "enc.py": """
        from repro.lint.det import replay_root

        @replay_root("object list")
        def dump(objs):
            return [repr(o) for o in sorted(objs, key=id)]
    """,
}

ENV_READ = {
    "enc.py": """
        import os

        from repro.lint.det import replay_root

        @replay_root("report")
        def dump(fields):
            fields["user"] = os.getenv("USER")
            return str(fields)
    """,
}

FLOAT_FORMAT = {
    "enc.py": """
        from repro.lint.det import replay_root

        @replay_root("measurements")
        def dump(values):
            return [f"{v:.3f}" for v in values]
    """,
}

UNDERIVED_RNG = {
    "enc.py": """
        import random

        from repro.lint.det import replay_root

        @replay_root("sampled ids")
        def dump(n):
            return [str(random.random()) for _ in range(n)]
    """,
}

LOCALE_STRING = {
    "enc.py": """
        import locale

        from repro.lint.det import replay_root

        @replay_root("totals")
        def dump(total):
            return locale.format_string("%d", total, grouping=True)
    """,
}

DICT_FROM_UNORDERED = {
    "enc.py": """
        from repro.lint.det import replay_root

        @replay_root("zeroed counters")
        def dump(names):
            counters = {name: 0 for name in set(names)}
            return str(counters)
    """,
}

COMPUTED_LABEL = {
    "enc.py": """
        from repro.lint.det import replay_root

        LABEL = "log"

        @replay_root(LABEL)
        def dump(lines):
            return ";".join(lines)
    """,
}

DUPLICATE_LABELS = {
    "enc.py": """
        from repro.lint.det import replay_root

        @replay_root("event log")
        def dump_a(lines):
            return ";".join(lines)

        @replay_root("event log")
        def dump_b(lines):
            return ",".join(lines)
    """,
}


class TestRootReachability:
    def test_das401_noncanonical_json(self, tmp_path):
        findings = det_lint(tmp_path, NONCANONICAL)
        assert [f.code for f in findings] == ["DAS401"]
        assert "sort_keys" in findings[0].message
        assert "record stream" in findings[0].message

    def test_das402_set_iteration_carries_chain(self, tmp_path):
        findings = det_lint(tmp_path, SET_ITERATION)
        assert [f.code for f in findings] == ["DAS402"]
        assert "enc.dump -> enc.collect" in findings[0].message

    def test_das403_dict_view_iteration(self, tmp_path):
        findings = det_lint(tmp_path, DICT_ITERATION)
        assert [f.code for f in findings] == ["DAS403"]
        assert ".items()" in findings[0].message

    def test_das404_unsorted_fs_enumeration(self, tmp_path):
        findings = det_lint(tmp_path, UNSORTED_FS)
        assert [f.code for f in findings] == ["DAS404"]
        assert "iterdir" in findings[0].message

    def test_das405_wall_clock(self, tmp_path):
        findings = det_lint(tmp_path, WALL_CLOCK)
        assert [f.code for f in findings] == ["DAS405"]
        assert "enc.dump -> enc.stamp" in findings[0].message

    def test_das406_identity_sort_key(self, tmp_path):
        findings = det_lint(tmp_path, HASH_IDENTITY)
        assert [f.code for f in findings] == ["DAS406"]
        assert "id()" in findings[0].message

    def test_das407_environment_read(self, tmp_path):
        findings = det_lint(tmp_path, ENV_READ)
        assert [f.code for f in findings] == ["DAS407"]

    @pytest.mark.parametrize("read", [
        'os.environ["USER"]', 'environ["USER"]', 'environ.get("USER")',
        'getenv("USER")',
    ])
    def test_das407_environment_read_through_an_alias(self, tmp_path,
                                                      read):
        findings = det_lint(tmp_path, {"enc.py": f"""
            import os
            from os import environ, getenv

            from repro.lint.det import replay_root

            def user():
                return {read}

            @replay_root("report")
            def dump(fields):
                fields["user"] = user()
                return str(fields)
        """})
        assert [f.code for f in findings] == ["DAS407"]
        assert "enc.dump -> enc.user" in findings[0].message

    def test_das408_float_format(self, tmp_path):
        findings = det_lint(tmp_path, FLOAT_FORMAT)
        assert [f.code for f in findings] == ["DAS408"]
        assert ".3f" in findings[0].message

    def test_das409_global_stream_draw(self, tmp_path):
        findings = det_lint(tmp_path, UNDERIVED_RNG)
        assert [f.code for f in findings] == ["DAS409"]

    def test_das410_locale_formatting(self, tmp_path):
        findings = det_lint(tmp_path, LOCALE_STRING)
        assert [f.code for f in findings] == ["DAS410"]

    def test_das411_dict_from_set(self, tmp_path):
        findings = det_lint(tmp_path, DICT_FROM_UNORDERED)
        assert [f.code for f in findings] == ["DAS411"]

    def test_finding_anchors_at_the_root_definition(self, tmp_path):
        findings = det_lint(tmp_path, WALL_CLOCK)
        source = textwrap.dedent(WALL_CLOCK["enc.py"])
        lines = source.splitlines()
        def_line = next(i for i, line in enumerate(lines, start=1)
                        if line.startswith("def dump"))
        assert findings[0].line == def_line
        assert findings[0].file.endswith("enc.py")

    def test_undeclared_function_is_not_a_root(self, tmp_path):
        undeclared = {
            "enc.py": WALL_CLOCK["enc.py"].replace(
                '@replay_root("stamped log")\n', ""),
        }
        assert det_lint(tmp_path, undeclared) == []

    def test_sorted_iteration_is_clean(self, tmp_path):
        clean = {
            "enc.py": DICT_ITERATION["enc.py"].replace(
                "counts.items()", "sorted(counts.items())"),
        }
        assert det_lint(tmp_path, clean) == []

    def test_sorted_enumeration_is_clean(self, tmp_path):
        clean = {
            "enc.py": UNSORTED_FS["enc.py"].replace(
                "base.iterdir()", "sorted(base.iterdir())"),
        }
        assert det_lint(tmp_path, clean) == []

    def test_canonical_dumps_is_clean(self, tmp_path):
        clean = {
            "enc.py": NONCANONICAL["enc.py"].replace(
                "json.dumps(r)", "json.dumps(r, sort_keys=True)"),
        }
        assert det_lint(tmp_path, clean) == []

    def test_derived_seed_is_clean(self, tmp_path):
        clean = {
            "enc.py": """
                import random

                from repro.lint.det import replay_root

                @replay_root("sampled ids")
                def dump(seed):
                    stream = random.Random(seed)
                    return [str(stream.random()) for _ in range(3)]
            """,
        }
        assert det_lint(tmp_path, clean) == []


class TestSeedParameters:
    """A seed that flows in through ``**kwargs`` or a nested def's
    parameter is derived, as the par pass already holds."""

    KWARGS = {
        "enc.py": """
            import numpy as np

            from repro.lint.det import replay_root
            from repro.runtime import parallel_map

            @replay_root("draws")
            def draw(**options):
                return np.random.default_rng(options["seed"]).random()

            def run(items):
                return parallel_map(draw, items)
        """,
    }

    NESTED = {
        "enc.py": """
            import numpy as np

            from repro.lint.det import replay_root

            @replay_root("draws")
            def draws(seeds):
                def one(seed):
                    return np.random.default_rng(seed).random()
                return [one(seed) for seed in seeds]
        """,
    }

    def test_kwargs_seed_is_derived(self, tmp_path):
        write_tree(tmp_path, self.KWARGS)
        assert main(["lint", "--det", "--par", str(tmp_path)]) == 0
        assert lint_tree_det(tmp_path) == []

    def test_nested_def_parameter_seed_is_derived(self, tmp_path):
        write_tree(tmp_path, self.NESTED)
        assert main(["lint", "--det", str(tmp_path)]) == 0
        assert lint_tree_det(tmp_path) == []

    def test_constant_seed_still_fires(self, tmp_path):
        write_tree(tmp_path, {"enc.py": self.KWARGS["enc.py"].replace(
            'options["seed"]', "42")})
        findings = lint_tree_det(tmp_path)
        assert [f.code for f in findings] == ["DAS409"]
        assert "seeded from a constant" in findings[0].message


class TestRootDeclarations:
    def test_das412_computed_label(self, tmp_path):
        findings = det_lint(tmp_path, COMPUTED_LABEL)
        assert [f.code for f in findings] == ["DAS412"]
        assert "string constant" in findings[0].message

    def test_das412_duplicate_labels(self, tmp_path):
        findings = det_lint(tmp_path, DUPLICATE_LABELS)
        assert [f.code for f in findings] == ["DAS412"]
        assert "dump_b" in findings[0].message
        assert "already declared" in findings[0].message

    def test_bare_decorator_declares_an_unlabelled_root(self, tmp_path):
        bare = {
            "enc.py": WALL_CLOCK["enc.py"].replace(
                '@replay_root("stamped log")', "@replay_root"),
        }
        findings = det_lint(tmp_path, bare)
        assert [f.code for f in findings] == ["DAS405"]
        assert "(stamped log)" not in findings[0].message


class TestWaivers:
    def test_fact_line_waiver_kills_the_chain(self, tmp_path):
        waived = {
            "enc.py": WALL_CLOCK["enc.py"].replace(
                "return time.time()",
                "return time.time()"
                "  # lint: ignore[DAS405] -- fixture"),
        }
        assert det_lint(tmp_path, waived) == []

    def test_root_definition_waiver_kills_the_finding(self, tmp_path):
        waived = {
            "enc.py": WALL_CLOCK["enc.py"].replace(
                "def dump(lines):",
                "# lint: ignore[DAS405] -- fixture\n"
                "def dump(lines):"),
        }
        assert det_lint(tmp_path, waived) == []

    def test_unrelated_waiver_does_not_silence(self, tmp_path):
        waived = {
            "enc.py": WALL_CLOCK["enc.py"].replace(
                "return time.time()",
                "return time.time()"
                "  # lint: ignore[DAS001] -- wrong code"),
        }
        findings = det_lint(tmp_path, waived)
        assert [f.code for f in findings] == ["DAS405"]


# ---------------------------------------------------------------------------
# The root registry and decorator runtime behaviour.
# ---------------------------------------------------------------------------

class TestRootRegistry:
    def test_decorator_tags_bare(self):
        @replay_root
        def _probe():
            return b""

        assert _probe.__replay_root__ == ""

    def test_decorator_tags_with_label(self):
        @replay_root("probe bytes")
        def _probe():
            return b""

        assert _probe.__replay_root__ == "probe bytes"

    def test_decorator_tags_with_keyword(self):
        @replay_root(name="probe bytes")
        def _probe():
            return b""

        assert _probe.__replay_root__ == "probe bytes"

    def test_decorator_rejects_non_string_label(self):
        with pytest.raises(ConfigurationError):
            replay_root(42)

    def test_duplicate_registration_raises(self):
        with pytest.raises(ConfigurationError):
            register_replay_root(
                "repro.core.canonical.canonical_json", "again")

    def test_library_roots_registered(self):
        assert _REGISTRY[
            "repro.core.canonical.canonical_json"
        ] == "canonical encoding"
        assert (
            "repro.datamodel.io.DatasetWriter.close" in _REGISTRY)


# ---------------------------------------------------------------------------
# Self-analysis: the package honours its own replay contract.
# ---------------------------------------------------------------------------

class TestSelfAnalysis:
    def test_src_repro_is_det_clean(self):
        assert lint_tree_det(REPO_SRC) == []

    def test_archive_waiver_is_load_bearing(self, tmp_path):
        """Stripping the one reasoned waiver re-surfaces exactly DAS403."""
        copy = tmp_path / "repro"
        shutil.copytree(REPO_SRC, copy)
        archive = copy / "core" / "archive.py"
        stripped = "\n".join(
            line for line in
            archive.read_text(encoding="utf-8").splitlines()
            if "lint: ignore[DAS403]" not in line)
        archive.write_text(stripped + "\n", encoding="utf-8")
        findings = lint_tree_det(copy)
        assert [f.code for f in findings] == ["DAS403"]
        assert "PreservationArchive.save" in findings[0].message

    def test_exactly_one_det_waiver_in_the_tree(self):
        count = 0
        for path in sorted(REPO_SRC.rglob("*.py")):
            count += len(re.findall(
                r"lint: ignore\[DAS4\d\d", path.read_text()))
        assert count == 1


# ---------------------------------------------------------------------------
# CLI wiring: --det, --deep implication, determinism, rule listing.
# ---------------------------------------------------------------------------

class TestCliDet:
    @pytest.fixture
    def det_tree(self, tmp_path):
        write_tree(tmp_path, NONCANONICAL)
        return tmp_path

    def test_det_flag_runs_the_pass(self, det_tree, capsys):
        assert main(["lint", "--det", str(det_tree)]) == 2
        out = capsys.readouterr().out
        assert "DAS401" in out
        assert "replay root" in out

    def test_without_det_the_tree_is_shallow_clean(self, det_tree):
        assert main(["lint", str(det_tree)]) == 0

    def test_deep_implies_det(self, det_tree, capsys):
        assert main(["lint", "--deep", str(det_tree)]) == 2
        assert "DAS401" in capsys.readouterr().out

    def test_det_on_a_single_file_scans_its_tree(self, det_tree,
                                                 capsys):
        assert main(["lint", "--det",
                     str(det_tree / "enc.py")]) == 2
        assert "DAS401" in capsys.readouterr().out

    def test_json_output_is_byte_deterministic(self, det_tree, capsys):
        argv = ["lint", "--det", "--format", "json", str(det_tree)]
        assert main(argv) == 2
        first = capsys.readouterr().out
        assert main(argv) == 2
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert [f["code"] for f in payload["findings"]] == ["DAS401"]

    def test_select_det_prefix(self, tmp_path, capsys):
        write_tree(tmp_path, WALL_CLOCK)
        assert main(["lint", "--det", "--select", "DAS4",
                     str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "DAS405" in out
        assert "DAS001" not in out

    def test_ignore_det_prefix_silences_the_pass(self, tmp_path,
                                                 capsys):
        write_tree(tmp_path, NONCANONICAL)
        assert main(["lint", "--det", "--ignore", "DAS4",
                     str(tmp_path)]) == 0
        assert "DAS401" not in capsys.readouterr().out

    def test_warning_rule_exits_one(self, tmp_path):
        write_tree(tmp_path, DICT_ITERATION)
        assert main(["lint", "--det", "--select", "DAS4",
                     str(tmp_path)]) == 1

    def test_list_rules_orders_the_det_family_last(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        codes = re.findall(r"DAS\d{3}", capsys.readouterr().out)
        assert codes == sorted(codes)
        det_codes = [code for code in codes if code.startswith("DAS4")]
        assert det_codes == [f"DAS4{n:02d}" for n in range(1, 13)]
        assert codes.index("DAS401") > codes.index("DAS312")
