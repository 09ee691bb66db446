"""The parallel-safety and kernel-tier pass: DAS301–DAS312."""

from __future__ import annotations

import importlib.util
import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.columnar import declared_tier, declared_tiers, equivalence_tier
from repro.errors import ConfigurationError
from repro.lint import lint_tree_par
from repro.lint.flow import analyze_tree
from repro.lint.flow.callgraph import _GraphBuilder
from repro.lint.flow.modgraph import build_module_graph
from repro.lint.par.analysis import _ParAnalysis

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def write_tree(root, files: dict) -> None:
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


def par_lint(tmp_path, files: dict):
    write_tree(tmp_path, files)
    return lint_tree_par(tmp_path)


# ---------------------------------------------------------------------------
# Known-bad fixtures: each worker rule fires on its dedicated module.
# ---------------------------------------------------------------------------

GLOBAL_WRITE = {
    "pool.py": """
        from repro.runtime import parallel_map

        _COUNT = 0

        def work(item):
            global _COUNT
            _COUNT = _COUNT + 1
            return item

        def run(items):
            return parallel_map(work, items)
    """,
}

STATE_MUTATION = {
    "pool.py": """
        from repro.runtime import parallel_map

        _CACHE = {}

        def remember(key, value):
            _CACHE[key] = value
            return value

        def work(item):
            return remember(item, item * 2)

        def run(items):
            return parallel_map(work, items)
    """,
}

SELF_WRITE = {
    "proc.py": """
        from repro.runtime import parallel_map

        class Processor:
            def __init__(self):
                self.count = 0

            def _work(self, item):
                self.count += 1
                return item

            def run(self, items):
                return parallel_map(self._work, items)
    """,
}

LAMBDA_WORKER = {
    "lam.py": """
        from repro.runtime import parallel_map

        def run(items):
            return parallel_map(lambda item: item + 1, items)
    """,
}

SHARED_RNG = {
    "rng.py": """
        import random

        from repro.runtime import parallel_map

        def work(item):
            return item + random.gauss(0.0, 1.0)

        def run(items):
            return parallel_map(work, items)
    """,
}

UNDERIVED_SEED = {
    "seed.py": """
        from numpy.random import default_rng

        from repro.runtime import parallel_map

        def work(item):
            rng = default_rng(42)
            return item + rng.normal()

        def run(items):
            return parallel_map(work, items)
    """,
}

DERIVED_SEED = {
    "seed.py": """
        from numpy.random import default_rng

        from repro.runtime import derive_seed, parallel_map

        def work(item, seed):
            rng = default_rng(derive_seed(seed, item))
            return rng.normal()

        def run(items):
            return parallel_map(work, items)
    """,
}


class TestWorkerRules:
    def test_das301_global_write(self, tmp_path):
        findings = par_lint(tmp_path, GLOBAL_WRITE)
        assert [f.code for f in findings] == ["DAS301"]
        finding = findings[0]
        assert finding.severity.name == "ERROR"
        assert finding.artifact == "pool.work"
        assert "parallel worker 'pool.work'" in finding.message
        assert "dispatched by parallel_map()" in finding.message
        assert "_COUNT" in finding.message

    def test_das302_module_state_mutation_carries_chain(self, tmp_path):
        findings = par_lint(tmp_path, STATE_MUTATION)
        assert [f.code for f in findings] == ["DAS302"]
        assert "pool.work -> pool.remember" in findings[0].message
        assert "_CACHE" in findings[0].message

    def test_das303_self_attribute_write(self, tmp_path):
        findings = par_lint(tmp_path, SELF_WRITE)
        assert [f.code for f in findings] == ["DAS303"]
        finding = findings[0]
        assert finding.artifact == "proc.Processor._work"
        assert "self.count" in finding.message

    def test_das304_lambda_worker(self, tmp_path):
        findings = par_lint(tmp_path, LAMBDA_WORKER)
        assert [f.code for f in findings] == ["DAS304"]
        assert "a lambda" in findings[0].message
        assert "mode='process'" in findings[0].message

    def test_das304_nested_function_worker(self, tmp_path):
        findings = par_lint(tmp_path, {
            "nested.py": """
                from repro.runtime import parallel_map

                def run(items):
                    def work(item):
                        return item + 1
                    return parallel_map(work, items)
            """,
        })
        assert [f.code for f in findings] == ["DAS304"]
        assert "locally defined function 'work'" in findings[0].message

    def test_das305_shared_module_rng(self, tmp_path):
        findings = par_lint(tmp_path, SHARED_RNG)
        assert [f.code for f in findings] == ["DAS305"]
        assert "random.gauss" in findings[0].message

    def test_das306_underived_seed(self, tmp_path):
        findings = par_lint(tmp_path, UNDERIVED_SEED)
        assert [f.code for f in findings] == ["DAS306"]
        assert "derive_seed" in findings[0].message

    def test_derived_seed_is_clean(self, tmp_path):
        assert par_lint(tmp_path, DERIVED_SEED) == []

    def test_seed_from_parameter_is_clean(self, tmp_path):
        derived = dict(DERIVED_SEED)
        derived["seed.py"] = derived["seed.py"].replace(
            "derive_seed(seed, item)", "seed")
        assert par_lint(tmp_path, derived) == []

    def test_worker_passed_by_keyword_through_dotted_name(self, tmp_path):
        tree = {"pool.py": GLOBAL_WRITE["pool.py"].replace(
            "from repro.runtime import parallel_map",
            "import repro.runtime").replace(
            "parallel_map(work, items)",
            "repro.runtime.parallel_map(fn=work, items=items)")}
        findings = par_lint(tmp_path, tree)
        assert [f.code for f in findings] == ["DAS301"]
        assert "dispatched by parallel_map() at" in findings[0].message

    def test_undispatched_hazard_stays_silent(self, tmp_path):
        undispatched = {
            "pool.py": GLOBAL_WRITE["pool.py"].replace(
                "return parallel_map(work, items)",
                "return [work(item) for item in items]"),
        }
        assert par_lint(tmp_path, undispatched) == []

    def test_finding_anchors_at_the_worker_definition(self, tmp_path):
        findings = par_lint(tmp_path, SHARED_RNG)
        source = (tmp_path / "rng.py").read_text(encoding="utf-8")
        def_line = next(i for i, text in enumerate(source.splitlines(), 1)
                        if text.startswith("def work"))
        assert findings[0].line == def_line
        assert findings[0].file.endswith("rng.py")


class TestPartialWrappedWorkers:
    """Satellite regression: partial- and name-bound campaign workers."""

    CAMPAIGN = {
        "camp.py": """
            import functools

            from repro.runtime import parallel_map

            _RESULTS = []

            def _process_run(config, run):
                _RESULTS.append(run)
                return run

            def campaign(runs, config):
                worker = functools.partial(_process_run, config)
                return parallel_map(worker, runs)
        """,
    }

    def test_callgraph_edges_through_functools_partial(self, tmp_path):
        write_tree(tmp_path, self.CAMPAIGN)
        graph = _GraphBuilder(build_module_graph(tmp_path)).build()
        callees = {callee for callee, _
                   in graph.functions["camp:campaign"].calls}
        assert "camp:_process_run" in callees

    def test_partial_bound_worker_resolves_and_fires(self, tmp_path):
        findings = par_lint(tmp_path, self.CAMPAIGN)
        assert [f.code for f in findings] == ["DAS302"]
        finding = findings[0]
        assert finding.artifact == "camp._process_run"
        assert "_RESULTS" in finding.message

    def test_inline_partial_without_binding_also_resolves(self, tmp_path):
        inline = {
            "camp.py": self.CAMPAIGN["camp.py"].replace(
                "worker = functools.partial(_process_run, config)\n"
                "    return parallel_map(worker, runs)",
                "return parallel_map("
                "functools.partial(_process_run, config), runs)"),
        }
        findings = par_lint(tmp_path, inline)
        assert [f.code for f in findings] == ["DAS302"]


# ---------------------------------------------------------------------------
# Kernel rules: tier-declared functions checked directly.
# ---------------------------------------------------------------------------

def kernel(tier: str, body: str) -> dict:
    return {
        "kern.py": textwrap.dedent("""
            from repro.columnar import equivalence_tier


            @equivalence_tier({tier!r})
        """).format(tier=tier) + textwrap.dedent(body),
    }


class TestKernelRules:
    def test_das307_inplace_param_mutation(self, tmp_path):
        findings = par_lint(tmp_path, kernel("ulp", """
            def scale(values, factor):
                values *= factor
                return values
        """))
        assert [f.code for f in findings] == ["DAS307"]
        assert "ulp-tier kernel 'kern.scale'" in findings[0].message

    def test_das307_out_keyword_aliasing(self, tmp_path):
        findings = par_lint(tmp_path, kernel("exact", """
            def shift(values, offset, add):
                return add(values, offset, out=values)
        """))
        assert [f.code for f in findings] == ["DAS307"]
        assert "out=values" in findings[0].message

    def test_das308_kernel_returns_view(self, tmp_path):
        findings = par_lint(tmp_path, kernel("exact", """
            def flatten(values):
                return values.reshape(-1)
        """))
        assert [f.code for f in findings] == ["DAS308"]
        assert ".reshape()" in findings[0].message

    def test_das308_slice_view(self, tmp_path):
        findings = par_lint(tmp_path, kernel("exact", """
            def head(values, n):
                return values[:n]
        """))
        assert [f.code for f in findings] == ["DAS308"]

    def test_das309_argument_attribute_write(self, tmp_path):
        findings = par_lint(tmp_path, kernel("statistical", """
            def digitize(events, state):
                state.cursor = len(events)
                return events
        """))
        assert [f.code for f in findings] == ["DAS309"]
        assert "state.cursor" in findings[0].message

    def test_das310_exact_tier_rng_draw(self, tmp_path):
        findings = par_lint(tmp_path, kernel("exact", """
            def smear(values, rng):
                return values + rng.normal(size=len(values))
        """))
        assert [f.code for f in findings] == ["DAS310"]
        assert "exact-tier kernel" in findings[0].message

    def test_statistical_tier_may_draw(self, tmp_path):
        assert par_lint(tmp_path, kernel("statistical", """
            def smear(values, rng):
                return values + rng.normal(size=len(values))
        """)) == []

    def test_das311_order_sensitive_reduction(self, tmp_path):
        findings = par_lint(tmp_path, kernel("exact", """
            def total(values):
                acc = 0.0
                for value in values:
                    acc += value
                return acc
        """))
        assert [f.code for f in findings] == ["DAS311"]

    def test_das311_builtin_sum(self, tmp_path):
        findings = par_lint(tmp_path, kernel("exact", """
            def total(values):
                return sum(values)
        """))
        assert [f.code for f in findings] == ["DAS311"]
        assert "sum()" in findings[0].message

    def test_ulp_tier_tolerates_reassociation(self, tmp_path):
        assert par_lint(tmp_path, kernel("ulp", """
            def total(values):
                acc = 0.0
                for value in values:
                    acc += value
                return acc
        """)) == []

    def test_das312_unknown_tier(self, tmp_path):
        findings = par_lint(tmp_path, kernel("bitwise", """
            def wrap(values):
                return values + 1
        """))
        assert [f.code for f in findings] == ["DAS312"]
        assert "unknown tier 'bitwise'" in findings[0].message

    def test_das312_computed_tier(self, tmp_path):
        findings = par_lint(tmp_path, {
            "kern.py": """
                from repro.columnar import equivalence_tier

                TIER = "exact"

                @equivalence_tier(TIER)
                def wrap(values):
                    return values + 1
            """,
        })
        assert [f.code for f in findings] == ["DAS312"]
        assert "not a string constant" in findings[0].message

    def test_keyword_tier_declares_the_kernel(self, tmp_path):
        findings = par_lint(tmp_path, {
            "kern.py": """
                from repro.columnar import equivalence_tier

                @equivalence_tier(tier="ulp")
                def scale(values, factor):
                    values *= factor
                    return values
            """,
        })
        assert [f.code for f in findings] == ["DAS307"]
        assert "ulp-tier kernel 'kern.scale'" in findings[0].message

    def test_das312_bare_decorator_names_no_tier(self, tmp_path):
        findings = par_lint(tmp_path, {
            "kern.py": """
                from repro.columnar import equivalence_tier

                @equivalence_tier
                def wrap(values):
                    return values + 1
            """,
        })
        assert [f.code for f in findings] == ["DAS312"]
        assert "not a string constant" in findings[0].message

    def test_undeclared_function_is_not_a_kernel(self, tmp_path):
        assert par_lint(tmp_path, {
            "kern.py": """
                def total(values):
                    acc = 0.0
                    for value in values:
                        acc += value
                    return acc
            """,
        }) == []


class TestWaivers:
    def test_fact_line_waiver_kills_the_chain(self, tmp_path):
        waived = {
            "rng.py": SHARED_RNG["rng.py"].replace(
                "return item + random.gauss(0.0, 1.0)",
                "return item + random.gauss(0.0, 1.0)"
                "  # lint: ignore[DAS305] -- fixture"),
        }
        assert par_lint(tmp_path, waived) == []

    def test_worker_definition_waiver_kills_the_finding(self, tmp_path):
        waived = {
            "rng.py": SHARED_RNG["rng.py"].replace(
                "def work(item):",
                "# lint: ignore[DAS305] -- fixture\n"
                "def work(item):"),
        }
        assert par_lint(tmp_path, waived) == []

    def test_unrelated_waiver_does_not_silence(self, tmp_path):
        waived = {
            "rng.py": SHARED_RNG["rng.py"].replace(
                "return item + random.gauss(0.0, 1.0)",
                "return item + random.gauss(0.0, 1.0)"
                "  # lint: ignore[DAS001] -- wrong code"),
        }
        findings = par_lint(tmp_path, waived)
        assert [f.code for f in findings] == ["DAS305"]


# ---------------------------------------------------------------------------
# The equivalence-tier runtime registry.
# ---------------------------------------------------------------------------

class TestTierRegistry:
    #: One kernel per tier; the statistical one advances its caller's
    #: counter, a DAS309 hazard excused by a reasoned inline waiver.
    KERNELS = {
        "kernels.py": """
            import numpy as np

            from repro.columnar import equivalence_tier


            @equivalence_tier("exact")
            def double_all(values):
                return [2.0 * value for value in values]


            @equivalence_tier("ulp")
            def eta(pz, pt):
                return np.arcsinh(np.asarray(pz) / np.asarray(pt))


            @equivalence_tier("statistical")
            def digitize(state, events):
                first = state.bx
                # lint: ignore[DAS309] -- the scalar contract: digitising
                # advances the caller's bunch-crossing counter per event
                state.bx = first + len(events)
                return [first + index + 1 for index in range(len(events))]
        """,
    }

    def test_decorator_registers_and_annotates(self):
        @equivalence_tier("ulp")
        def _tier_registry_probe(values):
            return values

        assert _tier_registry_probe.__equivalence_tier__ == "ulp"
        assert declared_tier(_tier_registry_probe) == "ulp"

    def test_unknown_tier_raises(self):
        with pytest.raises(ConfigurationError):
            @equivalence_tier("bitwise")
            def _bad(values):
                return values

    def test_bundled_kernels_declare_tiers(self, tmp_path):
        write_tree(tmp_path, self.KERNELS)
        spec = importlib.util.spec_from_file_location(
            "tier_fixture_kernels", tmp_path / "kernels.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        assert declared_tier(module.double_all) == "exact"
        assert declared_tier(module.eta) == "ulp"
        assert declared_tier(module.digitize) == "statistical"
        assert declared_tier("tier_fixture_kernels.digitize") \
            == "statistical"
        assert declared_tiers()["tier_fixture_kernels.eta"] == "ulp"


# ---------------------------------------------------------------------------
# Self-analysis: the package honours its own rules.
# ---------------------------------------------------------------------------

class TestSelfAnalysis:
    def test_src_repro_is_par_clean(self):
        assert lint_tree_par(REPO_SRC) == []

    def test_every_library_worker_is_a_root(self):
        """The clean self-lint above covers these workers; losing one
        (the lease worker most of all) would make it vacuous."""
        roots = _ParAnalysis(analyze_tree(REPO_SRC))._worker_roots()
        assert set(roots) == {
            "repro.recast.scan:_evaluate_scan_point",
            "repro.reconstruction.reconstructor:_reconstruct_event",
            "repro.service.pool:execute_lease",
            "repro.workflow.campaign:_process_run_worker",
        }
        (lease_site,) = roots["repro.service.pool:execute_lease"]
        assert lease_site.module == "repro.service.scheduler"

    def test_kernels_waiver_is_load_bearing(self, tmp_path):
        """Stripping the one reasoned waiver re-surfaces exactly DAS309."""
        assert par_lint(tmp_path / "waived", TestTierRegistry.KERNELS) == []
        stripped = {
            "kernels.py": "\n".join(
                line for line in
                TestTierRegistry.KERNELS["kernels.py"].splitlines()
                if "lint: ignore[DAS309]" not in line),
        }
        findings = par_lint(tmp_path / "stripped", stripped)
        assert [f.code for f in findings] == ["DAS309"]
        assert "digitize" in findings[0].message
        assert "state.bx" in findings[0].message


# ---------------------------------------------------------------------------
# CLI wiring: --par, --deep implication, determinism, rule listing.
# ---------------------------------------------------------------------------

class TestCliPar:
    @pytest.fixture
    def par_tree(self, tmp_path):
        write_tree(tmp_path, GLOBAL_WRITE)
        return tmp_path

    def test_par_flag_runs_the_pass(self, par_tree, capsys):
        assert main(["lint", "--par", str(par_tree)]) == 2
        out = capsys.readouterr().out
        assert "DAS301" in out
        assert "parallel worker" in out

    def test_without_par_the_tree_is_shallow_clean(self, par_tree):
        assert main(["lint", str(par_tree)]) == 0

    def test_deep_implies_par(self, par_tree, capsys):
        assert main(["lint", "--deep", str(par_tree)]) == 2
        assert "DAS301" in capsys.readouterr().out

    def test_par_on_a_single_file_scans_its_tree(self, par_tree,
                                                 capsys):
        assert main(["lint", "--par",
                     str(par_tree / "pool.py")]) == 2
        assert "DAS301" in capsys.readouterr().out

    def test_json_output_is_byte_deterministic(self, par_tree, capsys):
        argv = ["lint", "--par", "--format", "json", str(par_tree)]
        assert main(argv) == 2
        first = capsys.readouterr().out
        assert main(argv) == 2
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert [f["code"] for f in payload["findings"]] == ["DAS301"]

    def test_select_par_prefix(self, tmp_path, capsys):
        write_tree(tmp_path, SHARED_RNG)
        assert main(["lint", "--par", "--select", "DAS3",
                     str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "DAS305" in out
        assert "DAS002" not in out

    def test_list_rules_orders_the_par_family_last(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        codes = re.findall(r"DAS\d{3}", capsys.readouterr().out)
        assert codes == sorted(codes)
        par_codes = [code for code in codes if code.startswith("DAS3")]
        assert par_codes == [f"DAS3{n:02d}" for n in range(1, 13)]
        assert codes.index("DAS301") > codes.index("DAS212")
