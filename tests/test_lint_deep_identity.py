"""The deep passes' JSON reports are pinned byte for byte.

Each case is a source tree: the seeded ``perfbench`` corpus (seeds 1–3),
the known-bad fixtures of the par and det suites, and a handful of
trees whose findings depend on the order the scans visit nodes in
(shadowed bindings at different depths, ``global`` declared in a nested
def, nested-def parameters used before the def, two dispatch sites on
one line), and trees for what only the DAS2xx chains do (descending
into ``(import)`` pseudo-nodes, skipping a fact the entry method holds
itself, waivers by shallow and deep code at the fact and at the entry
def line, two lifecycle methods reaching one kind). The SHA-256 of
``render_json`` over each deep pass's findings is compared with a
pinned digest, so any change to the analysis output — not just to
finding codes — fails here. The shallow ``lint_path`` findings are
left out: they embed absolute paths.
"""

from __future__ import annotations

import hashlib

import pytest

from perfbench.corpus import write_corpus
from repro.lint import (
    LintSession,
    lint_tree_deep,
    lint_tree_det,
    lint_tree_par,
    render_json,
)
from tests import test_lint_det, test_lint_par
from tests.test_lint_par import kernel, write_tree

PASSES = {"deep": lint_tree_deep, "par": lint_tree_par,
          "det": lint_tree_det}


def _fixtures(module) -> dict[str, dict[str, str]]:
    """Every module-level ``NAME = {path: source}`` fixture tree."""
    return {name: value for name, value in vars(module).items()
            if name.isupper() and not name.startswith("_")
            and isinstance(value, dict)}


ORDER_SENSITIVE = {
    # The binding nested one level deeper is the last one a
    # breadth-first scan sees, though it comes first in the source.
    "shadow_binding": {
        "enc.py": """
            from repro.lint.det import replay_root

            @replay_root("shadowed tags")
            def dump(names, flag):
                if flag:
                    tags = []
                tags = set(names)
                return [t for t in tags]
        """,
        "pool.py": """
            import functools

            from repro.runtime import parallel_map

            _LOG = []

            def helper(scale, item):
                _LOG.append(item)
                return item * scale

            def run(items, flag):
                for item in items:
                    if flag:
                        worker = lambda x: x
                    worker = functools.partial(helper, 2)
                return parallel_map(worker, items)
        """,
    },
    # ``global`` inside a nested def still marks the outer write.
    "nested_global": {
        "pool.py": """
            from repro.runtime import parallel_map

            _COUNT = 0

            def work(item):
                _COUNT = item
                def bump():
                    global _COUNT
                    _COUNT += 1
                bump()
                return _COUNT

            def run(items):
                return parallel_map(work, items)
        """,
    },
    # A nested def's parameter is a parameter of the enclosing
    # function, even where it is used before the def.
    "nested_params": {
        "kern.py": """
            import random

            from repro.columnar import equivalence_tier


            @equivalence_tier("exact")
            def fill(values, total=sum([1, 2])):
                buffer.append(total)
                out[0] = 1.0
                def helper(buffer, out):
                    return buffer
                while values:
                    total += values.pop()
                else:
                    total -= 1
                return sorted(values)[:2]
        """,
    },
    # Two dispatch sites on one line, a nested worker and a lambda.
    "twin_sites": {
        "pool.py": """
            from repro.runtime import parallel_map

            def run(items):
                def inner(item):
                    return item
                return parallel_map(lambda x: x, parallel_map(inner, items))

            RESULT = parallel_map(len, [[1], [2]])
        """,
    },
    # Sanitised enumerations and sets bound in a comprehension scope.
    "sanitised": {
        "enc.py": """
            import os

            from repro.lint.det import replay_root

            @replay_root("listing")
            def dump(base, counts):
                names = sorted(os.listdir(base))
                raw = os.listdir(base)
                seen = {n for n in names}
                table = {k: v for k, v in counts.items()}
                return [n for n in seen], len(base.iterdir()), raw, table
        """,
    },
}


_BASE = """
    class Analysis:
        pass
"""

DEEP_SPECIFIC = {
    # The only wall-clock read runs when ``stamps`` is imported; the
    # chain reaches it through two ``(import)`` pseudo-nodes.
    "deep_import_time": {
        "base.py": _BASE,
        "stamps.py": """
            import time

            STARTED = time.time()

            def label():
                return "run"
        """,
        "analysis.py": """
            from base import Analysis
            import stamps

            class StampAnalysis(Analysis):
                def analyze(self, event):
                    return event
        """,
    },
    # The entry method's own wall-clock read is the shallow rules'
    # business; it must not hide the longer chain to the helper's.
    "deep_entry_fact": {
        "base.py": _BASE,
        "helpers.py": """
            import os
            import time

            def offset():
                return time.perf_counter() % 1.0

            def tag():
                return os.getenv("TAG")
        """,
        "analysis.py": """
            import time

            from base import Analysis
            import helpers

            class ClockAnalysis(Analysis):
                def analyze(self, event):
                    started = time.time()
                    return event + helpers.offset() + started

                def finalize(self):
                    import os
                    return os.getenv("MODE"), helpers.tag()
        """,
    },
    # Waivers at the fact line: the shallow code, the deep code, a bare
    # marker on the line above, and a code of the wrong kind (which
    # waives nothing). A waived short chain lets a longer one through.
    "deep_fact_waivers": {
        "base.py": _BASE,
        "helpers.py": """
            import os
            import random
            import time

            def clock():
                return time.time()  # lint: ignore[DAS001]

            def draw():
                return random.random()  # lint: ignore[DAS202]

            def home():
                # lint: ignore
                return os.getenv("HOME")

            def dump(path):
                return open(path)  # lint: ignore[DAS001]

            def deeper():
                return slower()

            def slower():
                return time.monotonic()
        """,
        "analysis.py": """
            from base import Analysis
            import helpers

            class WaivedAnalysis(Analysis):
                def analyze(self, event):
                    helpers.clock()
                    helpers.draw()
                    helpers.home()
                    helpers.dump(event)
                    return helpers.deeper()
        """,
    },
    # Waivers at the entry def line drop that finding only. A kind the
    # waived ``__init__`` reaches first is not re-reported through a
    # later lifecycle method.
    "deep_entry_waivers": {
        "base.py": _BASE,
        "helpers.py": """
            import random
            import time

            def clock():
                return time.time()

            def draw():
                return random.random()
        """,
        "analysis.py": """
            from base import Analysis
            import helpers

            class WaiverAnalysis(Analysis):
                def __init__(self):  # lint: ignore[DAS201]
                    self.t0 = helpers.clock()
                    self.r0 = helpers.draw()

                def analyze(self, event):
                    return helpers.clock() + event

            class BareAnalysis(Analysis):
                # lint: ignore
                def analyze(self, event):
                    return helpers.draw() + helpers.clock()
        """,
    },
    # Two lifecycle methods reach the same kinds by different chains;
    # each kind is reported once, from the earliest lifecycle method.
    "deep_two_lifecycle": {
        "base.py": _BASE,
        "helpers.py": """
            import datetime
            import time

            def clock():
                return time.time()

            def today():
                return datetime.date.today()

            def both():
                return clock(), today()

            COUNTER = []

            def bump():
                COUNTER.append(1)
        """,
        "analysis.py": """
            from base import Analysis
            import helpers
            from .missing import nothing

            class TwiceAnalysis(Analysis):
                def init(self):
                    return helpers.today()

                def analyze(self, event):
                    helpers.bump()
                    return helpers.both()

                def finalize(self):
                    return helpers.clock()
        """,
    },
}


def _cases() -> dict[str, object]:
    cases: dict[str, object] = {f"corpus_seed_{seed}": seed
                                for seed in (1, 2, 3)}
    for module in (test_lint_par, test_lint_det):
        prefix = module.__name__.rpartition("_")[2]
        for name, files in _fixtures(module).items():
            cases[f"{prefix}_{name}"] = files
    cases["par_CAMPAIGN"] = test_lint_par.TestPartialWrappedWorkers.CAMPAIGN
    cases["par_kernel_exact"] = kernel("exact", """
        def shift(values, offset, add):
            total = 0.0
            for value in values:
                total += value
            values.sort()
            return add(values, offset, out=values).T, values.ravel()
    """)
    cases.update(ORDER_SENSITIVE)
    cases.update(DEEP_SPECIFIC)
    return cases


CASES = _cases()


def deep_digests(root) -> dict[str, str]:
    """SHA-256 of the JSON report of each deep pass over ``root``."""
    digests = {}
    for name, run in PASSES.items():
        session = LintSession()
        session.extend(run(root))
        text = render_json(session.report())
        digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def build_case(name: str, root) -> None:
    case = CASES[name]
    if isinstance(case, int):
        write_corpus(root, case)
    else:
        write_tree(root, case)


#: Pinned report digests; they must never move without a reviewed
#: reason.
PINNED: dict[str, dict[str, str]] = {
    'corpus_seed_1': {
        'deep':
            '4175284429fcf4c84429a0c8737b4f6d264191cd975750efd7c9b2b371d20215',
        'par':
            'efc8401dabfab61e69e8a4d491618a89375351f9861142d2411bfe1bd4a2d07a',
        'det':
            '5b573ed75d845f148698386065ef35306d227ec59ec2b879b3b11482f15830b0',
    },
    'corpus_seed_2': {
        'deep':
            '91ba1ec267de61c56f6808052e96728be1062dd9adae5035c8aa00bd6a5faa85',
        'par':
            '827cdb7c281cd4fcf333790e9c9df9d161f8e4aa311abef4237c28b12a5670b7',
        'det':
            '4f3759eab06fc698a77f7eba1a220380edb79d24ceaa8a3fcb95ed7751671aa5',
    },
    'corpus_seed_3': {
        'deep':
            '4b4fb23c8225546e7f19b960df1d40e1f846c5cb29891cb5717d21c17d60bfcb',
        'par':
            'b53d4089c9e1a62602805c09b2debc5d6b76999bc7c9ce36631fd762b0fe0c8d',
        'det':
            '9ecd1d0f9fe1c4204bae43017c2ac088fea7e910b8ad16342952b53bca15ea0c',
    },
    'deep_entry_fact': {
        'deep':
            'e19818cb882891f5f87969a54f642532377270828549ca55e12ddcb575dc35fd',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'deep_entry_waivers': {
        'deep':
            '69c663442821d7053c390d05bb6df6d0db678435928c06296ebc119240b8755e',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'deep_fact_waivers': {
        'deep':
            'af6a075efe0eebc7f4aac544429e780bbdb177e926e5f0fc0737e6e610813ded',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'deep_import_time': {
        'deep':
            'ef8b4ea5b492d6f87a23cf73c4047fb6fb2cf218e53e9c27ca541af6592d8935',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'deep_two_lifecycle': {
        'deep':
            '8ab5892d1c19f0a5e40692c99b173691bcbf18b83d37e3b87a99deffa9d37ef3',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'det_COMPUTED_LABEL': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            '39b061c0ffd453c97017b4b554de199f23feef39c0fa3ee262536daeb0fff661',
    },
    'det_DICT_FROM_UNORDERED': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            'b4f267cef91584be168d8621a455fe2ec4ed86ae9f2fb3dd17c06bb9218bd8b0',
    },
    'det_DICT_ITERATION': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            'cadbb1f5a94810c55020755a144bf1a62c510d23f16c5fa4b0f7d20536e52fd9',
    },
    'det_DUPLICATE_LABELS': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            'b846cec2588da5d0cf24a4aae990145031541c963c8a564efcc5f559f768036a',
    },
    'det_ENV_READ': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            'ebf1410e357101b2dde8034eaefc01b5521eb827b39447f0673764ab13896afd',
    },
    'det_FLOAT_FORMAT': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            'f63dbc4376336aa8f4a9917675ff024c0601306dc17be6194f545399437d4502',
    },
    'det_HASH_IDENTITY': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            '9ebf092427e5b43949abbc444dd9aec0d07ed93735de5b49e7752c631716a830',
    },
    'det_LOCALE_STRING': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            '1c0707fc08cd9757051d357aaf8feb11da92afd618e0088c0bb2a7890db2d54c',
    },
    'det_NONCANONICAL': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            '46fd5241fb92eac94250b99fc241fb59b515c407ff56a87470a9b472d92779d5',
    },
    'det_SET_ITERATION': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            '77dddbe7a561771ddaa2ca6855fad015c626ba683d5f2477bedba1b6fbf2b3f7',
    },
    'det_UNDERIVED_RNG': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            '81c04b6937c625d975a6504343c18468f36e860873c0217cd314189d4a7e343b',
    },
    'det_UNSORTED_FS': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            '4b152f11377098c88560d4e6d59a256177ad010e35ad4d0a17325d9c93cd896b',
    },
    'det_WALL_CLOCK': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            '2c60f6c5c011033ee67b58948afadeee2233ec289651732110140c4a76358173',
    },
    'nested_global': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            'af54684244181b1d95a2a011d6fd4cd2055b32da10c8322268a5dd63469399a0',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'nested_params': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '7a1d4d1154ed03de8eed559922141cf5bddcde0d41df9fea5c729c4db97a903e',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'par_CAMPAIGN': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            'd9b4d141305ddad6f518558c81703affcc9cfc8833efc9d0b045a2798f016c86',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'par_DERIVED_SEED': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'par_GLOBAL_WRITE': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            'b2e09a4c1ff022f830a2b0f68cec4d81ac7b9261c903c6c84802346aa3d8e117',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'par_LAMBDA_WORKER': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '75bac8dec7cdf810993d082137c7cc0ebf4009401907b1fd4fbfd01ba3f42da5',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'par_SELF_WRITE': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            'a32b84c8746aafa0e2e542b66ec6c4cbbef459cc44262c09c84196c30c499ee7',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'par_SHARED_RNG': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            'b5ed7c695c0387e397b103eccb073b1a1e56ca5d1135291c27d0b4eb6ab8478e',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'par_STATE_MUTATION': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '5f4ceb9690b4acecb0fee200252cb24b31f66a4704dd2ffe3199b89a282507b3',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'par_UNDERIVED_SEED': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            'e5f583e6e1b6ed55e6cca7fddbe6375a526c51a0fed974162c75302e761eec44',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'par_kernel_exact': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            'd23c214909097105e6a604fbb7149505d3546526389cd08b6db0aeba4aa8c650',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'sanitised': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'det':
            'f0142b2f9297cf26186b1894c025aff2c3f0528ae2e9b2dfd961ca235468574e',
    },
    'shadow_binding': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            'd31601a8dc7f2772e3aae4467ba957e33533c9166f17ccddc34f641f570ce818',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
    'twin_sites': {
        'deep':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
        'par':
            'e1a5f02d5330c5ffce0dd4177ead7c1f8c9bf45eecbf89823eff59d6c4cb264f',
        'det':
            '32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36',
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_deep_reports_match_pinned_digests(name, tmp_path):
    build_case(name, tmp_path)
    assert deep_digests(tmp_path) == PINNED[name]
