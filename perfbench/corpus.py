"""A seeded synthetic tree of preserved-analysis packages to lint.

The ``lint_deep`` workload must not lint ``src/repro`` itself: every
change to the library changes that tree, so two commits would be
measured on different inputs. This module writes a tree of the same
order of size instead, with the constructs every deep pass looks for:

- ``Analysis`` subclasses (roots of the interprocedural taint pass),
- ``parallel_map`` workers (roots of the parallel-safety pass),
- ``@equivalence_tier`` kernels (tier checks of the same pass),
- ``@replay_root`` encoders (roots of the determinism pass),

wired together through helper modules whose call targets, and so call
depth, are drawn from the seed. Three hazards per package (wall-clock
reads, unordered iteration, module-state writes, ...) sit at fixed
helper levels, so the passes have chains to trace and findings to
report.

The file count is fixed (:data:`N_PACKAGES` x :data:`FILES_PER_PACKAGE`)
and every module has the same number of functions, so the amount of
source per seed varies only through the seeded call structure.
"""

from __future__ import annotations

import random
from pathlib import Path

#: Packages in the tree and modules per package (``__init__`` included).
N_PACKAGES = 10
FILES_PER_PACKAGE = 16

#: Helper modules per package, stacked in call-depth levels.
N_HELPER_MODULES = 8
#: Functions per helper module, and calls each makes to deeper levels.
FUNCTIONS_PER_HELPER = 6
FAN_OUT = 2
#: Helper levels that hold one hazard each.
_HAZARD_LEVELS = (2, 4, 6)

#: Statements a hazard inserts, by kind; each needs its import.
_HAZARDS = {
    "clock": ("import time", "stamp = time.time()"),
    "random": ("import random", "stamp = random.random()"),
    "environ": ("import os", "stamp = os.environ.get('ANALYSIS_MODE', '')"),
    "set_iter": (None, "stamp = [item for item in set(values)]"),
    "json": ("import json", "stamp = json.dumps({'values': values})"),
    "global": (None, "_SEEN[len(_SEEN)] = values"),
}


def corpus_files(seed: int, packages: int | None = None) -> dict[str, str]:
    """The corpus as ``relative path -> source``; same seed, same bytes.

    ``packages`` shrinks the tree for smoke runs (default
    :data:`N_PACKAGES`).
    """
    rng = random.Random(seed)
    files: dict[str, str] = {}
    for index in range(N_PACKAGES if packages is None else packages):
        package = f"ana_{index:02d}"
        files.update(_package(package, rng))
    return files


def write_corpus(root: str | Path, seed: int,
                 packages: int | None = None) -> int:
    """Write the corpus under ``root``; returns the number of files."""
    root = Path(root)
    files = corpus_files(seed, packages)
    for relative in sorted(files):
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(files[relative], encoding="utf-8")
    return len(files)


def _package(package: str, rng: random.Random) -> dict[str, str]:
    """One preserved-analysis package of :data:`FILES_PER_PACKAGE` files."""
    # Three hazards at fixed depths (seeded kind and function), so the
    # work of tracing them varies little from seed to seed.
    hazards = {
        (level, rng.randrange(FUNCTIONS_PER_HELPER)): kind
        for level, kind in zip(_HAZARD_LEVELS,
                               rng.sample(sorted(_HAZARDS), 3))
    }
    files = {
        f"{package}/__init__.py": f'"""Preserved analysis {package}."""\n',
    }
    for level in range(N_HELPER_MODULES):
        files[f"{package}/helpers_{level}.py"] = _helper_module(
            package, level, rng, hazards)
    for slot in range(3):
        files[f"{package}/analysis_{slot}.py"] = _analysis_module(
            package, slot, rng)
    files[f"{package}/workers.py"] = _workers_module(package, rng)
    files[f"{package}/kernels.py"] = _kernels_module(package, rng)
    files[f"{package}/encoders.py"] = _encoders_module(package, rng)
    files[f"{package}/pipeline.py"] = _pipeline_module(package, rng)
    return files


def _callees(package: str, level: int, rng: random.Random) -> list[str]:
    """Calls into seeded deeper helpers (none from the last level)."""
    if level + 1 >= N_HELPER_MODULES:
        return []
    calls = []
    for _ in range(FAN_OUT):
        depth = level + rng.randint(1, min(2, N_HELPER_MODULES - 1 - level))
        calls.append(f"helpers_{depth}.step_{depth}_"
                     f"{rng.randrange(FUNCTIONS_PER_HELPER)}")
    return calls


def _helper_module(package: str, level: int, rng: random.Random,
                   hazards: dict) -> str:
    lines = [f'"""Helper level {level} of {package}."""', "",
             "from __future__ import annotations", ""]
    imports = set()
    body: list[str] = []
    needs_state = False
    deeper = set()
    for func in range(FUNCTIONS_PER_HELPER):
        calls = _callees(package, level, rng)
        deeper.update(call.split(".")[0] for call in calls)
        scale = rng.randint(2, 9)
        offset = rng.randint(0, 99)
        body += ["", "",
                 f"def step_{level}_{func}(values):",
                 f'    """Level-{level} transform {func} ({scale}x + '
                 f'{offset})."""',
                 f"    total = 0.0",
                 f"    out = []",
                 f"    for value in values:",
                 f"        scaled = value * {scale} + {offset}",
                 f"        if scaled > {rng.randint(50, 500)}:",
                 f"            scaled = scaled / {rng.randint(2, 7)}",
                 f"        total += scaled",
                 f"        out.append(scaled)"]
        hazard = hazards.get((level, func))
        if hazard is not None:
            module, statement = _HAZARDS[hazard]
            if module:
                imports.add(module)
            needs_state = needs_state or hazard == "global"
            body.append(f"    {statement}")
        for call in calls:
            body.append(f"    out = {call}(out)")
        body += [f"    out.append(total / max(1, len(values)))",
                 f"    return out"]
    lines += sorted(imports)
    for module in sorted(deeper):
        lines.append(f"from {package} import {module}")
    if needs_state:
        lines += ["", "_SEEN = {}"]
    return "\n".join(lines + body) + "\n"


def _analysis_module(package: str, slot: int, rng: random.Random) -> str:
    entry = rng.randrange(2)
    name = f"{package.upper()}_A{slot}"
    return "\n".join([
        f'"""Analysis {slot} of {package}."""',
        "",
        "from __future__ import annotations",
        "",
        f"from {package} import helpers_{entry}",
        "from repro.rivet.analysis import Analysis, AnalysisMetadata",
        "",
        "",
        f"class Analysis{slot}(Analysis):",
        f'    """Spectrum {slot} of {package}."""',
        "",
        "    metadata = AnalysisMetadata(",
        f'        name="{name}",',
        f'        description="synthetic spectrum {slot}",',
        '        experiment="TOY-GPD",',
        f'        inspire_id="I{rng.randint(1000, 9999)}",',
        f'        keywords=("synthetic", "{package}"),',
        "    )",
        "",
        "    def init(self):",
        f'        self.book("spectrum", {rng.randint(10, 40)}, 0.0, '
        f'{rng.randint(100, 500)}.0)',
        "",
        "    def analyze(self, event):",
        "        values = [p.momentum.pt for p in event.final_state()]",
        f"        for value in helpers_{entry}.step_{entry}_"
        f"{rng.randrange(FUNCTIONS_PER_HELPER)}(values):",
        '            self.histogram("spectrum").fill(value, event.weight)',
        "",
    ])


def _workers_module(package: str, rng: random.Random) -> str:
    level = rng.randrange(3)
    return "\n".join([
        f'"""Pool workers of {package}."""',
        "",
        "from __future__ import annotations",
        "",
        f"from {package} import helpers_{level}",
        "from repro.runtime import derive_seed, parallel_map",
        "",
        "",
        "def work(item):",
        '    """One chunk of the batch."""',
        f"    return helpers_{level}.step_{level}_"
        f"{rng.randrange(FUNCTIONS_PER_HELPER)}(list(item))",
        "",
        "",
        "def seeded_work(item):",
        '    """One chunk with its derived seed."""',
        f"    seed = derive_seed({rng.randint(1, 9999)}, 'chunk', len(item))",
        "    return [value + seed % 7 for value in item]",
        "",
        "",
        "def run(chunks, policy=None):",
        '    """Fan the chunks out over the pool."""',
        "    first = parallel_map(work, chunks, policy)",
        "    return parallel_map(seeded_work, first, policy)",
        "",
    ])


def _kernels_module(package: str, rng: random.Random) -> str:
    lines = [f'"""Batch kernels of {package}."""', "",
             "from __future__ import annotations", "",
             "from repro.columnar.tiers import equivalence_tier"]
    for kernel in range(3):
        tier = ("exact", "ulp", "exact")[kernel]
        lines += ["", "",
                  f'@equivalence_tier("{tier}")',
                  f"def kernel_{kernel}(values):",
                  f'    """Kernel {kernel} ({tier} tier)."""',
                  f"    return [value * {rng.randint(2, 9)} for value in "
                  f"values]"]
    return "\n".join(lines) + "\n"


def _encoders_module(package: str, rng: random.Random) -> str:
    level = rng.randrange(N_HELPER_MODULES)
    return "\n".join([
        f'"""Serialization roots of {package}."""',
        "",
        "from __future__ import annotations",
        "",
        f"from {package} import helpers_{level}",
        "from repro.core.canonical import canonical_json",
        "from repro.lint.det import replay_root",
        "",
        "",
        f'@replay_root("{package} summary")',
        "def encode_summary(values):",
        '    """The archived summary of one pass."""',
        f"    rows = helpers_{level}.step_{level}_"
        f"{rng.randrange(FUNCTIONS_PER_HELPER)}(values)",
        "    return canonical_json({'rows': rows})",
        "",
        "",
        f'@replay_root("{package} table")',
        "def encode_table(values):",
        '    """The archived table of one pass."""',
        "    ordered = sorted(values)",
        "    return canonical_json({'ordered': ordered})",
        "",
    ])


def _pipeline_module(package: str, rng: random.Random) -> str:
    return "\n".join([
        f'"""Top-level pipeline of {package}."""',
        "",
        "from __future__ import annotations",
        "",
        f"from {package} import encoders, kernels, workers",
        "",
        "",
        "def run_pipeline(values, policy=None):",
        '    """Kernels, then the pool, then the archived encodings."""',
        f"    scaled = kernels.kernel_{rng.randrange(3)}(values)",
        f"    chunks = [scaled[i:i + {rng.randint(2, 8)}] "
        f"for i in range(0, len(scaled), {rng.randint(2, 8)})]",
        "    merged = [v for chunk in workers.run(chunks, policy) "
        "for v in chunk]",
        "    return encoders.encode_summary(merged), "
        "encoders.encode_table(merged)",
        "",
    ])
