"""Rule registrations for the concurrency/vectorisation safety layer.

``DAS3xx`` codes are the third static-analysis pass. ``DAS0xx`` rules
inspect one statement, ``DAS2xx`` rules carry impurity facts to
``Analysis`` entry points; these rules reason about the *parallel
execution contract*: every callable statically reachable as a worker
handed to :func:`repro.runtime.parallel_map` must be a pure function
of its declared inputs, every ``@equivalence_tier`` kernel must honour
the tier it declares (:mod:`repro.columnar.tiers`), and no numpy
kernel may mutate or alias caller-owned buffers.

DAS301–DAS304 are the closure/shared-state escape rules, DAS305–306
the RNG-stream discipline, DAS307–309 the numpy aliasing/in-place
rules, DAS310–312 the order-sensitivity-versus-tier rules.
"""

from __future__ import annotations

from repro.lint.engine import register_rule
from repro.lint.findings import Severity

RULE_PAR_GLOBAL_WRITE = register_rule(
    "DAS301", "par-mutable-global-write", Severity.ERROR, "par",
    "A parallel worker reaches a write to a module-level name through "
    "its call graph.",
    "Workers run concurrently (thread mode) or in forked interpreters "
    "(process mode); a global written from a worker either races or "
    "silently diverges between the pool's copies and the driver's — "
    "the result depends on the ExecutionPolicy, which the scheduler "
    "contract forbids.",
    "a ``parallel_map`` worker doing ``global counter; counter += 1``",
)

RULE_PAR_STATE_MUTATION = register_rule(
    "DAS302", "par-module-state-mutation", Severity.ERROR, "par",
    "A parallel worker reaches a mutation of a module-level container "
    "through its call graph.",
    "An append/update on a module-scope dict or list is shared state "
    "in thread mode and worker-local (lost) state in process mode; "
    "either way the merged result depends on scheduling, not on the "
    "declared inputs.",
    "a worker helper appending results to a module-level ``_cache``",
)

RULE_PAR_SELF_WRITE = register_rule(
    "DAS303", "par-self-attribute-write", Severity.WARNING, "par",
    "A parallel worker reaches a method that writes an instance "
    "attribute through its call graph.",
    "Instance state written on a worker survives only on that "
    "worker's copy of the object; unless the dispatch layer clones "
    "per task and merges deterministically, results differ between "
    "serial and pooled runs.",
    "a worker method doing ``self.events_seen += 1``",
)

RULE_PAR_UNPICKLABLE = register_rule(
    "DAS304", "par-unpicklable-worker", Severity.WARNING, "par",
    "A lambda or locally defined function is dispatched as a parallel "
    "worker.",
    "Process pools pickle the worker to ship it; lambdas and nested "
    "functions cannot be pickled, so the same call works under "
    "serial/thread policies and dies under ``mode='process'`` — a "
    "policy-dependent failure the scheduler contract forbids.",
    "``parallel_map(lambda x: f(x, 2), items, policy)``",
)

RULE_PAR_SHARED_RNG = register_rule(
    "DAS305", "par-shared-module-rng", Severity.ERROR, "par",
    "A parallel worker reaches module-global RNG state through its "
    "call graph.",
    "``random.*`` and legacy ``numpy.random.*`` draw from one "
    "process-wide stream: the draw each work unit sees depends on "
    "which worker ran what before it, so no two policies (or runs) "
    "agree.",
    "a worker helper calling ``random.gauss(0, 1)``",
)

RULE_PAR_UNDERIVED_SEED = register_rule(
    "DAS306", "par-underived-seed", Severity.WARNING, "par",
    "A parallel worker constructs an RNG whose seed is not derived "
    "per work unit.",
    "Workers must own their randomness: a generator built from a "
    "constant (or from nothing) gives every work unit the same — or "
    "an unreproducible — stream; the seed must flow in through "
    "``derive_seed(...)``-derived arguments.",
    "``np.random.default_rng(42)`` inside a scan-point worker",
)

RULE_PAR_INPLACE_PARAM = register_rule(
    "DAS307", "par-inplace-param-mutation", Severity.ERROR, "par",
    "A kernel or worker mutates an array parameter in place.",
    "An augmented assignment, slice write, or ``out=`` aimed at a "
    "parameter mutates the caller's buffer; when that buffer is an "
    "``EventBatch`` field shared across chunks, the kernel's output "
    "depends on evaluation order and re-runs corrupt their inputs.",
    "``energies *= gain`` or ``np.add(a, b, out=a)`` on a parameter",
)

RULE_PAR_RETURNS_VIEW = register_rule(
    "DAS308", "par-kernel-returns-view", Severity.WARNING, "par",
    "A tier-declared kernel returns a view into a caller-owned "
    "array.",
    "Basic slices, transposes, and reshapes alias the input buffer: "
    "the caller mutates one and silently changes the other, and the "
    "declared equivalence tier is unenforceable because the "
    "'result' has no independent existence.",
    "``return samples[::2]`` from an ``exact``-tier kernel",
)

RULE_PAR_ARG_ATTR_WRITE = register_rule(
    "DAS309", "par-argument-attribute-write", Severity.WARNING, "par",
    "A kernel or worker writes an attribute of one of its "
    "parameters.",
    "State tucked onto an argument (a counter, a cursor, a cache) "
    "makes the kernel a function of call history, not of inputs — "
    "re-running the same batch gives different output and parallel "
    "workers each advance their own copy.",
    "``digi._bx = digi._bx + n`` inside a batch kernel",
)

RULE_PAR_EXACT_RNG = register_rule(
    "DAS310", "par-exact-tier-rng", Severity.ERROR, "par",
    "An ``exact``-tier function draws random numbers.",
    "Exact means bit-identical to the scalar path for every input; "
    "vectorised draws are re-phased relative to the scalar draw "
    "order, so a kernel that draws belongs in the ``statistical`` "
    "tier (or must inherit a caller-derived stream and say so).",
    "``stream.normal(size=n)`` inside ``@equivalence_tier('exact')``",
)

RULE_PAR_ORDER_SENSITIVE = register_rule(
    "DAS311", "par-order-sensitive-reduction", Severity.WARNING, "par",
    "An ``exact``-tier function accumulates floats in a "
    "chunking-dependent order.",
    "Float addition does not associate: ``sum()`` over a worklist or "
    "a loop-carried ``+=`` gives different last-bit results when the "
    "chunk boundary moves, so the bit-identity the tier declares "
    "silently depends on the ExecutionPolicy. ``math.fsum`` and "
    "whole-array ``np.sum`` over a fixed operand are exempt.",
    "``total += x`` in a loop inside an ``exact``-tier kernel",
)

RULE_PAR_INVALID_TIER = register_rule(
    "DAS312", "par-invalid-tier-declaration", Severity.ERROR, "par",
    "An equivalence-tier declaration is not a constant known tier.",
    "The tier registry is the contract the equivalence suites and "
    "these rules enforce; a tier that is misspelled, or computed at "
    "runtime, declares nothing checkable and silently exempts the "
    "kernel from the whole family.",
    "``@equivalence_tier('bitwise')`` or "
    "``@equivalence_tier(TIER_VAR)``",
)
