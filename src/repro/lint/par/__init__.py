"""Concurrency & vectorisation safety analysis (DAS3xx).

The third static-analysis layer: closure/shared-state escape analysis
for pool workers, RNG-stream discipline, numpy aliasing/in-place
checks over ``@equivalence_tier`` kernels, and order-sensitivity
against their declared tiers. Built on the flow layer's module/call
graphs; run via ``repro lint --par`` (and as part of ``--deep``).
"""

from repro.lint.par.analysis import lint_tree_par, par_findings

__all__ = ["lint_tree_par", "par_findings"]
