"""The equivalence-tier registry.

A kernel or worker that stands in for the scalar, serial chain says how
close its output is to that chain's by declaring a tier with
:func:`equivalence_tier` (see :mod:`repro.columnar.tiers`). The
``repro lint --par`` analyzer checks every declared kernel against its
tier (DAS307–DAS312).
"""

from repro.columnar.tiers import (
    EQUIVALENCE_TIERS,
    declared_tier,
    declared_tiers,
    equivalence_tier,
)

__all__ = [
    "EQUIVALENCE_TIERS",
    "declared_tier",
    "declared_tiers",
    "equivalence_tier",
]
