"""Columnar structure-of-arrays event engine.

``repro.columnar`` is the throughput layer of the library: numpy-backed
four-vector arrays (:class:`FourVectorArray`), jagged per-event object
containers (:class:`EventBatch`), vectorised skim/slim evaluation
(:func:`apply_skim` / :func:`apply_slim`), and phase-streamed batch
simulation/digitisation kernels (:mod:`repro.columnar.kernels`).
Reconstruction has no columnar route: it runs through
:class:`~repro.reconstruction.Reconstructor` alone.

The engine's contract is *equivalence*, not approximation: every kernel
declares whether it is bit-identical to the scalar path, identical up
to one ulp on transcendental-function outputs, or (for re-phased random
draws) statistically equivalent — via :func:`equivalence_tier` from
:mod:`repro.columnar.tiers` — and both the equivalence test suites and
the ``repro lint --par`` static analyzer enforce each tier.
"""

from repro.columnar.batch import EventBatch, JaggedCollection
from repro.columnar.fourvec import (
    FourVectorArray,
    delta_phi_array,
    delta_r_array,
    invariant_mass_array,
    transverse_mass_array,
    wrap_phi_array,
)
from repro.columnar.kernels import (
    batch_stream,
    digitize_batch,
    simulate_batch,
)
from repro.columnar.select import (
    apply_skim,
    apply_slim,
    cut_mask,
    derived_columns,
    skim_mask,
)
from repro.columnar.tiers import (
    EQUIVALENCE_TIERS,
    declared_tier,
    declared_tiers,
    equivalence_tier,
)

__all__ = [
    "EQUIVALENCE_TIERS",
    "EventBatch",
    "FourVectorArray",
    "JaggedCollection",
    "apply_skim",
    "apply_slim",
    "batch_stream",
    "cut_mask",
    "declared_tier",
    "declared_tiers",
    "delta_phi_array",
    "delta_r_array",
    "derived_columns",
    "digitize_batch",
    "equivalence_tier",
    "invariant_mass_array",
    "simulate_batch",
    "skim_mask",
    "transverse_mass_array",
    "wrap_phi_array",
]
