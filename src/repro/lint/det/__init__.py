"""Determinism & replay-safety analysis (DAS4xx).

The fourth static-analysis layer: escape analysis from declared
serialization roots (the registry in :mod:`repro.lint.det.roots` plus
``@replay_root`` decorators) to every byte-instability a replayed
artifact could inherit — non-canonical JSON, unordered iteration,
filesystem order, clocks, identities, environment, formatting drift,
and undisciplined randomness. Built on the flow layer's module/call
graphs; run via ``repro lint --det`` (and as part of ``--deep``).
"""

from repro.lint.det.analysis import det_findings, lint_tree_det
from repro.lint.det.roots import (
    register_replay_root,
    replay_root,
    replay_roots,
)

__all__ = [
    "det_findings",
    "lint_tree_det",
    "register_replay_root",
    "replay_root",
    "replay_roots",
]
