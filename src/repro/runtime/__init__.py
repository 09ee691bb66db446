"""Deterministic parallel execution for preserved workflows.

The paper's chains — campaign processing, reconstruction, RECAST scans —
are embarrassingly parallel DAGs of independent work units. This package
provides the execution layer that exploits that *without changing any
result*: an :class:`ExecutionPolicy` value object describing the worker
pool, and a :func:`parallel_map` scheduler whose output is bit-identical
to the serial loop it replaces. :func:`derive_seed` is the deterministic
per-work-unit seeding rule that makes the independence real.
"""

from repro.runtime.clock import Clock, LogicalClock, MonotonicClock
from repro.runtime.policy import MODES, ExecutionPolicy
from repro.runtime.scheduler import (
    chunked,
    default_chunk_size,
    derive_seed,
    parallel_map,
)

__all__ = [
    "MODES",
    "Clock",
    "ExecutionPolicy",
    "LogicalClock",
    "MonotonicClock",
    "chunked",
    "default_chunk_size",
    "derive_seed",
    "parallel_map",
]
