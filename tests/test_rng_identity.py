"""The cheaper scalar draws on the physics hot path are stream-identical.

Each substitution returns the bit-identical value from the same
generator position as the numpy call it replaced, checked here on two
same-seeded generators: the value must match and so must the next draw
after it. A platform where they disagree — for example a numpy build
whose compiler fuses ``low + range * x`` into one fused multiply-add —
fails these tests; it does not skip them.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.generation.decays import uniform

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SETTINGS = settings(max_examples=300, deadline=None)


def _pair(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


@_SETTINGS
@given(seed=SEEDS, low=FINITE, high=FINITE)
def test_uniform_matches_numpy_bounded_uniform(seed, low, high):
    low, high = min(low, high), max(low, high)
    assume(math.isfinite(high - low))  # numpy rejects an overflowing range
    reference, fast = _pair(seed)
    for _ in range(4):
        expected = reference.uniform(low, high)
        got = uniform(fast, low, high)
        assert type(got) is type(expected)
        assert got == expected
        assert math.copysign(1.0, got) == math.copysign(1.0, expected)
    assert fast.random() == reference.random()


@_SETTINGS
@given(seed=SEEDS)
def test_random_matches_numpy_unit_uniform(seed):
    reference, fast = _pair(seed)
    for _ in range(8):
        assert fast.random() == reference.uniform()


@_SETTINGS
@given(seed=SEEDS)
def test_sign_draw_matches_choice(seed):
    reference, fast = _pair(seed)
    for _ in range(16):
        assert (-1, 1)[fast.integers(0, 2)] \
            == int(reference.choice([-1, 1]))
    assert fast.random() == reference.random()


@_SETTINGS
@given(seed=SEEDS,
       weights=st.lists(st.floats(min_value=0.0, max_value=1e12),
                        min_size=1, max_size=8).filter(
                            lambda w: sum(w) > 0.0))
def test_cdf_search_matches_weighted_choice(seed, weights):
    total = sum(weights)
    p = np.array([w / total for w in weights])
    cdf = p.cumsum()
    cdf /= cdf[-1]
    reference, fast = _pair(seed)
    for _ in range(16):
        expected = int(reference.choice(len(weights), p=p))
        assert int(cdf.searchsorted(fast.random(), side="right")) \
            == expected
    assert fast.random() == reference.random()
