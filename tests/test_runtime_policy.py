"""Tests for the execution-policy and scheduler primitives."""

import os

import pytest

from repro.errors import ExecutionError
from repro.runtime import (
    ExecutionPolicy,
    chunked,
    default_chunk_size,
    derive_seed,
    parallel_map,
)


def _square(value):
    return value * value


def _fail_on_three(value):
    if value == 3:
        raise ValueError("three is right out")
    return value


class TestExecutionPolicy:
    def test_default_is_serial(self):
        policy = ExecutionPolicy()
        assert policy.is_serial
        assert policy.mode == "serial"
        assert policy.n_jobs == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ExecutionError):
            ExecutionPolicy(mode="gpu")

    def test_bad_n_jobs_rejected(self):
        with pytest.raises(ExecutionError):
            ExecutionPolicy(mode="process", n_jobs=0)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ExecutionError):
            ExecutionPolicy(mode="process", n_jobs=2, chunk_size=0)

    def test_negative_chunk_size_rejected(self):
        with pytest.raises(ExecutionError, match="chunk_size"):
            ExecutionPolicy(mode="thread", n_jobs=2, chunk_size=-4)

    def test_negative_n_jobs_rejected(self):
        with pytest.raises(ExecutionError, match="n_jobs"):
            ExecutionPolicy(mode="thread", n_jobs=-1)

    def test_rejection_names_the_bad_mode(self):
        with pytest.raises(ExecutionError, match="'gpu'"):
            ExecutionPolicy(mode="gpu")

    def test_from_jobs_validates_the_mode_too(self):
        with pytest.raises(ExecutionError):
            ExecutionPolicy.from_jobs(4, mode="gpu")

    def test_none_chunk_size_means_automatic(self):
        assert ExecutionPolicy.threads(2).chunk_size is None

    def test_constructors(self):
        assert ExecutionPolicy.serial().is_serial
        assert ExecutionPolicy.threads(3).mode == "thread"
        assert ExecutionPolicy.processes(3).mode == "process"
        assert ExecutionPolicy.processes(3).n_jobs == 3

    def test_from_jobs_defaults_to_serial(self):
        assert ExecutionPolicy.from_jobs(None).is_serial
        assert ExecutionPolicy.from_jobs(0).is_serial
        assert ExecutionPolicy.from_jobs(1).is_serial

    def test_from_jobs_parallel(self):
        policy = ExecutionPolicy.from_jobs(4)
        assert policy.mode == "process"
        assert policy.n_jobs == 4

    def test_from_jobs_negative_means_all_cpus(self):
        policy = ExecutionPolicy.from_jobs(-1)
        expected = os.cpu_count() or 1
        if expected > 1:
            assert policy.n_jobs == expected
        else:
            assert policy.is_serial

    def test_describe_round_trip(self):
        policy = ExecutionPolicy.processes(4, chunk_size=7)
        assert policy.describe() == {
            "mode": "process", "n_jobs": 4, "chunk_size": 7,
        }


class TestChunking:
    def test_chunked_splits_contiguously(self):
        assert list(chunked(list(range(7)), 3)) == [
            [0, 1, 2], [3, 4, 5], [6],
        ]

    def test_chunked_rejects_bad_size(self):
        with pytest.raises(ExecutionError):
            list(chunked([1, 2], 0))

    def test_default_chunk_size_bounds(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(3, 4) == 1
        # ~4 chunks per worker.
        assert default_chunk_size(160, 4) == 10


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert (derive_seed(6000, "run", 25)
                == derive_seed(6000, "run", 25))

    def test_sensitive_to_every_component(self):
        seeds = {
            derive_seed(6000, "run", 25),
            derive_seed(6000, "run", 26),
            derive_seed(6001, "run", 25),
            derive_seed(6000, "generator", 25),
        }
        assert len(seeds) == 4

    def test_in_rng_range(self):
        for run in range(50):
            seed = derive_seed(1234, run)
            assert 0 <= seed < 2**31 - 1


class TestParallelMap:
    @pytest.mark.parametrize("policy", [
        None,
        ExecutionPolicy.serial(),
        ExecutionPolicy.threads(3),
        ExecutionPolicy.processes(3),
    ])
    def test_matches_serial_comprehension(self, policy):
        items = list(range(23))
        assert parallel_map(_square, items, policy) == [
            _square(item) for item in items
        ]

    @pytest.mark.parametrize("chunk_size", [1, 2, 5, 100])
    def test_any_chunking_preserves_order(self, chunk_size):
        items = list(range(17))
        result = parallel_map(
            _square, items,
            ExecutionPolicy.processes(2, chunk_size=chunk_size))
        assert result == [_square(item) for item in items]

    def test_empty_input(self):
        assert parallel_map(_square, [],
                            ExecutionPolicy.processes(2)) == []

    def test_accepts_generators(self):
        result = parallel_map(_square, (value for value in range(9)),
                              ExecutionPolicy.threads(2))
        assert result == [_square(value) for value in range(9)]

    @pytest.mark.parametrize("policy", [
        ExecutionPolicy.serial(),
        ExecutionPolicy.threads(2),
        ExecutionPolicy.processes(2),
    ])
    def test_exceptions_propagate(self, policy):
        with pytest.raises(ValueError, match="three"):
            parallel_map(_fail_on_three, [1, 2, 3, 4], policy)
