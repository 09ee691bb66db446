"""Scheduler error paths: exception propagation and edge-case inputs.

``parallel_map`` promises that an exception raised by any ``fn(item)``
propagates to the caller *unchanged under every policy* — a failed
re-execution must fail loudly and identically whether it ran serially
or across a pool. These tests pin that promise, plus the degenerate
inputs (no items, one item, one chunk) where pooled code paths are
easiest to get wrong.
"""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError
from repro.obs.metrics import MetricsRegistry
from repro.runtime import ExecutionPolicy, parallel_map


def _policies(chunk_size=None):
    """Every policy kind; the pooled ones cut chunks of ``chunk_size``
    items (``None``: the default rule)."""
    return [
        pytest.param(None, id="default"),
        pytest.param(ExecutionPolicy.serial(), id="serial"),
        pytest.param(ExecutionPolicy.threads(2, chunk_size=chunk_size),
                     id="thread"),
        pytest.param(ExecutionPolicy.processes(2, chunk_size=chunk_size),
                     id="process"),
    ]


ALL_POLICIES = _policies()


class SelectionError(ValueError):
    """A caller-defined type the pool must deliver intact."""


def _square(value):
    return value * value


def _fail_on_three(value):
    if value == 3:
        raise SelectionError(f"cannot select item {value}")
    return value


def _always_fails(value):
    raise RuntimeError("worker is broken")


class TestExceptionPropagation:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_exception_type_and_message_survive(self, policy):
        with pytest.raises(SelectionError, match="cannot select item 3"):
            parallel_map(_fail_on_three, [1, 2, 3, 4], policy)

    @pytest.mark.parametrize("policy", _policies(chunk_size=2))
    def test_failure_in_a_late_chunk_still_raises(self, policy):
        items = list(range(20)) + [3]
        with pytest.raises(SelectionError):
            parallel_map(_fail_on_three, items, policy)

    @pytest.mark.parametrize("policy", _policies(chunk_size=1))
    def test_every_chunk_failing_raises_the_first(self, policy):
        with pytest.raises(RuntimeError, match="worker is broken"):
            parallel_map(_always_fails, [1, 2, 3, 4], policy)

    @pytest.mark.parametrize("policy", [
        pytest.param(ExecutionPolicy.threads(2), id="thread"),
        pytest.param(ExecutionPolicy.processes(2), id="process"),
    ])
    def test_observed_path_propagates_too(self, policy):
        metrics = MetricsRegistry()
        with pytest.raises(SelectionError, match="cannot select"):
            parallel_map(_fail_on_three, [1, 2, 3, 4], policy,
                         metrics=metrics)

    def test_serial_failure_is_immediate(self):
        calls = []

        def record_then_fail(value):
            calls.append(value)
            raise SelectionError("first item already fails")

        with pytest.raises(SelectionError):
            parallel_map(record_then_fail, [1, 2, 3], None)
        assert calls == [1]


class TestDegenerateInputs:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_empty_items(self, policy):
        assert parallel_map(_square, [], policy) == []

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_empty_generator(self, policy):
        assert parallel_map(_square, iter(()), policy) == []

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_single_item(self, policy):
        assert parallel_map(_square, [7], policy) == [49]

    def test_chunk_larger_than_input_is_one_chunk(self):
        metrics = MetricsRegistry()
        result = parallel_map(_square, [1, 2, 3],
                              ExecutionPolicy.processes(2, chunk_size=100),
                              metrics=metrics)
        assert result == [1, 4, 9]
        assert metrics.counter("runtime.chunks").value == 1
        assert metrics.counter("runtime.items").value == 3

    def test_fewer_items_than_workers(self):
        result = parallel_map(_square, [5, 6],
                              ExecutionPolicy.processes(4))
        assert result == [25, 36]

    def test_invalid_explicit_chunk_size_raises(self):
        with pytest.raises(ExecutionError, match="chunk_size"):
            parallel_map(_square, [1, 2, 3],
                         ExecutionPolicy.processes(2, chunk_size=0))
