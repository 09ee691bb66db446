"""Tests for the injectable clocks behind lease scheduling."""

import re

import pytest

from repro.errors import ExecutionError
from repro.runtime import LogicalClock, MonotonicClock
from repro.runtime.clock import wall_timestamp


class TestLogicalClock:
    def test_starts_where_told(self):
        assert LogicalClock().now() == 0.0
        assert LogicalClock(start=5.5).now() == 5.5

    def test_advance_defaults_to_one_tick(self):
        clock = LogicalClock(tick=2.0)
        assert clock.advance() == 2.0
        assert clock.advance() == 4.0
        assert clock.now() == 4.0

    def test_advance_by_explicit_amount(self):
        clock = LogicalClock()
        clock.advance(0.25)
        assert clock.now() == 0.25

    def test_zero_advance_allowed(self):
        clock = LogicalClock()
        clock.advance(0.0)
        assert clock.now() == 0.0

    def test_time_never_runs_backwards(self):
        clock = LogicalClock()
        with pytest.raises(ExecutionError):
            clock.advance(-1.0)

    def test_nonpositive_tick_rejected(self):
        with pytest.raises(ExecutionError):
            LogicalClock(tick=0.0)
        with pytest.raises(ExecutionError):
            LogicalClock(tick=-1.0)

    def test_time_only_moves_on_advance(self):
        clock = LogicalClock()
        readings = {clock.now() for _ in range(100)}
        assert readings == {0.0}


class TestMonotonicClock:
    def test_reads_forward(self):
        clock = MonotonicClock()
        first = clock.now()
        assert clock.now() >= first

    def test_advance_is_a_noop(self):
        clock = MonotonicClock()
        before = clock.now()
        after = clock.advance(1000.0)
        # Real time cannot be steered; advance just reads the clock.
        assert after - before < 10.0

    def test_interface_matches_logical_clock(self):
        assert hasattr(MonotonicClock, "tick")
        for method in ("now", "advance"):
            assert callable(getattr(MonotonicClock(), method))


class TestWallTimestamp:
    def test_iso_like_local_time(self):
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d[+-]\d{4}",
                            wall_timestamp())
