"""Injectable time sources for lease- and deadline-based scheduling.

Anything in the library that reasons about *elapsed* time (lease
expiry, retry backoff) must not read the machine clock directly —
a scheduler whose decisions depend on wall time can never replay a
request log byte-identically. Instead, components accept a clock
object with a single ``now()`` reading:

- :class:`LogicalClock` — the deterministic source. Time is a plain
  float that advances **only** when the driver calls
  :meth:`~LogicalClock.advance`, so every scheduling decision is a
  pure function of the submission script, and two replays of the same
  script observe identical timestamps.
- :class:`MonotonicClock` — the production source, reading
  ``time.monotonic()``. Offered so deployments get real lease expiry
  without changing any scheduler code; the deterministic replay path
  never uses it. Elapsed-time measurements that only feed metrics
  (lint target timings, pool queue waits and utilisation) read it.

:func:`wall_timestamp` is the one reader of the calendar clock; it
stamps when a benchmark or run started, a field deterministic exports
drop. These two are the library's only waived wall-clock reads.
"""

from __future__ import annotations

import time

from repro.errors import ExecutionError


class Clock:
    """The interface every injectable time source satisfies.

    Components that reason about elapsed time (lease tables, telemetry
    windows, backoff schedules) accept any object with this shape and
    never read the machine clock themselves. ``tick`` is the step a
    default :meth:`advance` takes — zero for sources that advance on
    their own.
    """

    #: Default advance step; 0.0 for self-advancing sources.
    tick: float = 0.0

    def now(self) -> float:
        """The current time in this source's units."""
        raise NotImplementedError

    def advance(self, amount: float | None = None) -> float:
        """Move time forward where the source permits it."""
        raise NotImplementedError


class LogicalClock(Clock):
    """A deterministic clock that advances only on demand.

    ``tick`` is the default step :meth:`advance` takes — one scheduling
    round of the service driver advances the clock by one tick.

    >>> clock = LogicalClock(tick=2.0)
    >>> clock.now()
    0.0
    >>> clock.advance()
    2.0
    >>> clock.advance(0.5)
    2.5
    """

    def __init__(self, start: float = 0.0, tick: float = 1.0) -> None:
        if tick <= 0.0:
            raise ExecutionError(f"clock tick must be > 0, got {tick}")
        self._now = float(start)
        self.tick = float(tick)

    def now(self) -> float:
        """The current logical time."""
        return self._now

    def advance(self, amount: float | None = None) -> float:
        """Move time forward by ``amount`` (default: one tick)."""
        step = self.tick if amount is None else float(amount)
        if step < 0.0:
            raise ExecutionError(
                f"clock cannot run backwards (advance by {step})"
            )
        self._now += step
        return self._now


class MonotonicClock(Clock):
    """The real monotonic clock behind the same ``now()`` interface.

    :meth:`advance` is a no-op — real time advances itself — so driver
    loops written against :class:`LogicalClock` run unchanged.
    """

    #: Matches LogicalClock's interface; unused for real time.
    tick = 0.0

    def now(self) -> float:
        """The current monotonic-clock reading."""
        # lint: ignore[DAS001] -- the production clock's one job is
        # reading real time; deterministic paths use LogicalClock
        return time.monotonic()

    def advance(self, amount: float | None = None) -> float:
        """Real time cannot be advanced; returns the current reading."""
        return self.now()


def wall_timestamp() -> str:
    """The local calendar time as ``YYYY-MM-DDTHH:MM:SS+hhmm``."""
    # lint: ignore[DAS001] -- the one calendar-time reader: it stamps
    # when a run started, and deterministic exports drop that field
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")
