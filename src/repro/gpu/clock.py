"""Simulated clock shared by the GPU, drivers and the serving engine.

The reproduction is a discrete-event simulation: nothing ever sleeps, and
all latencies (kernel execution, CUDA VMM API calls, queueing) are modeled
by advancing this clock. Components that need to account time accept a
:class:`SimClock` and call :meth:`SimClock.advance`. Work that overlaps
with compute (the background allocation thread model,
:class:`repro.core.background.BackgroundWorker`) keeps its own seconds
and is told the length of each compute window; the clock has no
listeners.
"""

from __future__ import annotations

import math


class SimClock:
    """A monotonically non-decreasing simulated clock.

    Parameters
    ----------
    start:
        Initial time in seconds, defaults to 0.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start negative, got {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, duration: float) -> float:
        """Move time forward by ``duration`` seconds and return the new time.

        Negative and NaN durations are rejected: simulated time never
        runs backwards, and a NaN would poison every later timestamp.
        """
        if math.isnan(duration):
            raise ValueError("cannot advance clock by NaN seconds")
        if duration < 0:
            raise ValueError(f"cannot advance clock by {duration}s")
        self._now += duration
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move time forward to an absolute ``timestamp``.

        A timestamp in the past is a no-op (the clock never rewinds); this
        makes it safe to fast-forward to event times that may already have
        been passed by accounted work.
        """
        if timestamp > self._now:
            self.advance(timestamp - self._now)
        return self._now

    def jump_to(self, timestamp: float) -> float:
        """Set the clock to an exactly-precomputed future ``timestamp``.

        :meth:`advance` and :meth:`advance_to` *add a duration*, which
        rounds once more than a caller that accumulated the target time
        itself — ``now + (target - now)`` need not equal ``target`` in
        floats. The decode fast path sums its iteration latencies
        externally with the per-iteration loop's exact arithmetic and
        uses this to land the clock on the bit-identical result.
        """
        if math.isnan(timestamp):
            raise ValueError("cannot jump clock to NaN")
        if timestamp < self._now:
            raise ValueError(
                f"cannot jump clock backwards ({self._now} -> {timestamp})"
            )
        self._now = float(timestamp)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"
