"""Rolling-window percentile tracking for live SLO monitoring.

Summary statistics in :mod:`repro.metrics.stats` are whole-run
aggregates; an autoscaling policy needs the *recent* tail instead — the
p99 TTFT over the last W seconds of completions, which is what a
production SLO dashboard shows and what scale decisions key off. A
:class:`RollingPercentileTracker` keeps timestamped observations,
prunes everything older than the window on each access, and answers
percentile / attainment queries over what remains.

Observations must arrive in non-decreasing time order (the simulation
feeds completions as virtual time advances), which keeps pruning a
popleft loop rather than a scan.

The tracker maintains a sorted companion list of the in-window values
alongside the time-ordered deque: ``observe`` inserts with
``bisect.insort`` (O(n) shift, O(log n) search) and pruning removes the
expired value by bisection. Percentile and attainment queries then read
the already-sorted list directly instead of re-sorting the window on
every call — the sort that used to run per scale decision is amortised
into the inserts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from typing import Deque, List, Optional, Tuple

from ..errors import ConfigError
from .stats import sorted_percentile


class RollingPercentileTracker:
    """Percentiles over the observations of a sliding time window.

    ``window_seconds`` bounds how far back an observation stays
    relevant; ``None`` disables pruning (the tracker degenerates to a
    whole-run aggregator, useful as a control).
    """

    def __init__(self, window_seconds: Optional[float] = None) -> None:
        if window_seconds is not None and not window_seconds > 0:
            raise ConfigError(
                f"window_seconds must be positive, got {window_seconds}"
            )
        self.window_seconds = window_seconds
        self._samples: Deque[Tuple[float, float]] = deque()
        self._sorted: List[float] = []
        self._last_time = float("-inf")
        #: Observations ever fed (survives pruning).
        self.total_observations = 0

    def observe(self, time: float, value: float) -> None:
        """Record ``value`` observed at simulated ``time``.

        Times must be non-decreasing; the window prunes lazily on reads.
        """
        if time < self._last_time:
            raise ConfigError(
                f"observations must arrive in time order "
                f"({time} after {self._last_time})"
            )
        self._last_time = time
        self._samples.append((time, value))
        insort(self._sorted, value)
        self.total_observations += 1

    def prune(self, now: float) -> None:
        """Drop observations older than the window, as seen from ``now``."""
        if self.window_seconds is None:
            return
        horizon = now - self.window_seconds
        samples = self._samples
        ordered = self._sorted
        while samples and samples[0][0] < horizon:
            _, value = samples.popleft()
            # The expired value is present verbatim in the sorted list;
            # with duplicates, dropping the leftmost equal element keeps
            # the multiset identical to the deque's values.
            del ordered[bisect_left(ordered, value)]

    # ------------------------------------------------------------------
    def values(self, now: Optional[float] = None) -> List[float]:
        """The in-window observation values (pruned as of ``now``)."""
        if now is not None:
            self.prune(now)
        return [value for _, value in self._samples]

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, q: float, now: Optional[float] = None
                   ) -> Optional[float]:
        """In-window percentile, ``None`` while the window is empty."""
        if now is not None:
            self.prune(now)
        ordered = self._sorted
        if not ordered:
            return None
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        # Same interpolation as :func:`repro.metrics.stats.percentile`,
        # applied to the incrementally maintained order (no sort).
        return sorted_percentile(ordered, q)

    def attainment(
        self, threshold: float, now: Optional[float] = None
    ) -> Optional[float]:
        """Fraction of in-window observations at or under ``threshold``.

        This is SLO attainment when the observations are latencies and
        ``threshold`` is the objective; ``None`` while the window is
        empty (no evidence either way).
        """
        if now is not None:
            self.prune(now)
        ordered = self._sorted
        if not ordered:
            return None
        return bisect_right(ordered, threshold) / len(ordered)
