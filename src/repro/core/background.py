"""Background allocation thread model (paper S6.1.1).

vAttention hides CUDA VMM latency by doing memory-mapping work on a
background thread while the GPU executes the current iteration. In the
simulation, state changes (which rows are mapped) happen immediately;
only the *latency* is deferred: it accumulates in this worker and is
consumed by the duration of overlapped compute.

Work comes in two priorities:

* **critical** — mappings the *next* iteration depends on (predicted
  decode growth). If the compute window ends before they finish, the
  remainder spills onto the critical path at the next ``step()`` —
  exactly the residual Figure 12 shows disappearing when overlap is on.
* **opportunistic** — eager allocation for future requests and deferred
  reclamation. These never block an iteration; they simply continue in
  later windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class BackgroundWorker:
    """Accumulates deferred allocation latency against compute windows."""

    #: Queued critical work (seconds) not yet covered by compute windows.
    critical_pending: float = 0.0
    #: Queued opportunistic work (seconds); never forced synchronous.
    opportunistic_pending: float = 0.0
    #: Lifetime seconds of work executed off the critical path.
    overlapped_seconds: float = 0.0
    #: Lifetime seconds of critical work that spilled to the critical path.
    spilled_seconds: float = 0.0
    #: Lifetime seconds submitted (both priorities).
    submitted_seconds: float = 0.0

    @property
    def pending_seconds(self) -> float:
        """All queued work."""
        return self.critical_pending + self.opportunistic_pending

    def submit(self, seconds: float, critical: bool = True) -> None:
        """Queue ``seconds`` of allocation work to run in the background."""
        if not math.isfinite(seconds):
            raise ValueError(f"cannot submit non-finite work: {seconds}")
        if seconds < 0:
            raise ValueError(f"cannot submit negative work: {seconds}")
        if critical:
            self.critical_pending += seconds
        else:
            self.opportunistic_pending += seconds
        self.submitted_seconds += seconds

    def run_for(self, window_seconds: float) -> float:
        """Overlap queued work with a compute window; returns seconds done.

        Critical work runs first: the thread prioritizes mappings the
        next iteration needs over opportunistic preparation.
        """
        if not math.isfinite(window_seconds):
            raise ValueError(f"non-finite window: {window_seconds}")
        if window_seconds < 0:
            raise ValueError(f"negative window: {window_seconds}")
        done_critical = min(self.critical_pending, window_seconds)
        self.critical_pending -= done_critical
        remaining = window_seconds - done_critical
        done_opportunistic = min(self.opportunistic_pending, remaining)
        self.opportunistic_pending -= done_opportunistic
        done = done_critical + done_opportunistic
        self.overlapped_seconds += done
        return done

    def flush_critical(self) -> float:
        """Force outstanding *critical* work to complete synchronously.

        Returns the seconds to charge to the critical path (the caller
        advances the clock). Called at the top of ``step()``: mappings
        prepared for this iteration must be complete before the first
        kernel is dispatched. Opportunistic work keeps running in later
        windows instead.
        """
        spilled = self.critical_pending
        self.critical_pending = 0.0
        self.spilled_seconds += spilled
        return spilled

    @property
    def hidden_fraction(self) -> float:
        """Fraction of submitted work that stayed off the critical path."""
        if self.submitted_seconds == 0:
            return 1.0
        fraction = self.overlapped_seconds / self.submitted_seconds
        # Guard against float accumulation drifting past the bounds.
        return min(1.0, max(0.0, fraction))
