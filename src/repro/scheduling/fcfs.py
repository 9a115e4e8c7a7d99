"""First-come-first-serve scheduling (the paper's policy).

Two artifacts share these semantics:

* :class:`FcfsPolicy` — the engine-facing policy, behaviour-identical
  to the inline decisions :class:`~repro.serving.engine.LLMEngine`
  hard-coded before scheduling became a subsystem (verified
  byte-for-byte against golden run reports in
  ``tests/test_sched_policy.py``): admit from the queue head while
  memory allows, prefill the oldest admitted prompt first — chunked
  through the legacy ``prefill_chunk_size`` knob if set — and preempt
  the newest request under memory pressure (vLLM's default, S5.3.3).
* :class:`FcfsScheduler` — a standalone queue component with a
  memory-aware admission predicate, kept as a separately testable unit
  and as the capacity probe of the Figure 15 experiment (maximum batch
  size a memory backend sustains under a dynamic trace).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence

from ..errors import SchedulingError
from ..serving.request import Request, RequestState
from .base import IterationPlan, PlanKind, SchedulerPolicy, SchedulingView


class FcfsPolicy(SchedulerPolicy):
    """Strict arrival-order scheduling (paper S7.4: "FCFS order").

    No knobs: admission order is queue order, the prefill target is the
    oldest running prompt, and chunking follows the engine's
    ``prefill_chunk_size`` configuration exactly as the pre-subsystem
    engine did. This is the default policy and the reference the paper
    experiments run under.
    """

    name = "fcfs"

    def next_admission(
        self, waiting: Sequence[Request], view: SchedulingView
    ) -> Optional[Request]:
        candidates = self.admissible(waiting, view)
        return candidates[0] if candidates else None

    def plan_iteration(
        self, running: Sequence[Request], view: SchedulingView
    ) -> IterationPlan:
        prefill = next((r for r in running if r.needs_prefill), None)
        if prefill is None:
            return IterationPlan(PlanKind.DECODE)
        if view.prefill_chunk_size:
            return IterationPlan(
                PlanKind.MIXED,
                prefill=prefill,
                chunk_tokens=view.prefill_chunk_size,
            )
        return IterationPlan(PlanKind.PREFILL, prefill=prefill)

    def stable_decode_horizon(
        self, running: Sequence[Request], view: SchedulingView
    ) -> float:
        """FCFS keeps decoding until the next arrival or completion.

        With no pending prefill in the batch, ``plan_iteration`` is a
        pure function of "does anyone need a prefill" — so the decode
        plan is stable indefinitely; the engine's arrival/completion
        bounds are the only limits. A pending prefill means the next
        plan is not a decode at all.
        """
        for request in running:
            if request.needs_prefill:
                return 0
        return math.inf


@dataclass
class FcfsScheduler:
    """First-come-first-serve admission with a batch-size cap.

    ``can_admit`` is the memory backend's admission predicate; the
    scheduler never reorders requests (the paper's online evaluation
    schedules "in first-come-first-serve order", S7.4).
    """

    max_batch_size: int
    can_admit: Callable[[Request], bool]
    waiting: Deque[Request] = field(default_factory=deque)
    running: List[Request] = field(default_factory=list)

    def enqueue(self, request: Request) -> None:
        """Add an arrived request to the back of the queue."""
        if request.state is not RequestState.QUEUED:
            raise SchedulingError(
                f"{request.request_id} is {request.state.value}, not queued"
            )
        self.waiting.append(request)

    def requeue_front(self, request: Request) -> None:
        """Put a preempted request at the front (it keeps its position)."""
        self.waiting.appendleft(request)

    def admit_ready(self) -> List[Request]:
        """Admit from the queue head while memory and batch slots allow.

        Strict FCFS: admission stops at the first request that does not
        fit, even if later (smaller) requests would — no reordering.
        """
        admitted: List[Request] = []
        while (
            self.waiting
            and len(self.running) < self.max_batch_size
            and self.can_admit(self.waiting[0])
        ):
            request = self.waiting.popleft()
            request.state = RequestState.RUNNING
            self.running.append(request)
            admitted.append(request)
        return admitted

    def retire(self, request: Request) -> None:
        """Remove a finished request from the running set."""
        try:
            self.running.remove(request)
        except ValueError:
            raise SchedulingError(
                f"{request.request_id} is not running"
            ) from None

    def preempt_newest(self) -> Optional[Request]:
        """Evict the most recently admitted request (vLLM's default).

        The victim leaves with recompute-preemption semantics applied
        (state ``PREEMPTED``, generated tokens folded into the prompt),
        matching the engine's inline path; requeue it with
        :meth:`requeue_front` to preserve its FCFS position.
        """
        if not self.running:
            return None
        victim = self.running.pop()
        victim.preempt()
        return victim

    @property
    def batch_size(self) -> int:
        """Current running batch size."""
        return len(self.running)


def peak_batch_size(batch_sizes: Sequence[int]) -> int:
    """Maximum concurrent batch over a run (the Figure 15 metric)."""
    if not batch_sizes:
        raise SchedulingError("no batch sizes recorded")
    return max(batch_sizes)
