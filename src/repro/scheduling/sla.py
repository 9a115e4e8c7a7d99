"""Deadline/priority scheduling with per-request TTFT budgets.

Interactive serving rarely cares about arrival order: a chat turn with
a 500 ms first-token SLO matters more than a batch summarization job
submitted a second earlier. :class:`SlaAwarePolicy` orders both
admission and prefill selection by *urgency*:

1. earliest TTFT deadline first — ``arrival_time + ttft_budget``
   (requests without a budget inherit the policy's default; no budget
   at all means no deadline and lowest urgency),
2. then higher :attr:`~repro.serving.request.Request.priority`,
3. then arrival order (FCFS among equals), then request id — so the
   order is total and runs are deterministic.

Preemption inverts the same key: the *least* urgent running request is
evicted first, protecting tight-deadline work from recompute stalls.

Within each decision the ordering is work-conserving and strict — the
policy reorders the queue but never holds capacity back, and admission
still stops at the first candidate that does not fit in memory
(head-of-line within the urgency order, exactly like FCFS within
arrival order). Iteration shape is inherited from FCFS: monolithic
prefills, or fixed chunks when the engine's ``prefill_chunk_size`` is
set. For deadline-aware *batch composition* see
:class:`~repro.scheduling.hybrid.HybridBatchPolicy`, which keeps
decode latency flat while prompts stream in.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from .base import IterationPlan, PlanKind, SchedulerPolicy, SchedulingView
from ..serving.request import Request


class SlaAwarePolicy(SchedulerPolicy):
    """Earliest-TTFT-deadline-first admission and prefill ordering."""

    name = "sla"

    def __init__(self, default_ttft_budget: Optional[float] = None) -> None:
        #: TTFT budget assumed for requests that carry none
        #: (``None`` = such requests simply have no deadline).
        self.default_ttft_budget = default_ttft_budget

    # ------------------------------------------------------------------
    def deadline(self, request: Request) -> float:
        """Absolute first-token deadline of ``request`` (inf = none)."""
        budget = request.ttft_budget
        if budget is None:
            budget = self.default_ttft_budget
        if budget is None:
            return math.inf
        return request.arrival_time + budget

    def _urgency(self, request: Request) -> Tuple:
        return (
            self.deadline(request),
            -request.priority,
            request.arrival_time,
            request.request_id,
        )

    # ------------------------------------------------------------------
    def next_admission(
        self, waiting: Sequence[Request], view: SchedulingView
    ) -> Optional[Request]:
        if not waiting:
            return None
        return min(waiting, key=self._urgency)

    def plan_iteration(
        self,
        running: Sequence[Request],
        awaiting: Sequence[Request],
        view: SchedulingView,
    ) -> IterationPlan:
        if not awaiting:
            return IterationPlan(PlanKind.DECODE)
        prefill = min(awaiting, key=self._urgency)
        if view.prefill_chunk_size:
            return IterationPlan(
                PlanKind.MIXED,
                prefill=prefill,
                chunk_tokens=view.prefill_chunk_size,
            )
        return IterationPlan(PlanKind.PREFILL, prefill=prefill)

    def select_victim(
        self,
        running: Sequence[Request],
        protected: Optional[Request] = None,
    ) -> Request:
        candidates = [r for r in running if r is not protected]
        return max(candidates, key=self._urgency)

    def stable_decode_horizon(
        self, running: Sequence[Request], view: SchedulingView
    ) -> float:
        """Deadlines reorder *prefills* and *admissions*, not decodes.

        The engine asks only when no prefill is pending, and such a
        batch decodes in lockstep whatever the urgency order says —
        urgency only matters again when a request arrives (an
        engine-level bound) or a prefill appears. So the decode plan is
        as stable as FCFS's.
        """
        return math.inf
