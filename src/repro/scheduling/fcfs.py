"""First-come-first-serve scheduling (the paper's policy).

:class:`FcfsPolicy` is the engine-facing policy, behaviour-identical to
the inline decisions :class:`~repro.serving.engine.LLMEngine` hard-coded
before scheduling became a subsystem (verified byte-for-byte against
golden run reports in ``tests/test_sched_policy.py``): admit from the
queue head while memory allows, prefill the oldest admitted prompt
first — chunked through the legacy ``prefill_chunk_size`` knob if set —
and preempt the newest request under memory pressure (vLLM's default,
S5.3.3).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..serving.request import Request
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
        return waiting[0] if waiting else None

    def plan_iteration(
        self,
        running: Sequence[Request],
        awaiting: Sequence[Request],
        view: SchedulingView,
    ) -> IterationPlan:
        if not awaiting:
            return IterationPlan(PlanKind.DECODE)
        prefill = awaiting[0]
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

        ``plan_iteration`` is a pure function of "does anyone need a
        prefill", and the engine asks only when no one does — so the
        decode plan is stable indefinitely; the engine's
        arrival/completion bounds are the only limits.
        """
        return math.inf
