"""Hybrid decode+prefill batching under a per-iteration token budget.

The paper's online-latency evaluation (Fig. 10) serves interactive
load where a single long prompt, run monolithically, stalls every
in-flight decode for the full prefill — seconds of frozen streams.
Sarathi-Serve (the paper's reference [36]) bounds that stall by giving
every iteration a *token budget*: all running decodes participate (one
token each), and whatever budget remains is filled with a bounded
chunk of the oldest pending prompt. The linear operators fuse — the
chunk's tokens saturate the GEMMs the decode batch would under-utilize
— so throughput does not regress while worst-case iteration latency
becomes ~budget-sized.

:class:`HybridBatchPolicy` brings that discipline into the engine's
main loop (the standalone ``ext_chunked_prefill`` experiment drove it
through a fixed chunk-size knob before this subsystem existed):

* every iteration with a pending prompt is a *mixed* iteration;
* the chunk goes to the pending prompt with the **fewest remaining
  tokens net of the prefix cache** (ties fall back to admission
  order) — a short chat prompt admitted behind a 64K document does
  not wait out the document's remaining chunks, and a prompt whose
  prefix is already resident is cheapest of all, so cache hits are
  harvested first. Starvation is bounded: the batch is capped, new
  (shorter) prompts stop arriving once it is full, and a paused
  prefill keeps its progress;
* the chunk budget is ``token_budget - len(decodes)``, clamped to the
  prompt's remaining tokens and, if set, the engine's legacy
  ``prefill_chunk_size`` cap;
* the budget sees **post-cache lengths**: a prefill whose prefix the
  radix tree already holds costs only its uncached suffix
  (:meth:`~repro.scheduling.base.SchedulingView.
  remaining_prefill_tokens`), so a cache hit frees budget instead of
  wasting it on tokens that will be aliased, and a short suffix
  completes in a single iteration;
* a decode batch at or above the budget still yields a 1-token chunk —
  prefills are never starved outright, they just proceed at the floor
  rate until decodes retire. Size ``token_budget`` comfortably above
  ``max_batch_size`` (the engine warns via ``ConfigError`` only for
  non-positive budgets; the floor keeps small budgets safe).

Admission order and preemption are FCFS (queue order in, newest out):
the policy changes *batch composition*, not fairness.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .base import (
    IterationPlan,
    PlanKind,
    SchedulerPolicy,
    SchedulingView,
    validate_token_budget,
)
from ..serving.request import Request

#: Default per-iteration token budget (Sarathi-Serve's production
#: default for A100-class GPUs; comfortably above typical batch sizes).
DEFAULT_TOKEN_BUDGET = 2_048


class HybridBatchPolicy(SchedulerPolicy):
    """Sarathi-style mixed batches under a per-iteration token budget."""

    name = "hybrid"

    def __init__(self, token_budget: int = DEFAULT_TOKEN_BUDGET) -> None:
        self.token_budget = validate_token_budget(token_budget)

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
        decodes = len(running) - len(awaiting)
        # Cheapest-first; the index tie-break keeps admission order for
        # equal remainders (and each prompt's cache probe runs once).
        remaining, _, prefill = min(
            (view.remaining_prefill_tokens(r), index, r)
            for index, r in enumerate(awaiting)
        )
        chunk = max(1, min(self.token_budget - decodes, remaining))
        if view.prefill_chunk_size:
            chunk = min(chunk, view.prefill_chunk_size)
        return IterationPlan(
            PlanKind.MIXED, prefill=prefill, chunk_tokens=chunk
        )

    def stable_decode_horizon(
        self, running: Sequence[Request], view: SchedulingView
    ) -> float:
        """Unbounded: the engine asks only when no prefill is pending,
        which would turn the next iteration into a *mixed* batch.

        Once every running request is decoding, the token budget is
        irrelevant — decodes always all participate — and the plan is
        stable until an arrival or completion, which the engine bounds.
        """
        return math.inf
