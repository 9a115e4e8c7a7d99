"""The scheduler-policy protocol between queue and engine.

A :class:`SchedulerPolicy` owns the three decisions the serving loop
used to hard-code inline (see ``docs/scheduling.md`` for the narrative
version):

1. **Admission order** — which waiting request the engine should try to
   admit next (:meth:`SchedulerPolicy.next_admission`). Admission is
   *strict* in the policy's order: the engine stops at the first
   candidate that does not fit in memory, it never skips ahead — so
   FCFS keeps the paper's head-of-line semantics (S7.4) and SLA
   ordering degrades predictably under pressure.
2. **Iteration shape** — what the next engine iteration executes
   (:meth:`SchedulerPolicy.plan_iteration`): one monolithic prefill,
   a Sarathi-style *mixed* iteration (one prefill chunk piggybacked
   onto every running decode), or a pure decode sweep.
3. **Preemption victim** — who gets evicted when the memory backend
   cannot back the planned batch (:meth:`SchedulerPolicy.select_victim`).

Policies observe the world through a :class:`SchedulingView` — the
simulated time, the engine's batch/chunk configuration, and a
side-effect-free prefix-cache probe. The probe is what makes chunk
budgeting *cache-aware*: a prefill whose prompt is mostly resident in
the radix tree costs only its uncached suffix, and
:meth:`SchedulingView.remaining_prefill_tokens` reports exactly that
post-cache length.

The module deliberately imports nothing from :mod:`repro.serving` at
runtime (annotations only) so the engine can import it without cycles.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..errors import ConfigError, SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serving.request import Request


class PlanKind(enum.Enum):
    """What one engine iteration executes."""

    #: One admitted prompt runs its prefill in full (paper Algorithm 1).
    PREFILL = "prefill"
    #: One prefill chunk + every running decode, fused (Sarathi [36]).
    MIXED = "mixed"
    #: Every running request advances by one decode token.
    DECODE = "decode"


@dataclass(frozen=True)
class IterationPlan:
    """One scheduling decision: what the next iteration executes.

    ``chunk_tokens`` is a *budget*, not a promise: the engine clamps it
    to the prefill's remaining tokens after the prefix cache has aliased
    whatever it holds (aliasing happens inside the iteration, after the
    plan is made), so a plan can never overrun a prompt.
    """

    kind: PlanKind
    #: The request whose prompt runs (PREFILL and MIXED plans).
    prefill: Optional["Request"] = None
    #: Prompt-token budget of the MIXED plan's chunk.
    chunk_tokens: int = 0

    def __post_init__(self) -> None:
        if self.kind is PlanKind.DECODE:
            if self.prefill is not None:
                raise SchedulingError("decode plans carry no prefill")
            return
        if self.prefill is None:
            raise SchedulingError(f"{self.kind.value} plan needs a prefill")
        if self.kind is PlanKind.MIXED and self.chunk_tokens <= 0:
            raise SchedulingError(
                f"mixed plan chunk budget must be positive, "
                f"got {self.chunk_tokens}"
            )


@dataclass(frozen=True)
class SchedulingView:
    """What a policy may observe when making a decision.

    The view is rebuilt by the engine at every decision point, so
    ``now`` always carries the current simulated time — including the
    clock advances a swap-in inside the admission loop produces.
    """

    #: Current simulated time (seconds).
    now: float
    #: The engine's running-batch cap.
    max_batch_size: int
    #: The engine's legacy fixed chunk size (``None`` = monolithic
    #: prefills under FCFS/SLA; an additional cap under hybrid).
    prefill_chunk_size: Optional[int]
    #: Side-effect-free probe: prompt tokens of a request the prefix
    #: cache would serve right now (0 without a cache or a match).
    cached_prefix_tokens: Callable[["Request"], int]

    def remaining_prefill_tokens(self, request: "Request") -> int:
        """Prefill work left for ``request``, net of the prefix cache.

        Before any prefill progress, the longest cached prefix is
        subtracted (it will be aliased, not computed); at least one
        token always remains — the prefill iteration must still run to
        produce the first output token. After chunking has started the
        cache can no longer help, and the remainder is simply the
        un-prefilled tail.
        """
        remaining = request.next_chunk_tokens
        if request.prefilled_tokens == 0:
            remaining -= self.cached_prefix_tokens(request)
        return max(1, remaining)


class SchedulerPolicy(abc.ABC):
    """Pluggable scheduling policy driving the engine's serve loop.

    Policies are cheap, stateless-or-self-contained objects constructed
    per engine (cluster replicas each build their own instance from the
    shared :class:`~repro.serving.engine.EngineConfig`). Decisions must
    be deterministic functions of the observable state — the whole
    simulation is reproducible for a fixed trace seed, and the FCFS
    policy is verified byte-identical to the pre-subsystem engine.
    """

    #: Registry name (``EngineConfig.scheduler_policy``).
    name: str

    @abc.abstractmethod
    def next_admission(
        self, waiting: Sequence["Request"], view: SchedulingView
    ) -> Optional["Request"]:
        """The waiting request admission should try next.

        Returning ``None`` holds admission this round. The engine
        enforces the batch cap and the memory predicate; the policy
        only orders the queue. Admission is strict: if the returned
        candidate does not fit, admission stops — the policy is *not*
        consulted for a smaller substitute.
        """

    @abc.abstractmethod
    def plan_iteration(
        self,
        running: Sequence["Request"],
        awaiting: Sequence["Request"],
        view: SchedulingView,
    ) -> IterationPlan:
        """Shape of the next iteration over the running batch.

        ``awaiting`` is the members of ``running`` that still need
        their prefill, in running order — the engine keeps the list as
        the batch changes, so a policy need not scan ``running`` for
        them. An empty list means every member is decoding.
        """

    def stable_decode_horizon(
        self, running: Sequence["Request"], view: SchedulingView
    ) -> float:
        """Iterations over which this policy provably plans the same
        pure-decode batch, assuming no arrival, completion, admission or
        preemption occurs (the engine bounds those separately — see
        :mod:`repro.sim.fastforward`).

        The engine asks only while every member of ``running`` is
        decoding: while one awaits its prefill the next plan is not a
        pure decode, and the engine records "no stretch" without asking
        (its count of such members is the one source of that fact). An
        override need not scan for pending prefills.

        Returning ``math.inf`` promises that, as long as every running
        request is decoding and the queues do not change, every
        ``plan_iteration`` call would return the identical DECODE plan.
        The conservative default is 0 — custom policies opt *in* to
        decode fast-forwarding by overriding this; a policy whose
        decisions depend on, say, the clock value itself must not.
        """
        return 0

    def select_victim(
        self,
        running: Sequence["Request"],
        protected: Optional["Request"] = None,
    ) -> "Request":
        """Pick the preemption victim when memory cannot back the batch.

        Default: the most recently admitted request (vLLM's default
        recompute-preemption policy, paper S5.3.3), sparing
        ``protected`` — the request the current iteration is about to
        prefill — unless it is the only other choice. The engine
        guarantees ``len(running) >= 2`` when it asks.
        """
        index = len(running) - 1
        if running[index] is protected:
            index -= 1
        return running[index]


def validate_token_budget(token_budget: int) -> int:
    """Shared validation of per-iteration token budgets."""
    if token_budget <= 0:
        raise ConfigError(
            f"token budget must be positive, got {token_budget}"
        )
    return token_budget
