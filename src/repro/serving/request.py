"""Request lifecycle for the serving engine.

A request arrives with a prompt, is admitted when memory allows (FCFS),
runs one prefill iteration, then decodes one token per iteration until
it has produced ``max_new_tokens`` (or hits the model's context limit).
Timestamps recorded along the way feed the latency/throughput metrics of
the end-to-end experiments (Figures 9-11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..errors import ConfigError, SchedulingError
from ..tokens import TokenRuns


@dataclass(frozen=True)
class PrefixDescriptor:
    """Token-id content of a request's prompt, for prefix caching.

    ``token_ids`` are the prompt's leading token ids (up to the whole
    prompt); the radix-tree prefix cache indexes resident KV under them
    and matches arriving requests against the index. ``group`` is a
    workload-level label (shared system prompt, chat session) used in
    statistics — sharing is decided purely by token ids. The ids are
    frozen into :class:`~repro.tokens.TokenRuns` (runs of consecutive
    ids) at construction, so a caller mutating its list afterwards
    cannot change the descriptor. A ``TokenRuns`` argument — what the
    trace generators pass — is immutable and kept as is, not copied.
    """

    group: str
    token_ids: TokenRuns

    def __post_init__(self) -> None:
        object.__setattr__(self, "token_ids", TokenRuns.of(self.token_ids))
        if not self.token_ids:
            raise ConfigError(f"prefix group {self.group!r} has no tokens")

    @property
    def tokens(self) -> int:
        """Number of prompt tokens the descriptor covers."""
        return len(self.token_ids)


class RequestState(Enum):
    """Lifecycle states of a request."""

    QUEUED = "queued"  # arrived, waiting for admission
    RUNNING = "running"  # admitted; prefill pending or decoding
    PREEMPTED = "preempted"  # evicted under memory pressure; will re-run
    FINISHED = "finished"


@dataclass
class Request:
    """One inference request and its runtime bookkeeping."""

    request_id: str
    prompt_len: int
    max_new_tokens: int
    arrival_time: float = 0.0

    state: RequestState = RequestState.QUEUED
    generated: int = 0
    prefill_done: bool = False
    #: Prompt tokens processed so far (chunked prefill runs in pieces).
    prefilled_tokens: int = 0
    #: Backend-specific handle (vAttention reqId; block-pool key).
    memory_handle: Optional[int] = None

    admitted_time: Optional[float] = None
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    preemptions: int = 0
    #: Set while the request's KV cache lives in host swap space.
    swapped: bool = False
    #: Prompt token ids eligible for prefix-cache matching (optional).
    prefix: Optional[PrefixDescriptor] = None
    #: Prompt tokens whose KV was aliased/copied from the prefix cache
    #: instead of computed (set by the cache on a hit).
    cached_prefix_tokens: int = 0
    #: First-token latency budget in seconds (``arrival_time + budget``
    #: is the deadline the SLA-aware scheduler orders by); ``None`` =
    #: no deadline. Ignored by deadline-blind policies.
    ttft_budget: Optional[float] = None
    #: Tie-break weight among equal deadlines (higher = more urgent).
    priority: int = 0

    def __post_init__(self) -> None:
        if self.prompt_len <= 0:
            raise ConfigError(
                f"{self.request_id}: prompt_len must be positive, "
                f"got {self.prompt_len}"
            )
        if self.max_new_tokens <= 0:
            raise ConfigError(
                f"{self.request_id}: max_new_tokens must be positive, "
                f"got {self.max_new_tokens}"
            )
        if not math.isfinite(self.arrival_time):
            raise ConfigError(
                f"{self.request_id}: arrival_time must be finite, "
                f"got {self.arrival_time}"
            )
        if self.ttft_budget is not None and not (
            0 <= self.ttft_budget < math.inf
        ):
            raise ConfigError(
                f"{self.request_id}: ttft_budget must be finite and "
                f"non-negative, got {self.ttft_budget}"
            )
        if self.prefix is not None and self.prefix.tokens > self.prompt_len:
            raise ConfigError(
                f"{self.request_id}: prefix descriptor covers "
                f"{self.prefix.tokens} tokens but the prompt has only "
                f"{self.prompt_len}"
            )

    # ------------------------------------------------------------------
    @property
    def context_len(self) -> int:
        """Tokens currently in the KV cache (paper's ``L'``)."""
        return self.prompt_len + self.generated

    @property
    def total_len(self) -> int:
        """Final context length when the request completes."""
        return self.prompt_len + self.max_new_tokens

    @property
    def is_finished(self) -> bool:
        """Whether the request has produced all its tokens."""
        return self.state is RequestState.FINISHED

    @property
    def needs_prefill(self) -> bool:
        """Whether the request's next iteration is a prefill."""
        return self.state is RequestState.RUNNING and not self.prefill_done

    # ------------------------------------------------------------------
    def record_decode_token(self, now: float) -> None:
        """Account one generated token at simulated time ``now``."""
        if self.state is not RequestState.RUNNING or not self.prefill_done:
            raise SchedulingError(
                f"{self.request_id}: decode before prefill completes"
            )
        self.generated += 1

    def record_prefill(self, now: float) -> None:
        """Mark the prompt processed; the first output token exists."""
        if self.state is not RequestState.RUNNING:
            raise SchedulingError(f"{self.request_id}: prefill while not running")
        self.prefill_done = True
        self.prefilled_tokens = self.prompt_len
        self.generated += 1  # prefill produces the first output token
        if self.first_token_time is None:
            self.first_token_time = now

    def record_prefill_chunk(self, n_tokens: int, now: float) -> None:
        """Account one chunk of prompt processing (chunked prefill).

        When the final chunk lands, the request behaves exactly as if a
        monolithic prefill completed.
        """
        if self.state is not RequestState.RUNNING:
            raise SchedulingError(f"{self.request_id}: prefill while not running")
        if self.prefill_done:
            raise SchedulingError(f"{self.request_id}: prefill already done")
        if n_tokens <= 0:
            raise SchedulingError(f"chunk must be positive, got {n_tokens}")
        if self.prefilled_tokens + n_tokens > self.prompt_len:
            raise SchedulingError(
                f"{self.request_id}: chunk overruns prompt "
                f"({self.prefilled_tokens} + {n_tokens} > {self.prompt_len})"
            )
        self.prefilled_tokens += n_tokens
        if self.prefilled_tokens == self.prompt_len:
            self.record_prefill(now)

    @property
    def next_chunk_tokens(self) -> int:
        """Prompt tokens still awaiting prefill."""
        return self.prompt_len - self.prefilled_tokens

    def apply_cached_prefix(self, n_tokens: int) -> None:
        """Account ``n_tokens`` of prompt KV restored from the prefix
        cache: they are resident and need no prefill compute.

        Must land before any prefill progress; the remaining
        ``prompt_len - n_tokens`` tokens prefill normally (monolithic or
        chunked).
        """
        if self.state is not RequestState.RUNNING:
            raise SchedulingError(
                f"{self.request_id}: cached prefix while not running"
            )
        if self.prefill_done or self.prefilled_tokens:
            raise SchedulingError(
                f"{self.request_id}: cached prefix after prefill started"
            )
        if not 0 < n_tokens < self.prompt_len:
            raise SchedulingError(
                f"{self.request_id}: cached prefix of {n_tokens} tokens "
                f"must leave at least one of {self.prompt_len} to compute"
            )
        self.cached_prefix_tokens = n_tokens
        self.prefilled_tokens = n_tokens

    def preempt(self) -> None:
        """Evict under memory pressure; KV cache will be recomputed."""
        if self.state is not RequestState.RUNNING:
            raise SchedulingError(f"{self.request_id}: cannot preempt")
        self.state = RequestState.PREEMPTED
        self.preemptions += 1
        # vLLM's default recompute policy: generated tokens join the
        # prompt for the re-run so no work is lost logically, but the
        # prefill must be recomputed over the longer context.
        original_total = self.total_len
        self.prompt_len = self.context_len
        self.max_new_tokens = max(1, original_total - self.prompt_len)
        self.generated = 0
        self.prefill_done = False
        self.prefilled_tokens = 0
        self.cached_prefix_tokens = 0
        self.memory_handle = None

    def preempt_swap(self) -> None:
        """Evict with the KV cache preserved in host memory (swap mode).

        Decode state survives: on re-admission the request resumes
        decoding without re-running the prefill.
        """
        if self.state is not RequestState.RUNNING:
            raise SchedulingError(f"{self.request_id}: cannot preempt")
        if not self.prefill_done:
            # Nothing worth swapping: fall back to recompute semantics
            # (the cache holds no tokens yet).
            self.preempt()
            return
        self.state = RequestState.PREEMPTED
        self.preemptions += 1
        self.swapped = True
        self.memory_handle = None

    @property
    def resident_tokens_needed(self) -> int:
        """KV tokens the backend must hold before this request runs.

        A fresh (or recompute-preempted) request needs its prompt; a
        swapped-in request needs its full current context restored.
        """
        return self.context_len if self.prefill_done else self.prompt_len

    def finish(self, now: float) -> None:
        """Mark complete at simulated time ``now``."""
        self.state = RequestState.FINISHED
        self.finish_time = now

    # ------------------------------------------------------------------
    # Latency metrics
    # ------------------------------------------------------------------
    @property
    def e2e_latency(self) -> float:
        """Arrival to completion (the Figure 10 metric)."""
        if self.finish_time is None:
            raise SchedulingError(f"{self.request_id} has not finished")
        return self.finish_time - self.arrival_time

    @property
    def ttft(self) -> float:
        """Time to first token."""
        if self.first_token_time is None:
            raise SchedulingError(f"{self.request_id} has no first token yet")
        return self.first_token_time - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request({self.request_id}, prompt={self.prompt_len}, "
            f"gen={self.generated}/{self.max_new_tokens}, {self.state.value})"
        )
