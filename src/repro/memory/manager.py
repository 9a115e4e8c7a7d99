"""The MemoryManager: the engine's one memory object.

In the style of sglang's ``mem_cache_v2`` ``MemoryManagerAdapter``, the
manager simply holds its parts and calls them directly:

* ``backend`` — the raw allocator (:class:`~repro.serving.memory.
  MemoryBackend`: ``can_admit`` / ``admit`` / ``prepare_iteration`` /
  ``release``, plus its cost, fast-path and telemetry hooks);
* ``cache`` — an optional :class:`~repro.cache.manager.
  PrefixCacheManager` (radix tree + backend adapter + stats);
* ``tier`` — an optional :class:`~repro.memory.tier.CpuKvTier`.

The engine speaks only the manager's verbs — ``can_admit``,
``allocate_request``, ``allocate_tokens``, ``evict``,
``cache_finished_request``, the prefill hooks ``before_prefill`` /
``note_prefill_complete``, ``probe_prefix_tokens`` and
``decode_fast_path`` — and the manager runs the cache's eviction loops
inside them: admission pressure, reqId exhaustion and a failing
``prepare_iteration`` all evict cached prefixes before the engine has
to preempt a running request.

Eviction policy lives here (``MemoryConfig.preemption_mode``):

* ``recompute`` — drop the KV; re-admission prefills again (vLLM's
  default, the paper's behaviour).
* ``swap`` — the whole-cache policy: ``context_len *
  kv_bytes_per_token`` moves over PCIe regardless of layout.
* ``tiered`` — cache-aware hierarchical eviction: the transfer is
  sized at backend granularity (vAttention page-group rows via the
  manager's own row math — demand-paged restore re-maps exactly those
  rows; Paged at block granularity — block-sized copy-back), so what
  moves is what the backend physically holds, not the logical token
  count. Under pressure this prefers tiering over recompute whenever
  the victim's prefill is done and the host tier has room.

The manager performs no clock or telemetry operations itself — each
cross-tier verb returns a :class:`TierTransfer` describing what moved,
and the engine charges the seconds to the simulated clock and emits the
``tier_transfer`` event. That keeps the manager reusable from replay
tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from ..errors import SchedulingError
from ..models.shard import ShardedModel
from ..serving.memory import MemoryBackend, PagedMemory, VAttentionMemory
from ..serving.request import Request
from .tier import CpuKvTier, TierStats

if TYPE_CHECKING:  # repro.cache builds on repro.serving.memory
    from ..cache.manager import PrefixCacheManager, PrefixCacheReport


@dataclass(frozen=True)
class TierTransfer:
    """Outcome of one manager verb that may have moved KV across tiers.

    ``nbytes == 0`` means nothing moved (a recompute eviction, or an
    admission with nothing to restore); the engine advances the clock
    by ``seconds`` and emits a ``tier_transfer`` event only when bytes
    actually moved.
    """

    #: "out" (GPU→CPU) or "in" (CPU→GPU).
    direction: str
    #: Bytes transferred (0 = no transfer happened).
    nbytes: int
    #: PCIe seconds the engine must charge to the simulated clock.
    seconds: float
    #: The policy that produced this outcome ("swap" | "tiered" |
    #: "recompute").
    mode: str


_NO_TRANSFER_OUT = TierTransfer("out", 0, 0.0, "recompute")
_NO_TRANSFER_IN = TierTransfer("in", 0, 0.0, "recompute")


class MemoryManager:
    """The engine's memory subsystem: allocator, prefix cache, CPU tier."""

    def __init__(
        self,
        backend: MemoryBackend,
        shard: ShardedModel,
        cache: Optional["PrefixCacheManager"] = None,
        tier: Optional[CpuKvTier] = None,
        preemption_mode: str = "recompute",
    ) -> None:
        self.backend = backend
        self.shard = shard
        self.cache = cache
        self.tier = tier
        self.preemption_mode = preemption_mode

    @property
    def stats(self) -> TierStats:
        """The CPU tier's transfer counters (raises without a tier).

        Tooling that keeps the receivers of :meth:`tier_transfer`
        (``perfbench``'s traced run) reads the bytes moved here.
        """
        return self.tier.stats

    def telemetry_sample(self) -> Dict[str, float]:
        # Backend keys first, then cache keys, then tier keys: the
        # registry creates instruments in this order.
        sample = self.backend.telemetry_sample()
        if self.cache is not None:
            sample.update(self.cache.telemetry_sample())
        if self.tier is not None:
            sample.update(self.tier.telemetry_sample())
        return sample

    def cache_report(self) -> Optional["PrefixCacheReport"]:
        """Prefix-cache statistics, or ``None`` without a cache."""
        return None if self.cache is None else self.cache.report()

    def probe_prefix_tokens(self, token_ids, limit=None) -> int:
        """Reusable-prefix tokens a prompt would hit right now, side
        effect free; 0 without a cache."""
        if self.cache is None:
            return 0
        return self.cache.probe_prefix_tokens(token_ids, limit=limit)

    # -- engine verbs --------------------------------------------------
    def can_admit(self, request: Request) -> bool:
        cache = self.cache
        if cache is None:
            return self.backend.can_admit(request)
        if request.resident_tokens_needed > cache.adapter.max_context:
            return False  # eviction can never help an oversized prompt
        # Admission pressure is the cache's cue to shrink: release
        # slots and rows/blocks before the engine gives up on the
        # request.
        while not self.backend.can_admit(request):
            if not cache.evict_one():
                return False
        return True

    def allocate_request(self, request: Request) -> TierTransfer:
        """Admit ``request``; demand-page its KV back from the CPU tier
        if a previous eviction moved it there (zero bytes otherwise)."""
        cache = self.cache
        if cache is not None:
            while not cache.adapter.has_free_slot():
                if not cache.evict_one():
                    raise SchedulingError(
                        "no free reqId and no evictable cached prefix"
                    )
        self.backend.admit(request)
        if request.swapped and self.tier is not None:
            restore = self.tier_transfer(request.request_id, "in")
            request.swapped = False
            return restore
        return _NO_TRANSFER_IN

    def allocate_tokens(self, batch: Sequence[Request]) -> bool:
        """Ensure memory for the tokens ``batch`` will produce this
        iteration, evicting cached prefixes before giving up; False =>
        a preemption is needed."""
        prepare = self.backend.prepare_iteration
        if prepare(batch):
            return True
        cache = self.cache
        while cache is not None and cache.evict_one():
            if prepare(batch):
                return True
        return False

    def decode_fast_path(self, batch: Sequence[Request]):
        """The backend's plan: a steady decode stretch never touches the
        cache (no admissions, no prefills, and the plan's horizon
        guarantees ``prepare_iteration`` succeeds outright)."""
        return self.backend.decode_fast_path(batch)

    def before_prefill(self, request: Request) -> None:
        """Alias the longest cached prefix into a request about to
        prefill, before its prompt memory is backed."""
        if self.cache is not None:
            self.cache.share_cached_prefix(request)

    def note_prefill_complete(self, request: Request) -> None:
        """Index a just-prefilled request's prompt KV for reuse."""
        if self.cache is not None:
            self.cache.insert_prefilled(request)

    def cache_finished_request(self, request: Request) -> None:
        """Retire a finished request: the cache keeps its prefix
        resident where it can, the backend frees everything else."""
        if self.cache is None or not self.cache.retain(request):
            self.backend.release(request)
        if self.tier is not None:
            # A finished request cannot still be tier-resident (restore
            # precedes re-admission), but keep the tier's view closed.
            self.tier.drop(request.request_id)

    def evict(self, victim: Request) -> TierTransfer:
        """Release a preemption victim's GPU memory and apply the
        configured eviction policy to its KV contents.

        Tiering is preferred whenever the policy allows it, the
        victim's prefill is done (a half-built prompt is cheaper to
        recompute than to round-trip), and the host tier has capacity —
        the capacity probe's rejection counter is part of the tier's
        accounting.
        """
        if self.cache is not None:
            self.cache.release(victim)
        self.backend.release(victim)
        if self.tier is not None and victim.prefill_done:
            nbytes = (
                self._tier_bytes(victim)
                if self.preemption_mode == "tiered"
                else victim.context_len * self.shard.kv_bytes_per_token
            )
            if self.tier.can_swap_out(nbytes):
                victim.preempt_swap()
                return self.tier_transfer(victim.request_id, "out", nbytes)
        victim.preempt()
        return _NO_TRANSFER_OUT

    def tier_transfer(
        self, request_id: str, direction: str, nbytes: int = 0
    ) -> TierTransfer:
        """Move ``request_id``'s KV across the GPU↔CPU boundary.

        The primitive behind :meth:`evict` and :meth:`allocate_request`,
        exposed for callers managing their own placement (cluster
        drain, replay tooling).
        """
        if self.tier is None:
            raise ValueError("no CPU tier configured")
        if direction == "out":
            seconds = self.tier.swap_out(request_id, nbytes)
        elif direction == "in":
            nbytes = self.tier.resident_bytes(request_id)
            seconds = self.tier.swap_in(request_id)
        else:
            raise ValueError(f"unknown transfer direction {direction!r}")
        return TierTransfer(direction, nbytes, seconds, self.preemption_mode)

    # ------------------------------------------------------------------
    def _tier_bytes(self, victim: Request) -> int:
        """Bytes the backend physically held for ``victim``'s context.

        Computed from layout math, not live allocations — the victim's
        GPU memory is already released when eviction policy runs.
        """
        backend = self.backend
        if isinstance(backend, VAttentionMemory):
            manager = backend.manager
            rows = manager.rows_for_context(victim.context_len)
            return rows * manager.config.row_bytes
        if isinstance(backend, PagedMemory):
            blocks = backend.blocks
            return blocks.blocks_needed(victim.context_len) * blocks.block_bytes
        return victim.context_len * self.shard.kv_bytes_per_token
