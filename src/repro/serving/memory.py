"""Memory backends: how the serving engine allocates KV cache.

Three strategies, matching the systems the paper compares:

* :class:`VAttentionMemory` — the paper's contribution: contiguous
  virtual tensors, demand-mapped physical page-groups, background
  allocation. Works with *non-paged* kernels.
* :class:`PagedMemory` — PagedAttention: user-space block pool committed
  up front, per-iteration Block-Table preparation (CPU cost depends on
  the kernel library). Works with *paged* kernels.
* :class:`StaticMemory` — Orca/FasterTransformer-style: every slot is a
  max-context reservation; massive internal fragmentation bounds the
  batch size. Works with non-paged kernels.

Each backend reports ``framework_overhead`` (CPU seconds the serving
framework spends on memory bookkeeping in one iteration) and
``append_overhead`` (cost of writing new K/V into the cache layout),
which the engine adds to iteration latency.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import VAttentionConfig
from ..core.vattention import RequestSlot, VAttention
from ..errors import ConfigError, SchedulingError
from ..gpu.device import Device
from ..gpu.uvm import UvmKvRegion, UvmSlot
from ..kernels.base import KvLayout
from ..paged.block_manager import BlockManager
from ..paged.block_table import BlockTableCost, block_table_cost
from ..sim.fastforward import (
    UNBOUNDED_HORIZON,
    DecodeFastPath,
    SteadyDecodeFastPath,
)
from .request import Request


class MemoryBackend(abc.ABC):
    """A KV cache allocation strategy: the allocator the engine's
    :class:`~repro.memory.manager.MemoryManager` holds.

    Backends speak only the allocator verbs (``can_admit`` / ``admit`` /
    ``prepare_iteration`` / ``release``) plus their cost, fast-path and
    telemetry hooks; prefix caching and CPU tiering live in the manager.
    """

    #: Layout this backend produces; kernels must match it.
    layout: KvLayout

    @abc.abstractmethod
    def can_admit(self, request: Request) -> bool:
        """Whether admitting ``request`` now cannot run out of memory
        during its prefill. Must account for memory already promised to
        other admitted-but-not-yet-prefilled requests."""

    @abc.abstractmethod
    def admit(self, request: Request) -> None:
        """Bind ``request`` to this backend and reserve its prompt memory."""

    @abc.abstractmethod
    def prepare_iteration(self, batch: Sequence[Request]) -> bool:
        """Ensure memory for the requests executing this iteration;
        False => a preemption is needed.

        May advance the simulated clock (synchronous allocation).
        """

    @abc.abstractmethod
    def release(self, request: Request) -> None:
        """Free the memory of a finished or preempted request."""

    def telemetry_sample(self) -> Dict[str, float]:
        """Current occupancy figures for the telemetry registry.

        Convention: keys ending in ``_total`` are cumulative counters
        (the registry records their deltas); every other key is a gauge
        sampled as-is. An empty dict — the default — means the backend
        exposes nothing.
        """
        return {}

    def after_iteration(self, iteration_seconds: float) -> None:
        """Observe a completed compute window (background allocation)."""

    def framework_overhead(self, running: Sequence[Request]) -> float:
        """CPU seconds of per-iteration memory bookkeeping."""
        return 0.0

    def append_overhead(self, new_tokens: int) -> float:
        """Seconds to write a prefill's ``new_tokens`` of K/V into the cache.

        Decode-phase single-token appends use the shared optimized copy
        kernel and are free for every backend.
        """
        return 0.0

    def decode_fast_path(
        self, batch: Sequence[Request]
    ) -> Optional["DecodeFastPath"]:
        """A fast-forward plan for a pure-decode stretch over ``batch``.

        The plan's :attr:`~repro.sim.fastforward.DecodeFastPath.horizon`
        promises how many consecutive decode iterations this backend can
        absorb with **no synchronous allocation, no preemption, and no
        state the plan cannot replay exactly** (see
        ``docs/performance.md`` for the contract). ``None`` — the
        default, so custom backends are automatically safe — disables
        fast-forwarding and keeps the per-iteration loop.
        """
        return None


# ----------------------------------------------------------------------
class _VattentionDecodePlan(DecodeFastPath):
    """Runs vAttention's background pass over a decode stretch.

    A steady decode iteration leaves ``step()`` nothing to do — every
    row is pre-mapped — but ``on_iteration_end`` still runs every
    iteration: lookahead mappings at page-group crossings, eager
    allocation for the next reqId, threshold reclamation, and the
    background thread consuming the compute window. The plan keeps the
    batch's ``(slot, c0)`` entries (a slot's context after ``k``
    iterations is ``c0 + k``), the *trim candidates* among them (the
    entries whose slots are the manager's excess candidates) and the
    batch's next *crossing*: the first iteration whose next token needs
    a row no batch slot has mapped yet.

    A hook records only the contexts its pass reads. Inside
    ``on_iteration_end`` the only active-slot contexts read are those
    of the lookahead list and of the excess candidates; everything
    else the pass touches is inactive slots and the free pool. So the
    hook at iteration ``i`` is exact when it records:

    * *at a crossing* (``i >= _next_cross``, overlap only): the whole
      batch, at ``c0 + i + 1``, as ``step()`` would, and then takes the
      batch-wide minimum again. Crossings are rare;
    * *otherwise*: the trim candidates alone. Below the crossing no
      batch slot's context reaches its mapped capacity, so none joins
      the lookahead list and the batch slots on it (none at entry: the
      build declines a slot short of its next row) need nothing. The
      excess candidates are the only batch slots reclamation reads,
      and during a stretch the manager only drops candidates, so the
      entry-time list covers every slot the pass can trim. A slot off
      it keeps its stale context until the next record, which no pass
      reads.

    Between crossings only reclamation changes a batch slot's rows, and
    only a trim candidate's, downward: after such a hook the next
    crossing is the old one lowered by the candidates' own. Without
    overlap the pass maps nothing into the batch, and the horizon rests
    on the rows mapped at entry, so the stretch ends once a candidate
    loses a row. :meth:`commit` records the whole batch once.

    The stretch ends the moment steady-state is no longer provable:
    critical work spilling past its window (the next ``step()`` would
    flush it synchronously), a crossing the free pool cannot back, or
    reclamation trimming a batch slot's lookahead row. The
    per-iteration loop then resumes with the manager in precisely the
    state it would have reached on its own.
    """

    per_iteration_overhead = 0.0  # vAttention needs no Block-Table

    def __init__(
        self,
        manager: VAttention,
        entries: List[Tuple[RequestSlot, int]],
        candidates: List[Tuple[RequestSlot, int]],
        lead: int,
        overlap: bool,
    ) -> None:
        """``lead`` is the batch's ``min(len(rows) * tokens_per_row -
        c0)``, at least 1: tokens every slot can take before a step
        would map."""
        self.manager = manager
        config = manager.config
        #: (slot, entry context) pairs, and those of the trim candidates.
        self._entries = entries
        self._candidates = candidates
        self._overlap = overlap
        self.has_hooks = (
            overlap or config.eager_allocation or config.deferred_reclamation
        )
        self._tokens_per_row = config.tokens_per_page_group
        if overlap:
            # At iteration i the pass maps a row for the next token
            # once c0 + i + 1 reaches a slot's mapped capacity.
            self.horizon = UNBOUNDED_HORIZON
            self._next_cross = lead - 1
        else:
            # No lookahead rows: the stretch ends where the first
            # slot's rows run out.
            self.horizon = lead
            self._next_cross = UNBOUNDED_HORIZON
            self._candidate_rows = sum(
                len(slot.rows) for slot, _ in candidates
            )
        #: Iterations already counted into the manager's step stats
        #: (a resumed stretch commits cumulatively).
        self._committed = 0

    def on_iteration(self, iteration: int, window: float) -> bool:
        manager = self.manager
        tokens_per_row = self._tokens_per_row
        if iteration >= self._next_cross:
            manager.record_contexts(self._entries, iteration + 1)
            manager.on_iteration_end(window)
            self._next_cross = min(
                len(slot.rows) * tokens_per_row - c0 - 1
                for slot, c0 in self._entries
            )
        else:
            candidates = self._candidates
            if candidates:
                manager.record_contexts(candidates, iteration + 1)
            manager.on_iteration_end(window)
            if not self._overlap:
                # The horizon was derived from the entry-time row
                # coverage; once reclamation shrinks it, stop before it
                # overruns.
                return self._candidate_rows == sum(
                    len(slot.rows) for slot, _ in candidates
                )
            for slot, c0 in candidates:
                cross = len(slot.rows) * tokens_per_row - c0 - 1
                if cross < self._next_cross:
                    self._next_cross = cross
        # A crossing still due is one the free pool could not back, and
        # critical work left over would be flushed by the next step():
        # either way that step would allocate synchronously.
        return (
            self._next_cross > iteration
            and manager.background.critical_pending <= 0.0
        )

    def quiescent_until(self, iteration: int, n: int) -> int:
        """Provable no-op hook span: no crossing due and the manager's
        background pass quiet (:meth:`VAttention.background_quiet`).

        Inside the span only the batch's contexts grow, which maps
        nothing before the next crossing and leaves every quiet
        condition as it is, so the conditions checked once hold up to
        that crossing.
        """
        if iteration >= self._next_cross:
            return iteration  # a crossing is due: run the hook
        if not self.manager.background_quiet():
            return iteration
        return min(n, self._next_cross)

    def commit(self, executed: int) -> None:
        manager = self.manager
        manager.record_contexts(self._entries, executed)
        stats = manager.stats
        stats.steps += executed - self._committed
        self._committed = executed
        stats.last_step_sync_seconds = 0.0


class VAttentionMemory(MemoryBackend):
    """vAttention-backed KV cache (non-paged kernels)."""

    layout = KvLayout.CONTIGUOUS

    def __init__(self, device: Device, config: VAttentionConfig) -> None:
        self.config = config
        self.manager = VAttention(device, config)
        #: Rows promised to admitted requests whose prompts are not yet
        #: backed; keeps admission from over-committing the device.
        self._pending_rows: Dict[str, int] = {}

    @property
    def promised_rows(self) -> int:
        """Rows promised to admitted-but-not-yet-backed requests."""
        return sum(self._pending_rows.values())

    def telemetry_sample(self) -> Dict[str, float]:
        total = self.manager.total_rows
        free = self.manager.free_rows
        return {
            "kv_pages_used": float(total - free),
            "kv_pages_free": float(free),
            "kv_pool_usage": (total - free) / total,
        }

    def can_admit(self, request: Request) -> bool:
        tokens = request.resident_tokens_needed
        if tokens > self.config.shard.max_context:
            return False
        if not self.manager.has_free_reqid():
            return False
        needed = self.manager.rows_for_context(tokens)
        return needed + self.promised_rows <= self.manager.available_rows

    def admit(self, request: Request) -> None:
        request.memory_handle = self.manager.alloc_reqid()
        self._pending_rows[request.request_id] = self.manager.rows_for_context(
            request.resident_tokens_needed
        )

    def refresh_promise(self, request: Request) -> None:
        """Re-derive an admission promise from the slot's mapped rows.

        After a prefix-cache hit aliases rows into the request's slot,
        its outstanding demand shrinks; without this, admission control
        would keep over-counting the aliased rows.
        """
        if request.request_id not in self._pending_rows:
            return
        if request.memory_handle is None:
            raise SchedulingError(f"{request.request_id} has no reqId")
        slot = self.manager.slots[request.memory_handle]
        needed = self.manager.rows_for_context(request.resident_tokens_needed)
        self._pending_rows[request.request_id] = max(
            0, needed - slot.mapped_rows
        )

    def detach(self, request: Request) -> int:
        """Hand the request's slot to the caller without freeing it.

        The prefix cache takes ownership of a finished request's slot
        this way; the slot stays active and keeps its mapped rows.
        """
        if request.memory_handle is None:
            raise SchedulingError(f"{request.request_id} has no reqId")
        self._pending_rows.pop(request.request_id, None)
        handle = request.memory_handle
        request.memory_handle = None
        return handle

    def prepare_iteration(self, batch: Sequence[Request]) -> bool:
        """One ``step`` over the batch's ``(reqId, context)`` pairs."""
        max_context = self.config.shard.max_context
        contexts: List[Tuple[int, int]] = []
        for request in batch:
            handle = request.memory_handle
            if handle is None:
                raise SchedulingError(f"{request.request_id} has no reqId")
            # Prefill must back the whole prompt; decode grows by one.
            target = (
                request.prompt_len
                if request.needs_prefill
                else request.context_len + 1
            )
            contexts.append((handle, min(target, max_context)))
        contexts.sort()
        if self.manager.step_contexts(contexts) != 0:
            return False
        pending = self._pending_rows
        if pending:
            for request in batch:
                pending.pop(request.request_id, None)
        return True

    def release(self, request: Request) -> None:
        self._pending_rows.pop(request.request_id, None)
        if request.memory_handle is not None:
            self.manager.free_reqid(request.memory_handle)
            request.memory_handle = None

    def after_iteration(self, iteration_seconds: float) -> None:
        self.manager.on_iteration_end(iteration_seconds)

    def decode_fast_path(
        self, batch: Sequence[Request]
    ) -> Optional[DecodeFastPath]:
        """A stretch bounded by the background allocator's lead.

        Preconditions for entering the analytic path at all: no critical
        background work pending (the next ``step()`` would flush it
        synchronously), every batch slot's mapped rows already cover its
        next step, and no admission promise left to clear. With
        overlapped allocation the stretch is then unbounded on the
        memory side — the plan's hooks run the manager's background
        pass; without overlap it ends where the first slot's mapped rows
        run out (the next ``step()`` would allocate on the critical
        path, which the per-iteration loop must account).

        One pass over the batch builds the plan's ``(slot, context)``
        entries, the *lead* ``min(len(rows) * tokens_per_row -
        context)`` (below 1 a slot's next step would map) and the
        entries whose slots are excess candidates, the only batch slots
        reclamation can trim.
        """
        manager = self.manager
        if manager.background.critical_pending > 0.0:
            return None
        tokens_per_row = manager.config.tokens_per_page_group
        slots = manager.slots
        pending = self._pending_rows
        excess = manager.excess_candidates
        trimmable = {slot.req_id for slot in excess} if excess else ()
        entries: List[Tuple[RequestSlot, int]] = []
        candidates: List[Tuple[RequestSlot, int]] = []
        lead = UNBOUNDED_HORIZON
        for request in batch:
            handle = request.memory_handle
            if handle is None:
                return None
            if pending and request.request_id in pending:
                # Admitted but never stepped (a swap-in): the first
                # prepare must clear the admission promise.
                return None
            slot = slots[handle]
            context = request.prompt_len + request.generated
            entry = (slot, context)
            entries.append(entry)
            if handle in trimmable:
                candidates.append(entry)
            slack = len(slot.rows) * tokens_per_row - context
            if slack < lead:
                lead = slack
        if lead < 1:
            return None  # the very next step would map synchronously
        return _VattentionDecodePlan(
            manager, entries, candidates, lead, manager.config.overlap_allocation
        )

    # vAttention needs no Block-Table and appends new K/V with a single
    # contiguous tensor copy (S7.1) — both costs are negligible.


# ----------------------------------------------------------------------
class _PagedDecodePlan(DecodeFastPath):
    """Replays PagedAttention block growth over a decode stretch.

    Block allocation is pure user-space bookkeeping (no latency), but
    the per-iteration Block-Table *CPU* cost depends on each request's
    live block count — so the plan evolves a block-count schedule and
    feeds it through the same :meth:`~repro.paged.block_table.
    BlockTableCost.prepare_seconds` the slow path calls, keeping every
    framework-overhead float bit-identical across mid-stretch growth.
    The horizon guarantees the pool never runs dry (no preemption); the
    block ids themselves are attached in one :meth:`commit`.
    """

    per_iteration_overhead = None  # varies as block counts grow

    def __init__(
        self,
        backend: "PagedMemory",
        batch: Sequence[Request],
        horizon: int,
    ) -> None:
        self._backend = backend
        self._requests: List[Tuple[Request, int]] = [
            (request, request.context_len) for request in batch
        ]
        self.horizon = horizon
        blocks = backend.blocks
        self._block_size = blocks.block_size
        self._cost = backend.cost
        #: Live block count per request, in batch order (the order the
        #: slow path's framework_overhead walks).
        self._counts: List[int] = [
            blocks.allocation(request.request_id).num_blocks
            for request in batch
        ]
        #: Plan-iteration at which each request grows its next block:
        #: the first i with target c0 + i + 1 > counts * block_size.
        self._grow_at: List[int] = [
            max(0, count * self._block_size - c0)
            for count, (_, c0) in zip(self._counts, self._requests)
        ]
        self._next_grow = min(self._grow_at, default=UNBOUNDED_HORIZON)
        #: The cost only changes when a block grows, so the (bit-exact,
        #: same-function) recomputation runs per growth event, not per
        #: iteration; indices arrive once each, in ascending order.
        self._cost_now = self._cost.prepare_seconds(self._counts)

    def overhead_at(self, iteration: int) -> float:
        while self._next_grow <= iteration:
            grow = self._next_grow
            block_size = self._block_size
            counts = self._counts
            grow_at = self._grow_at
            for index, (_, c0) in enumerate(self._requests):
                if grow_at[index] == grow:
                    counts[index] += 1
                    grow_at[index] = counts[index] * block_size - c0
            self._next_grow = min(grow_at)
            self._cost_now = self._cost.prepare_seconds(counts)
        return self._cost_now

    def commit(self, executed: int) -> None:
        blocks = self._backend.blocks
        for request, c0 in self._requests:
            blocks.extend(request.request_id, c0 + executed)


class PagedMemory(MemoryBackend):
    """PagedAttention block pool + Block-Table CPU costs (paged kernels)."""

    layout = KvLayout.PAGED

    def __init__(
        self,
        device: Device,
        shard,
        block_size: int,
        library: str,
        kv_budget_bytes: Optional[int] = None,
    ) -> None:
        budget = kv_budget_bytes if kv_budget_bytes is not None else device.kv_budget
        # vLLM commits the whole block-pool region with cudaMalloc at
        # startup; dynamic behaviour is purely user-space afterwards.
        self._pool_buffer = device.caching_allocator.malloc(budget)
        self.device = device
        self.blocks = BlockManager(shard, budget, block_size)
        self.cost: BlockTableCost = block_table_cost(library)
        self.block_size = block_size

    def telemetry_sample(self) -> Dict[str, float]:
        total = self.blocks.num_blocks
        free = self.blocks.free_blocks
        return {
            "kv_pages_used": float(total - free),
            "kv_pages_free": float(free),
            "kv_pool_usage": (total - free) / total,
        }

    def can_admit(self, request: Request) -> bool:
        return self.blocks.can_allocate(request.resident_tokens_needed)

    def admit(self, request: Request) -> None:
        # vLLM allocates the prompt's blocks at scheduling time, so
        # admission consumes pool capacity immediately (a swapped-in
        # request needs its whole restored context instead).
        self.blocks.allocate(
            request.request_id, request.resident_tokens_needed
        )
        request.memory_handle = 0  # blocks are keyed by request_id

    def prepare_iteration(self, batch: Sequence[Request]) -> bool:
        # Grow each participating request's block list for the coming
        # iteration (decode: one more token; preempted-and-readmitted
        # prefills may also need growth).
        for request in batch:
            target = (
                request.prompt_len
                if request.needs_prefill
                else request.context_len + 1
            )
            allocation = self.blocks.allocation(request.request_id)
            needed = self.blocks.blocks_needed(target) - allocation.num_blocks
            if needed > self.blocks.free_blocks:
                return False
            if target > allocation.context_len:
                self.blocks.extend(request.request_id, target)
        return True

    def release(self, request: Request) -> None:
        self.blocks.free(request.request_id)
        request.memory_handle = None

    def framework_overhead(self, running: Sequence[Request]) -> float:
        block_counts = [
            self.blocks.allocation(request.request_id).num_blocks
            for request in running
        ]
        return self.cost.prepare_seconds(block_counts)

    def append_overhead(self, new_tokens: int) -> float:
        n_tensors = 2 * self.blocks.shard.n_layers
        return self.cost.append_seconds(new_tokens, self.block_size, n_tensors)

    def decode_fast_path(
        self, batch: Sequence[Request]
    ) -> Optional[DecodeFastPath]:
        """A stretch bounded by the free-block pool.

        The horizon is the largest K for which every request's block
        growth through K more tokens fits in the free pool — guaranteeing
        no ``prepare_iteration`` failure (and therefore no preemption)
        anywhere in the stretch. Growth *within* the stretch is fine; the
        plan replays its Block-Table cost consequences exactly.
        """
        blocks = self.blocks
        contexts: List[int] = []
        base_counts: List[int] = []
        for request in batch:
            contexts.append(request.context_len)
            base_counts.append(
                blocks.allocation(request.request_id).num_blocks
            )

        free = blocks.free_blocks
        block_size = blocks.block_size

        def new_blocks(extra_tokens: int) -> int:
            total = 0
            for context, count in zip(contexts, base_counts):
                total += blocks.blocks_needed(context + extra_tokens) - count
            return total

        # Largest K with new_blocks(K) <= free (monotone in K). Each
        # request wastes less than one block of slack, so K is bounded
        # by free blocks' tokens spread across the batch plus one block.
        high = free * block_size // max(len(batch), 1) + block_size + 1
        if new_blocks(high) <= free:
            horizon = high
        else:
            low = 0  # new_blocks(0) == 0
            while high - low > 1:
                mid = (low + high) // 2
                if new_blocks(mid) <= free:
                    low = mid
                else:
                    high = mid
            horizon = low
        if horizon < 2:
            return None
        return _PagedDecodePlan(self, batch, horizon)


# ----------------------------------------------------------------------
class UvmMemory(MemoryBackend):
    """cudaMallocManaged-backed KV cache (the S8.1 strawman).

    Contiguous virtual layout (non-paged kernels work), but physical
    pages materialize on touch and can never be partially freed, so
    committed memory ratchets up with workload churn. Included to
    demonstrate why the paper rejects stock unified memory and instead
    extends the driver.
    """

    layout = KvLayout.CONTIGUOUS

    def __init__(self, device: Device, shard, max_batch_size: int) -> None:
        self.shard = shard
        self.region = UvmKvRegion(
            pool=device.pool,
            max_batch_size=max_batch_size,
            n_tensors=2 * shard.n_layers,
            bytes_per_token_per_tensor=shard.k_bytes_per_token_per_layer,
        )
        self._clock = device.clock

    def can_admit(self, request: Request) -> bool:
        if request.resident_tokens_needed > self.shard.max_context:
            return False
        candidates = [s for s in self.region.slots if not s.active]
        if not candidates:
            return False
        best = max(candidates, key=lambda s: s.touched_rows)
        return self.region.can_touch(
            best.slot_id, request.resident_tokens_needed
        )

    def admit(self, request: Request) -> None:
        request.memory_handle = self.region.acquire_slot()

    def prepare_iteration(self, batch: Sequence[Request]) -> bool:
        for request in batch:
            if request.memory_handle is None:
                raise SchedulingError(f"{request.request_id} has no slot")
            target = (
                request.prompt_len
                if request.needs_prefill
                else request.context_len + 1
            )
            target = min(target, self.shard.max_context)
            if not self.region.can_touch(request.memory_handle, target):
                return False
        for request in batch:
            target = (
                request.prompt_len
                if request.needs_prefill
                else request.context_len + 1
            )
            target = min(target, self.shard.max_context)
            # Page faults land on the critical path: no background
            # thread, no overlap (S8.1 / S6 contrasts).
            self._clock.advance(
                self.region.touch(request.memory_handle, target)
            )
        return True

    def release(self, request: Request) -> None:
        if request.memory_handle is not None:
            # Returns 0 bytes: no partial freeing in unified memory.
            self.region.release_slot(request.memory_handle)
            request.memory_handle = None

    def decode_fast_path(
        self, batch: Sequence[Request]
    ) -> Optional[DecodeFastPath]:
        """A stretch bounded by the next page fault.

        UVM takes faults synchronously on the critical path, so the
        horizon ends where the first slot's touched pages run out —
        whether the fault would succeed (latency the slow path must
        charge) or oversubscribe (the abort the slow path must raise).
        Inside the horizon nothing happens at all: pages already touched
        by the slot fault-free.
        """
        region = self.region
        slots: List[Tuple[UvmSlot, int]] = []
        horizon = UNBOUNDED_HORIZON
        for request in batch:
            if request.memory_handle is None:
                return None
            slot = region.slots[request.memory_handle]
            context = request.context_len
            fault_free = slot.touched_rows * region.tokens_per_row - context
            if fault_free < 1:
                return None
            slots.append((slot, context))
            if fault_free < horizon:
                horizon = fault_free

        def commit(executed: int) -> None:
            for slot, c0 in slots:
                slot.context_len = c0 + executed

        return SteadyDecodeFastPath(horizon, commit=commit)

    @property
    def committed_bytes(self) -> int:
        """Physical bytes this backend has permanently materialized."""
        return self.region.committed_bytes

    def telemetry_sample(self) -> Dict[str, float]:
        return {"kv_committed_bytes": float(self.committed_bytes)}


# ----------------------------------------------------------------------
class StaticMemory(MemoryBackend):
    """Orca/FasterTransformer-style max-context pre-reservation."""

    layout = KvLayout.CONTIGUOUS

    def __init__(self, device: Device, shard, max_batch_size: int) -> None:
        slot_bytes = shard.max_context * shard.kv_bytes_per_token
        affordable = device.kv_budget // slot_bytes
        self.max_slots = min(max_batch_size, affordable)
        if self.max_slots <= 0:
            raise ConfigError(
                "device cannot hold even one max-context KV slot "
                f"({slot_bytes} bytes each)"
            )
        self.shard = shard
        # The whole region is committed up front, touched or not.
        self._buffer = device.caching_allocator.malloc(
            self.max_slots * slot_bytes
        )
        self._free_slots = list(range(self.max_slots - 1, -1, -1))
        self._owners: Dict[str, int] = {}

    def can_admit(self, request: Request) -> bool:
        return bool(self._free_slots)

    def admit(self, request: Request) -> None:
        if not self._free_slots:
            raise SchedulingError("no static KV slots free")
        slot = self._free_slots.pop()
        self._owners[request.request_id] = slot
        request.memory_handle = slot

    def prepare_iteration(self, running: Sequence[Request]) -> bool:
        return True  # every slot is fully pre-committed

    def decode_fast_path(
        self, batch: Sequence[Request]
    ) -> Optional[DecodeFastPath]:
        """Unbounded: every slot is a max-context pre-reservation, so a
        decode stretch can never allocate, preempt, or touch state."""
        return SteadyDecodeFastPath(UNBOUNDED_HORIZON)

    def release(self, request: Request) -> None:
        slot = self._owners.pop(request.request_id, None)
        if slot is None:
            raise SchedulingError(f"{request.request_id} holds no slot")
        self._free_slots.append(slot)
        request.memory_handle = None

    @property
    def committed_bytes(self) -> int:
        """Bytes committed regardless of use (the fragmentation source)."""
        return self._buffer.committed

    def telemetry_sample(self) -> Dict[str, float]:
        used = self.max_slots - len(self._free_slots)
        return {
            "kv_slots_used": float(used),
            "kv_slots_free": float(len(self._free_slots)),
            "kv_committed_bytes": float(self.committed_bytes),
        }
