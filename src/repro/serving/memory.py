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
    """Replays vAttention's background allocator over a decode stretch.

    A steady decode iteration leaves ``step()`` nothing to do — every
    row is pre-mapped — but ``on_iteration_end`` still runs every
    iteration: predicted-growth mappings at page-group crossings, eager
    allocation for the next reqId, threshold reclamation, and the
    background thread consuming the compute window. This plan replays
    exactly those effects through the manager's own primitives, at a
    fraction of the full loop's cost:

    * crossings are *scheduled* (integer arithmetic finds the next one;
      iterations in between skip the per-slot scan entirely);
    * eager allocation reuses the inactive-slot set, which cannot
      change mid-stretch (no admissions, retirements or preemptions),
      so its no-op case is a couple of comparisons;
    * threshold reclamation is invoked (with slot contexts synced)
      only when the free-row fraction is actually below the threshold —
      the method's own first early-exit;
    * the worker's window consumption runs only while work is queued.

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
        slots: List[Tuple[RequestSlot, int]],
        horizon: int,
        overlap: bool,
    ) -> None:
        self.manager = manager
        config = manager.config
        #: (slot, entry context) pairs in reqId order — the order
        #: ``on_iteration_end`` walks ``manager.slots``.
        self._slots = slots
        self.horizon = horizon
        self._overlap = overlap
        self._eager = config.eager_allocation
        self._deferred = config.deferred_reclamation
        self.has_hooks = overlap or self._eager or self._deferred
        self._eager_page_groups = config.eager_page_groups
        self._minimum_free = manager._minimum_free_rows
        #: Inactive slots, fixed for the stretch: activation changes
        #: only at admission/retirement/preemption, none of which can
        #: occur inside a steady decode stretch. Their ``last_used``
        #: ordering is equally frozen (only alloc/free/step touch it),
        #: so the reclamation victim order is computed once.
        self._inactive = [s for s in manager.slots if not s.active]
        #: Reclamation victim order, sorted lazily on first use: most
        #: plans are built only to bound a stretch (oracle preps, view
        #: rebuilds) and never reach a reclamation hook.
        self._victims: Optional[List[RequestSlot]] = None
        #: Cached eager-allocation target. Its key can only *grow*
        #: between hook iterations (eager maps rows into it) — a rescan
        #: is needed only after reclamation drains rows from it.
        self._eager_target: Optional[RequestSlot] = None
        self._eager_target_rows = -1
        self._tokens_per_row = config.tokens_per_page_group
        #: Stretch-iteration index of each slot's next background
        #: mapping, and rows currently mapped across the batch (the
        #: cheap detector for reclamation touching a batch slot).
        self._cross_at: List[float] = []
        self._next_cross: float = float("inf")
        self._batch_rows = sum(len(slot.rows) for slot, _ in slots)
        if overlap:
            self._compute_crossings(-1)

    # ------------------------------------------------------------------
    def _compute_crossings(self, after: int) -> None:
        """Recompute each slot's next crossing strictly after ``after``.

        A crossing at stretch-iteration ``i`` is the point where the
        background thread must map a new row for the *next* iteration:
        ``rows_for(c0 + i + 2) > mapped``, i.e. ``i = capacity - c0 - 1``
        with ``capacity = mapped_rows * tokens_per_row``.
        """
        self._cross_at = []
        tokens_per_row = self._tokens_per_row
        for slot, c0 in self._slots:
            cross = len(slot.rows) * tokens_per_row - c0 - 1
            self._cross_at.append(cross if cross > after else float("-inf"))
        self._next_cross = min(self._cross_at, default=float("inf"))

    def _sync_contexts(self, iteration: int) -> None:
        """Set batch slots to the iteration's end-of-step contexts —
        what the slow path's ``step()`` would have recorded before its
        ``on_iteration_end`` ran."""
        for slot, c0 in self._slots:
            slot.context_len = c0 + iteration + 1

    def on_iteration(self, iteration: int, window: float) -> bool:
        manager = self.manager
        keep_going = True
        crossed = iteration == self._next_cross
        if crossed:
            self._sync_contexts(iteration)
            for index, (slot, _c0) in enumerate(self._slots):
                if self._cross_at[index] != iteration:
                    continue
                needed = (
                    manager.rows_for_context(slot.context_len + 1)
                    - slot.mapped_rows
                )
                if needed > 0:
                    if needed <= manager.free_rows:
                        manager._map_rows(slot, needed, background=True)
                        self._batch_rows += needed
                    else:
                        # on_iteration_end would skip the mapping and the
                        # next step() would allocate synchronously.
                        keep_going = False
        if self._eager and self._inactive:
            # _eager_prepare_next over the stretch-stable inactive set
            # (same key, same unique winner: req_id breaks all ties).
            # Inactive keys only change through eager itself (target
            # grows — still the max) or reclamation (rows drain — the
            # max can only be dethroned if *it* was drained), so the
            # scan reruns only when the cached target lost rows.
            target = self._eager_target
            if target is None or len(target.rows) < self._eager_target_rows:
                best_key = None
                target = None
                for slot in self._inactive:
                    key = (len(slot.rows), -slot.req_id)
                    if best_key is None or key > best_key:
                        best_key = key
                        target = slot
                self._eager_target = target
            deficit = self._eager_page_groups - len(target.rows)
            deficit = min(deficit, len(manager._free_rows))
            if deficit > 0:
                manager._map_rows(
                    target, deficit, background=True, critical=False
                )
            self._eager_target_rows = len(target.rows)
        if self._deferred and len(manager._free_rows) < self._minimum_free:
            # Reclamation may trim *active* slots' excess, which reads
            # their contexts — sync first, then let the manager do
            # exactly what the slow path would.
            if not crossed:
                self._sync_contexts(iteration)
            victims = self._victims
            if victims is None:
                victims = self._victims = sorted(
                    self._inactive, key=lambda s: s.last_used
                )
            manager._maintain_free_threshold(victims)
            batch_rows = sum(len(slot.rows) for slot, _ in self._slots)
            if batch_rows != self._batch_rows:
                self._batch_rows = batch_rows
                if self._overlap:
                    # A batch slot lost rows (lookahead trimmed):
                    # replan crossings; if one is already due, the
                    # next step() would allocate synchronously.
                    crossed = True
                else:
                    # Without overlapped allocation the horizon was
                    # derived from the entry-time row coverage, which
                    # just shrank — stop before it overruns.
                    keep_going = False
        if crossed:
            self._compute_crossings(iteration)
            if self._next_cross <= iteration:
                keep_going = False
        if self._overlap:
            worker = manager.background
            if worker.critical_pending or worker.opportunistic_pending:
                worker.run_for(window)
                if worker.critical_pending > 0.0:
                    # The compute window did not cover the predicted
                    # mappings; the next step() would flush them onto
                    # the critical path — no longer steady.
                    keep_going = False
        return keep_going

    def quiescent_until(self, iteration: int, n: int) -> int:
        """Provable no-op hook span: no crossing due, eager converged,
        free pool above the reclamation threshold, worker drained.

        Between no-op hooks nothing touches the manager (crossings are
        the only batch-slot growth, eager the only inactive-slot growth,
        reclamation the only drain, and the worker the only window
        consumer — all quiet here), so the conditions checked once hold
        across the whole span, up to the next scheduled crossing.
        """
        if iteration >= self._next_cross:
            return iteration  # a crossing is due: run the hook
        manager = self.manager
        if self._eager and self._inactive:
            target = self._eager_target
            if (
                target is None
                or len(target.rows) < self._eager_target_rows
                or (
                    len(target.rows) < self._eager_page_groups
                    and manager._free_rows
                )
            ):
                return iteration  # eager would rescan or map
        if self._deferred and len(manager._free_rows) < self._minimum_free:
            return iteration  # reclamation would run
        if self._overlap:
            worker = manager.background
            if worker.critical_pending or worker.opportunistic_pending:
                return iteration  # the worker still consumes windows
        if self._next_cross >= n:
            return n
        return int(self._next_cross)

    def commit(self, executed: int, last_step_now: float) -> None:
        for slot, c0 in self._slots:
            slot.context_len = c0 + executed
            slot.last_used = last_step_now
        stats = self.manager.stats
        stats.steps += executed
        stats.last_step_sync_seconds = 0.0


class VAttentionMemory(MemoryBackend):
    """vAttention-backed KV cache (non-paged kernels)."""

    layout = KvLayout.CONTIGUOUS

    def __init__(self, device: Device, config: VAttentionConfig) -> None:
        self.config = config
        self.manager = VAttention(device, config)
        self._seq_lens: List[int] = [0] * config.max_batch_size
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
        for i in range(len(self._seq_lens)):
            self._seq_lens[i] = 0
        for request in batch:
            if request.memory_handle is None:
                raise SchedulingError(f"{request.request_id} has no reqId")
            # Prefill must back the whole prompt; decode grows by one.
            target = (
                request.prompt_len
                if request.needs_prefill
                else request.context_len + 1
            )
            self._seq_lens[request.memory_handle] = min(
                target, self.config.shard.max_context
            )
        if self.manager.step(self._seq_lens) != 0:
            return False
        for request in batch:
            self._pending_rows.pop(request.request_id, None)
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
        memory side — page-group crossings, eager allocation, threshold
        reclamation and the background thread are replayed exactly by
        the plan's hooks; without overlap it ends where the first
        slot's mapped rows run out (the next ``step()`` would allocate
        on the critical path, which the per-iteration loop must
        account).
        """
        manager = self.manager
        if manager.background.critical_pending > 0.0:
            return None
        tokens_per_row = manager.config.tokens_per_page_group
        slots: List[Tuple[RequestSlot, int]] = []
        for request in batch:
            if request.memory_handle is None:
                return None
            if request.request_id in self._pending_rows:
                # Admitted but never stepped (a swap-in): the first
                # prepare must clear the admission promise.
                return None
            slot = manager.slots[request.memory_handle]
            context = request.context_len
            if slot.mapped_rows * tokens_per_row < context + 1:
                return None  # the very next step would map synchronously
            slots.append((slot, context))
        # on_iteration_end walks manager.slots in reqId order; replaying
        # crossings in the same order keeps free-row contention exact.
        slots.sort(key=lambda pair: pair[0].req_id)
        overlap = manager.config.overlap_allocation
        if overlap:
            horizon = UNBOUNDED_HORIZON
        else:
            horizon = min(
                slot.mapped_rows * tokens_per_row - c0 for slot, c0 in slots
            )
        return _VattentionDecodePlan(manager, slots, horizon, overlap)

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
        #: Stretch-iteration at which each request grows its next block:
        #: the first i with target c0 + i + 1 > counts * block_size.
        self._grow_at: List[int] = [
            max(0, count * self._block_size - c0)
            for count, (_, c0) in zip(self._counts, self._requests)
        ]
        self._next_grow = min(self._grow_at, default=UNBOUNDED_HORIZON)
        #: The cost only changes when a block grows, so the (bit-exact,
        #: same-function) recomputation runs per growth event, not per
        #: iteration.
        self._overhead = self._cost.prepare_seconds(self._counts)

    def overhead_at(self, iteration: int) -> float:
        if iteration == self._next_grow:
            block_size = self._block_size
            counts = self._counts
            grow_at = self._grow_at
            for index, (_, c0) in enumerate(self._requests):
                if grow_at[index] == iteration:
                    counts[index] += 1
                    grow_at[index] = counts[index] * block_size - c0
            self._next_grow = min(grow_at)
            self._overhead = self._cost.prepare_seconds(counts)
        return self._overhead

    def commit(self, executed: int, last_step_now: float) -> None:
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
        per_token = (
            shard.kv_heads_per_worker * shard.head_dim * shard.dtype_bytes
        )
        self.region = UvmKvRegion(
            pool=device.pool,
            max_batch_size=max_batch_size,
            n_tensors=2 * shard.n_layers,
            bytes_per_token_per_tensor=per_token,
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

        def commit(executed: int, last_step_now: float) -> None:
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
