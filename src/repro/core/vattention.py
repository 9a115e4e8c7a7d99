"""The vAttention memory manager (paper Table 4 / Algorithm 1 / S5-S6).

The manager exposes the paper's four-call API to a serving framework:

* :meth:`VAttention.alloc_reqid` — claim a request slot,
* :meth:`VAttention.free_reqid` — release it,
* :meth:`VAttention.step` — ensure every active request's KV sub-tensors
  are physically backed up to its current context length,
* plus :meth:`VAttention.on_iteration_end`, the hook through which the
  background allocation thread observes compute windows (S6.1.1).

Layout model
------------
At initialization the manager reserves ``n_tensors`` contiguous virtual
buffers (2N per worker, or 2 with tensor slicing), each of ``B x S``
bytes; request ``reqId`` owns the sub-tensor ``[reqId*S, (reqId+1)*S)``
of every buffer (S5.1). Because all tensors of a request grow in
lock-step, physical memory is managed in *rows*: one row = the same
page-group index in every tensor (``n_tensors`` page-groups, allocated
and mapped together). All latency accounting is per page-group API call,
so e.g. extending one request by one row for Yi-34B costs 120 mapping
calls, ~5ms synchronous — the paper's S6.1 example.

Physical page-groups are pre-created at initialization (the paper
pre-allocates physical pages at startup and only maps them at runtime),
so runtime cost is mapping (``cuMemMap``+``cuMemSetAccess`` at 2MB,
``vMemMap`` for small page-groups).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import AllocationFailed, ConfigError, SchedulingError
from ..gpu.device import Device
from ..gpu.phys import PhysicalHandle
from ..gpu.virtual import Reservation
from ..gpu.vmm import api_latency
from ..units import MB
from .background import BackgroundWorker
from .config import VAttentionConfig
from .sharing import PrefixShareResult


@dataclass
class RequestSlot:
    """State of one ``reqId``: its rows stay attached while inactive
    (deferred reclamation) so the next request can reuse them."""

    req_id: int
    active: bool = False
    context_len: int = 0
    rows: List[PhysicalHandle] = field(default_factory=list)
    #: When the slot was last freed: reclamation drains inactive slots
    #: least recently used first.
    last_used: float = 0.0
    #: Leading rows aliased from another request's prefix (S8.1 dedup).
    shared_rows: int = 0
    #: The slot will not grow (a prefix-cache retained slot): the
    #: background thread must not pre-map decode-lookahead rows for it.
    frozen: bool = False

    @property
    def mapped_rows(self) -> int:
        """Page-group rows currently mapped into this slot."""
        return len(self.rows)


@dataclass
class VAttentionStats:
    """Counters for the ablation experiments."""

    map_calls: int = 0
    unmap_calls: int = 0
    sync_alloc_seconds: float = 0.0
    last_step_sync_seconds: float = 0.0
    steps: int = 0
    step_failures: int = 0
    reqids_reused_with_memory: int = 0
    rows_mapped: int = 0
    rows_unmapped: int = 0
    prefix_shares: int = 0
    rows_aliased: int = 0
    copy_seconds: float = 0.0
    #: Slots examined by the manager's per-iteration queries (admission,
    #: reqId choice, lookahead, eager allocation, reclamation). Host
    #: work, not simulated state: fast-forwarded stretches skip most
    #: queries, so it stays out of ``repr`` and ``==``.
    slots_visited: int = field(default=0, repr=False, compare=False)
    #: Slot contexts written by :meth:`VAttention.record_contexts`
    #: (``step``, ``share_prefix``, the decode plan's hooks and commits).
    #: Host work, like ``slots_visited``.
    contexts_recorded: int = field(default=0, repr=False, compare=False)


_REQ_ID = attrgetter("req_id")
_LAST_USED = attrgetter("last_used")


def _insert(slots: List[RequestSlot], slot: RequestSlot) -> None:
    """Insert ``slot`` into a reqId-ordered list unless it is there."""
    index = bisect_left(slots, slot.req_id, key=_REQ_ID)
    if index == len(slots) or slots[index] is not slot:
        slots.insert(index, slot)


def _discard(slots: List[RequestSlot], slot: RequestSlot) -> None:
    """Remove ``slot`` from a reqId-ordered list if it is there.

    Found by reqId: slots are dataclasses, so ``list.remove`` would
    compare every field.
    """
    index = bisect_left(slots, slot.req_id, key=_REQ_ID)
    if index < len(slots) and slots[index] is slot:
        del slots[index]


class VAttention:
    """One worker's vAttention instance.

    Slot-state index
    ----------------
    Admission runs :attr:`available_rows` and :meth:`has_free_reqid`
    per queued request, and the background thread (S6.1) maps lookahead
    rows, picks an eager target and reclaims rows every iteration. So
    that none of these walks all ``max_batch_size`` slots, the manager
    indexes its slots by state, every list in reqId order:

    * ``_inactive`` — the free reqIds;
    * ``_holding`` and ``_inactive_rows`` — the inactive slots that hold
      rows, and how many rows they hold in total. Only these slots are
      reclamation victims, and the eager-allocation and reuse target is
      one of them (the lowest free reqId when there are none);
    * ``_excess`` — the *excess candidates*: active slots that may hold
      rows beyond ``rows_for_context(context_len + 1)``;
    * ``_lookahead`` — with overlapped allocation, the active, unfrozen
      slots whose context may have reached their mapped capacity
      (``context_len >= len(rows) * tokens_per_row``): the only slots
      the lookahead pass can map rows for.

    Only :meth:`alloc_reqid`, :meth:`free_reqid`, :meth:`_map_rows`,
    :meth:`_detach_row`, :meth:`_unmap_rows` and :meth:`shutdown` flip
    ``active`` or change an inactive slot's rows, so only they update
    the first three lists and the count (``step`` and ``share_prefix``
    also enter excess candidates, see below).

    A slot becomes an excess candidate at :meth:`alloc_reqid`, when it
    inherits more cached rows than its first token needs. While a slot
    is active its context only grows, and nothing maps rows into it
    past that need: ``step`` maps up to ``rows_for_context(context)``,
    the lookahead pass up to ``rows_for_context(context + 1)``,
    ``share_prefix`` drops inherited rows and backs only the prefix, and
    :meth:`trim_slot` unmaps down to ``rows_for_context(keep_tokens)``
    before it sets the context. Every other active slot therefore holds
    no excess between calls, and once a candidate's excess reaches 0 it
    stays there: the walks drop it for good. Inside ``step`` and
    ``share_prefix`` the rows are mapped before the context is
    recorded, and a reclamation there may trim the slots being grown;
    when the free rows cannot cover the mapping, those two enter them
    as candidates first. :attr:`excess_active_rows` and
    :attr:`cached_rows` still scan every slot; they are the index's
    test oracle.

    ``step``, ``share_prefix`` and the decode plan record contexts
    through :meth:`record_contexts`, which enters the lookahead list.
    Reclamation only takes rows that a recorded context does not need,
    so only a recorded context can make a slot need a lookahead row.
    The lookahead pass drops the slots it serves and those that need
    nothing; :meth:`free_reqid` and :meth:`trim_slot` (which freezes)
    drop their slot. Of the active slots, :meth:`on_iteration_end`
    reads only the contexts of the lookahead list and of the excess
    candidates, so a caller that knows no other slot can join the list
    (the decode plan between page-group crossings) need record only
    the candidates' contexts before a pass.

    The background pass also keeps the eager target
    (:meth:`_next_reqid_slot` caches its answer) and whether the last
    reclamation pass ran below the minimum and unmapped nothing (the
    idle flag, cleared by :meth:`alloc_reqid`, :meth:`free_reqid`,
    :meth:`share_prefix` and :meth:`trim_slot`, the calls that can make
    rows reclaimable); :meth:`background_quiet` reads both.

    ``_aliased_rows`` counts the rows whose reference count exceeds 1
    (``share_prefix`` raises it, :meth:`_detach_row` and
    :meth:`_unmap_rows` lower it), so :meth:`free_reqid` walks a slot's
    rows for aliases only while prefix sharing has left some.
    """

    def __init__(self, device: Device, config: VAttentionConfig) -> None:
        self.device = device
        self.config = config
        self.clock = device.clock
        self.background = BackgroundWorker()
        self.stats = VAttentionStats()

        pg = config.page_group_size
        # Runtime per-page-group mapping latency. Page-groups are
        # pre-created, so creation cost is paid at init, not here.
        self._map_pg_latency = api_latency("map", pg)
        if pg == 2 * MB:
            self._map_pg_latency += api_latency("set_access", pg)
            self._unmap_pg_latency = api_latency("unmap", pg)
        else:
            # vMemRelease combines unmap+release; unmapping into the
            # handle cache costs the release-path latency.
            self._unmap_pg_latency = api_latency("release", pg)
        self._map_row_latency = config.n_tensors * self._map_pg_latency
        self._unmap_row_latency = config.n_tensors * self._unmap_pg_latency
        #: Cached config-derived constants: the config recomputes its
        #: layout properties on every access, and these sit on the
        #: per-iteration hot path (demand computation, maintenance).
        self._tokens_per_row = config.tokens_per_page_group
        self._n_tensors = config.n_tensors
        self._overlap = config.overlap_allocation
        self._minimum_free_rows: int = 0  # set after total_rows below

        # --- Virtual memory: reserve the 2N (or 2) buffers for the
        # lifetime of the serving application (S5.3.1).
        self.buffers: List[Reservation] = []
        reserve_latency = api_latency("reserve", pg) * config.n_tensors
        self.clock.advance(reserve_latency)
        for _ in range(config.n_tensors):
            self.buffers.append(
                device.va_space.reserve(config.buffer_bytes, alignment=pg)
            )

        # --- Physical memory: pre-create page-group rows.
        max_useful_rows = config.max_batch_size * config.rows_per_full_request
        fits = device.pool.available // config.row_bytes
        self.total_rows = min(fits, max_useful_rows)
        if self.total_rows <= 0:
            raise ConfigError(
                "KV budget cannot hold a single page-group row "
                f"(row={config.row_bytes} bytes, "
                f"available={device.pool.available})"
            )
        self._minimum_free_rows = int(
            self.total_rows * config.reclamation_threshold
        )
        create_latency = (
            api_latency("create", pg) * config.n_tensors * self.total_rows
        )
        self.clock.advance(create_latency)
        self._free_rows: List[PhysicalHandle] = [
            device.pool.allocate(config.row_bytes) for _ in range(self.total_rows)
        ]
        #: Reference counts of rows mapped into slots (>1 = aliased),
        #: and how many rows are aliased.
        self._row_refs: Dict[int, int] = {}
        self._aliased_rows = 0

        self.slots: List[RequestSlot] = [
            RequestSlot(req_id=i) for i in range(config.max_batch_size)
        ]
        self._inactive: List[RequestSlot] = list(self.slots)
        self._holding: List[RequestSlot] = []
        self._excess: List[RequestSlot] = []
        self._lookahead: List[RequestSlot] = []
        self._inactive_rows = 0
        #: The cached answer of :meth:`_next_reqid_slot` (None: no
        #: answer cached) and its row count then.
        self._target: Optional[RequestSlot] = None
        self._target_rows = 0
        #: Whether the last reclamation pass ran below the minimum and
        #: unmapped nothing.
        self._reclaim_idle = False
        self._shutdown = False

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    @property
    def free_rows(self) -> int:
        """Rows neither mapped to any slot nor pending."""
        return len(self._free_rows)

    @property
    def cached_rows(self) -> int:
        """Rows mapped into *inactive* slots (deferred reclamation cache)."""
        return sum(len(s.rows) for s in self.slots if not s.active)

    @property
    def excess_active_rows(self) -> int:
        """Rows mapped into active slots beyond their near-term need.

        A request that inherited a longer predecessor's pages (deferred
        reclamation) may hold rows past its context; those are provably
        unused and reclaimable under pressure.
        """
        total = 0
        tokens_per_row = self._tokens_per_row
        for slot in self.slots:
            if slot.active:
                excess = len(slot.rows) + (
                    -(slot.context_len + 1) // tokens_per_row
                )
                if excess > 0:
                    total += excess
        return total

    @property
    def available_rows(self) -> int:
        """Rows obtainable without disturbing any request's live KV state.

        Free rows, plus inactive slots' cached rows, plus active slots'
        excess beyond near-term need. This backs every admission query
        and ``step``'s feasibility check, so it reads the slot index: a
        running count of cached rows, and a walk over the excess
        candidates alone (spent candidates leave the index).
        """
        total = len(self._free_rows) + self._inactive_rows
        candidates = self._excess
        if not candidates:
            return total
        self.stats.slots_visited += len(candidates)
        tokens_per_row = self._tokens_per_row
        kept = []
        for slot in candidates:
            excess = len(slot.rows) + (
                -(slot.context_len + 1) // tokens_per_row
            )
            if excess > 0:
                total += excess
                kept.append(slot)
        if len(kept) != len(candidates):
            self._excess = kept
        return total

    @property
    def excess_candidates(self) -> Sequence[RequestSlot]:
        """The excess candidates, in reqId order (read-only): the only
        active slots reclamation can trim (see the class docstring).
        Between the calls that enter a slot (:meth:`alloc_reqid`,
        ``step`` and ``share_prefix``) the list only shrinks."""
        return self._excess

    def rows_for_context(self, context_len: int) -> int:
        """Rows needed to back ``context_len`` tokens.

        Same math as :meth:`VAttentionConfig.rows_for_context`, against
        the cached tokens-per-row constant (this runs per request per
        iteration).
        """
        if context_len < 0:
            raise ConfigError(f"negative context length {context_len}")
        return -(-context_len // self._tokens_per_row)

    # ------------------------------------------------------------------
    # Admission queries (used by the serving scheduler)
    # ------------------------------------------------------------------
    def has_free_reqid(self) -> bool:
        """Whether any slot is inactive."""
        return bool(self._inactive)

    def can_allocate(self, prompt_len: int) -> bool:
        """Whether a new request with ``prompt_len`` tokens is admissible.

        The candidate slot's own cached rows satisfy part of the demand;
        the rest must come from free rows or other inactive slots.
        """
        if prompt_len > self.config.shard.max_context:
            return False
        if not self.has_free_reqid():
            return False
        return self.rows_for_context(prompt_len) <= self.available_rows

    # ------------------------------------------------------------------
    # Table 4 API
    # ------------------------------------------------------------------
    def alloc_reqid(self) -> int:
        """Claim an unused ``reqId`` (S5.3.2).

        With deferred reclamation the inactive slot with the most cached
        rows is preferred, so a new request inherits a completed
        request's physical pages (Figure 5(e)); see
        :meth:`_next_reqid_slot`. A slot that inherits more rows than
        its first token needs becomes an excess candidate.
        """
        self._check_live()
        slot = self._next_reqid_slot()
        if slot is None:
            raise SchedulingError(
                f"all {self.config.max_batch_size} reqIds are active"
            )
        _discard(self._inactive, slot)
        held = len(slot.rows)
        if held:
            _discard(self._holding, slot)
            self._inactive_rows -= held
            if held > 1:  # beyond rows_for_context(0 + 1)
                _insert(self._excess, slot)
        self._target = None
        self._reclaim_idle = False
        slot.active = True
        slot.context_len = 0
        slot.frozen = False
        if slot.mapped_rows:
            self.stats.reqids_reused_with_memory += 1
        if self.config.eager_allocation:
            self._eager_prepare_next()
        return slot.req_id

    def free_reqid(self, req_id: int) -> None:
        """Release a ``reqId`` (S5.3.4).

        With deferred reclamation the slot keeps its mapped rows for the
        next arrival; otherwise they are unmapped synchronously.
        """
        self._check_live()
        slot = self._slot(req_id)
        if not slot.active:
            raise SchedulingError(f"reqId {req_id} is not active")
        _discard(self._excess, slot)
        _discard(self._lookahead, slot)
        _insert(self._inactive, slot)
        self._target = None
        self._reclaim_idle = False
        if slot.rows:
            _insert(self._holding, slot)
            self._inactive_rows += len(slot.rows)
        slot.active = False
        slot.context_len = 0
        slot.frozen = False
        slot.last_used = self.clock.now
        if not self.config.deferred_reclamation or self._holds_aliases(slot):
            # Deferred reclamation keeps rows mapped for the next
            # arrival — but never rows involved in prefix sharing: a
            # successor writing into them would corrupt the other
            # request's KV cache, so those are released immediately.
            self._unmap_rows(slot, slot.mapped_rows, background=False)
            slot.shared_rows = 0

    def share_prefix(
        self, src_req_id: int, dst_req_id: int, prefix_tokens: int
    ) -> PrefixShareResult:
        """De-duplicate a shared prompt prefix via page aliasing (S8.1).

        Maps the fully filled page-group rows of ``src``'s first
        ``prefix_tokens`` tokens into ``dst``'s sub-tensors — the two
        requests then read the same physical KV bytes through their own
        contiguous virtual views. The partial tail page-group (which
        ``dst`` will append into) is copied instead (copy-on-write
        boundary). Must be called on a fresh ``dst`` before its first
        ``step``; afterwards ``step`` only backs the non-prefix suffix.
        """
        self._check_live()
        src = self._slot(src_req_id)
        dst = self._slot(dst_req_id)
        if not src.active or not dst.active:
            raise SchedulingError("both reqIds must be active to share")
        if src_req_id == dst_req_id:
            raise SchedulingError("cannot share a prefix with itself")
        if prefix_tokens <= 0 or prefix_tokens > src.context_len:
            raise SchedulingError(
                f"prefix of {prefix_tokens} tokens not resident in "
                f"reqId {src_req_id} (context {src.context_len})"
            )
        if dst.context_len != 0:
            raise SchedulingError(
                f"reqId {dst_req_id} already has context; share before step"
            )
        self._reclaim_idle = False
        # Drop any inherited cache so row indices align with the prefix.
        if dst.mapped_rows:
            self._unmap_rows(dst, dst.mapped_rows, background=False)

        tokens_per_row = self.config.tokens_per_page_group
        full_rows = prefix_tokens // tokens_per_row
        latency = 0.0
        for index in range(full_rows):
            handle = src.rows[index]
            dst.rows.append(handle)
            refs = self._row_refs.get(handle.handle_id, 1)
            if refs == 1:
                self._aliased_rows += 1
            self._row_refs[handle.handle_id] = refs + 1
            latency += self._map_row_latency
            self.stats.map_calls += self.config.n_tensors
            self.stats.rows_aliased += 1
        copied_tokens = prefix_tokens - full_rows * tokens_per_row
        copy_seconds = 0.0
        if copied_tokens:
            # dst records its context only below: see step().
            if not self._free_rows:
                _insert(self._excess, dst)
            latency += self._map_rows(dst, 1, background=False, charge=False)
            copied_bytes = (
                copied_tokens
                * self.config.bytes_per_token_per_tensor
                * self.config.n_tensors
            )
            # Device-to-device copy: read + write through HBM.
            copy_seconds = 2.0 * copied_bytes / self.device.spec.hbm_bandwidth
            self.stats.copy_seconds += copy_seconds
        dst.shared_rows = full_rows
        # The prefix KV is now resident in dst: recording it as context
        # keeps the reclamation paths honest — otherwise the aliased
        # rows look like an idle slot's reclaimable excess until the
        # next step() and could be stripped mid-iteration.
        self.record_contexts(((dst, prefix_tokens),))
        self.stats.prefix_shares += 1
        self._charge_sync(latency + copy_seconds)
        return PrefixShareResult(
            src_req_id=src_req_id,
            dst_req_id=dst_req_id,
            prefix_tokens=prefix_tokens,
            shared_rows=full_rows,
            copied_tokens=copied_tokens,
            saved_bytes=full_rows * self.config.row_bytes,
            latency_seconds=latency + copy_seconds,
        )

    def trim_slot(self, req_id: int, keep_tokens: int) -> None:
        """Shrink an active slot to its leading ``keep_tokens`` tokens.

        Rows above the kept prefix are unmapped off the critical path.
        The prefix cache uses this to retain only a finished request's
        shareable prompt rows instead of its whole final context; the
        slot is frozen so background allocation stops treating it as a
        decode candidate and pre-mapping lookahead rows it cannot use.
        """
        self._check_live()
        slot = self._slot(req_id)
        if not slot.active:
            raise SchedulingError(f"reqId {req_id} is not active")
        if not 0 <= keep_tokens <= slot.context_len:
            raise SchedulingError(
                f"reqId {req_id}: cannot trim to {keep_tokens} tokens "
                f"(context {slot.context_len})"
            )
        excess = slot.mapped_rows - self.rows_for_context(keep_tokens)
        if excess > 0:
            self._unmap_rows(slot, excess, background=True)
        _discard(self._lookahead, slot)
        self._reclaim_idle = False
        slot.context_len = keep_tokens
        slot.frozen = True

    def step(self, seq_lens: Sequence[int]) -> int:
        """Back every active request up to its context length (S5.3.3).

        ``seq_lens[reqId]`` is the request's current context length, 0
        for inactive reqIds. Returns 0 on success; -1 if physical memory
        is exhausted, in which case the framework should preempt
        (nothing is partially applied on failure beyond reclaimed cache).

        The paper's array form: it hands its nonzero entries, in reqId
        order, to :meth:`step_contexts`, which does the work.
        """
        if len(seq_lens) != self.config.max_batch_size:
            raise SchedulingError(
                f"seq_lens has {len(seq_lens)} entries, expected "
                f"{self.config.max_batch_size}"
            )
        return self.step_contexts(
            [(req_id, ctx) for req_id, ctx in enumerate(seq_lens) if ctx]
        )

    def step_contexts(self, contexts: Sequence[Tuple[int, int]]) -> int:
        """:meth:`step` over ``(reqId, context)`` pairs.

        ``contexts`` lists the iteration's requests in ascending reqId
        order, each with a positive context; an unlisted reqId is the
        array form's 0 entry. The serving backend calls this directly,
        so a step costs the requests in it, not ``max_batch_size``
        entries. Pairs out of order, a repeated or out-of-range reqId,
        or a context below 1 raise :class:`SchedulingError`.
        """
        self._check_live()
        self.stats.steps += 1
        sync_seconds = 0.0

        # Critical background work (mappings predicted for *this*
        # iteration) must complete before the first kernel is
        # dispatched; any residual spills onto the critical path.
        # Opportunistic work (eager allocation, reclamation) is not
        # forced — it continues in later compute windows.
        sync_seconds += self.background.flush_critical()

        # Compute and satisfy demand.
        slots = self.slots
        n_slots = len(slots)
        max_context = self.config.shard.max_context
        batch: List[tuple[RequestSlot, int]] = []
        demands: List[tuple[RequestSlot, int]] = []
        total_needed = 0
        previous = -1
        for req_id, ctx in contexts:
            if not previous < req_id < n_slots:
                raise SchedulingError(
                    f"step contexts: reqId {req_id} out of range or not "
                    f"above the previous reqId {previous}"
                )
            previous = req_id
            if ctx <= 0:
                raise SchedulingError(
                    f"step contexts: reqId {req_id} has context {ctx}"
                )
            slot = slots[req_id]
            if not slot.active:
                raise SchedulingError(
                    f"context {ctx} for reqId {req_id}, which is inactive"
                )
            if ctx > max_context:
                raise SchedulingError(
                    f"context {ctx} exceeds model maximum {max_context}"
                )
            if ctx < slot.context_len:
                raise SchedulingError(
                    f"reqId {req_id}: context cannot shrink "
                    f"({slot.context_len} -> {ctx})"
                )
            batch.append((slot, ctx))
            needed = self.rows_for_context(ctx) - slot.mapped_rows
            if needed > 0:
                demands.append((slot, needed))
                total_needed += needed

        if total_needed > self.available_rows:
            self.stats.step_failures += 1
            # Charge what was already forced synchronous.
            self._charge_sync(sync_seconds)
            return -1

        # Until the contexts are recorded below, a slot being grown
        # holds rows past its recorded context's need, so a reclamation
        # inside _map_rows (needed once the free rows run out) may trim
        # it, as a walk over every slot would.
        if total_needed > len(self._free_rows):
            for slot, _needed in demands:
                _insert(self._excess, slot)
        for slot, needed in demands:
            sync_seconds += self._map_rows(slot, needed, background=False,
                                           charge=False)
        self.record_contexts(batch)

        self._charge_sync(sync_seconds)
        self.stats.last_step_sync_seconds = sync_seconds
        return 0

    def record_contexts(
        self,
        contexts: Sequence[Tuple[RequestSlot, int]],
        offset: int = 0,
    ) -> None:
        """Record each active slot's context, ``context + offset`` for
        each ``(slot, context)`` pair, without mapping rows.

        With overlapped allocation, a slot whose context has reached its
        mapped capacity joins the lookahead list: the next
        :meth:`on_iteration_end` maps the row its next token needs. The
        decode plan records its entries, ``offset`` iterations past
        entry, with one call.
        """
        self.stats.contexts_recorded += len(contexts)
        overlap = self._overlap
        tokens_per_row = self._tokens_per_row
        for slot, context in contexts:
            context += offset
            slot.context_len = context
            if (
                overlap
                and not slot.frozen
                and context >= len(slot.rows) * tokens_per_row
            ):
                _insert(self._lookahead, slot)

    def on_iteration_end(self, iteration_seconds: float) -> None:
        """Observe one compute window; run the background thread (S6.1).

        The paper's background thread starts working when ``step`` of
        iteration *i* returns and runs concurrently with iteration *i*'s
        compute, preparing iteration *i+1*'s mappings. Equivalently in
        simulation: queue the predictable work (decode growth one token
        ahead, Observation-1, for the slots on the lookahead list), plus
        the opportunistic work (eager allocation, threshold
        reclamation), and then overlap the queue with the just-finished
        compute window.
        """
        self._check_live()
        if self._overlap:
            pending = self._lookahead
            if pending:
                self.stats.slots_visited += len(pending)
                free_rows = self._free_rows
                kept = []
                for slot in pending:
                    needed = (
                        self.rows_for_context(slot.context_len + 1)
                        - slot.mapped_rows
                    )
                    if needed > 0:
                        if needed <= len(free_rows):
                            self._map_rows(slot, needed, background=True)
                        else:
                            kept.append(slot)  # retried at the next pass
                self._lookahead = kept
        if self.config.eager_allocation:
            self._eager_prepare_next()
        if self.config.deferred_reclamation:
            self._maintain_free_threshold()
        if self._overlap:
            self.background.run_for(iteration_seconds)

    def background_quiet(self) -> bool:
        """Whether the next :meth:`on_iteration_end` would change nothing
        apart from mapping lookahead rows.

        True when eager allocation's target already holds its rows (or
        no row is free), reclamation is above its minimum (or its last
        pass was idle), and, with overlapped allocation, the worker has
        no queued work. An idle pass found no inactive slot holding rows
        and no active slot holding rows beyond its context plus one
        token of lookahead; only the calls that clear the flag can
        create such rows.
        """
        free = len(self._free_rows)
        if self.config.eager_allocation and free:
            target = self._next_reqid_slot()
            if (
                target is not None
                and len(target.rows) < self.config.eager_page_groups
            ):
                return False
        if (
            self.config.deferred_reclamation
            and free < self._minimum_free_rows
            and not self._reclaim_idle
        ):
            return False
        if self._overlap:
            worker = self.background
            if worker.critical_pending or worker.opportunistic_pending:
                return False
        return True

    # ------------------------------------------------------------------
    # Memory accounting (fragmentation experiments)
    # ------------------------------------------------------------------
    @property
    def mapped_bytes(self) -> int:
        """Virtually mapped bytes across KV tensors (active + cached).

        Aliased rows count once per mapping; see
        :attr:`physical_bytes_in_use` for unique physical memory.
        """
        rows = sum(s.mapped_rows for s in self.slots)
        return rows * self.config.row_bytes

    @property
    def physical_rows_in_use(self) -> int:
        """Unique physical rows currently mapped somewhere."""
        return self.total_rows - self.free_rows

    @property
    def physical_bytes_in_use(self) -> int:
        """Unique physical bytes currently mapped somewhere."""
        return self.physical_rows_in_use * self.config.row_bytes

    @property
    def dedup_saved_bytes(self) -> int:
        """Physical bytes saved by prefix sharing right now."""
        extra_refs = sum(count - 1 for count in self._row_refs.values())
        return extra_refs * self.config.row_bytes

    def _holds_aliases(self, slot: RequestSlot) -> bool:
        """Whether any of the slot's rows is shared with another slot.

        Without an aliased row anywhere (the count is 0 unless prefix
        sharing ran), no walk is needed.
        """
        if slot.shared_rows:
            return True
        if not self._aliased_rows:
            return False
        return any(
            self._row_refs.get(handle.handle_id, 1) > 1
            for handle in slot.rows
        )

    @property
    def used_bytes(self) -> int:
        """Bytes actually occupied by live KV entries."""
        per_token = self.config.bytes_per_token_per_tensor * self.config.n_tensors
        return sum(s.context_len for s in self.slots if s.active) * per_token

    @property
    def internal_fragmentation_bytes(self) -> int:
        """Mapped-but-unused bytes within *active* requests' rows."""
        per_token = self.config.bytes_per_token_per_tensor * self.config.n_tensors
        waste = 0
        for slot in self.slots:
            if slot.active:
                waste += (
                    slot.mapped_rows * self.config.row_bytes
                    - slot.context_len * per_token
                )
        return waste

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _slot(self, req_id: int) -> RequestSlot:
        if not 0 <= req_id < len(self.slots):
            raise SchedulingError(f"reqId {req_id} out of range")
        return self.slots[req_id]

    def _check_live(self) -> None:
        if self._shutdown:
            raise SchedulingError("vAttention instance has been shut down")

    def _charge_sync(self, seconds: float) -> None:
        if seconds > 0:
            self.stats.sync_alloc_seconds += seconds
            self.clock.advance(seconds)

    def _map_rows(
        self,
        slot: RequestSlot,
        count: int,
        background: bool,
        charge: bool = True,
        critical: bool = True,
    ) -> float:
        """Move ``count`` rows into ``slot``; returns sync latency incurred.

        Free rows are taken first; if they run out, rows are reclaimed
        from inactive slots (unmap cost included). State changes are
        immediate; latency goes to the background worker or (if
        ``charge``) to the clock — callers doing their own batching pass
        ``charge=False`` and advance the clock once.
        """
        latency = 0.0
        free_rows = self._free_rows
        rows = slot.rows
        row_refs = self._row_refs
        map_latency = self._map_row_latency
        stats = self.stats
        n_tensors = self._n_tensors
        inactive = not slot.active
        for _ in range(count):
            if not free_rows:
                latency += self._reclaim_one_row()
            handle = free_rows.pop()
            rows.append(handle)
            if inactive:
                # Counted per row, after any reclamation above: it may
                # drain this very slot (the LRU victim).
                self._inactive_rows += 1
                if len(rows) == 1:
                    _insert(self._holding, slot)
            row_refs[handle.handle_id] = 1
            latency += map_latency
            stats.map_calls += n_tensors
            stats.rows_mapped += 1
        if background:
            self.background.submit(latency, critical=critical)
            return 0.0
        if charge:
            self._charge_sync(latency)
        return latency

    def _detach_row(self, slot: RequestSlot) -> bool:
        """Unmap the slot's top row; True if its handle became free.

        Aliased rows (refcount > 1) only drop a reference — the physical
        page-group stays live for the other request(s) sharing it.
        """
        handle = slot.rows.pop()
        if not slot.active:
            self._inactive_rows -= 1
            if not slot.rows:
                _discard(self._holding, slot)
        if slot.shared_rows > len(slot.rows):
            slot.shared_rows = len(slot.rows)
        self.stats.unmap_calls += self._n_tensors
        self.stats.rows_unmapped += 1
        remaining = self._row_refs.get(handle.handle_id, 1) - 1
        if remaining <= 0:
            self._row_refs.pop(handle.handle_id, None)
            self._free_rows.append(handle)
            return True
        if remaining == 1:
            self._aliased_rows -= 1
        self._row_refs[handle.handle_id] = remaining
        return False

    def _unmap_rows(
        self, slot: RequestSlot, count: int, background: bool
    ) -> None:
        """Release ``count`` rows from ``slot`` (top-down).

        Inlines :meth:`_detach_row`'s per-row work (this is the
        reclamation hot loop); the latency still accumulates one row at
        a time, preserving the exact float sum the per-row path
        produced.
        """
        rows = slot.rows
        count = min(count, len(rows))
        latency = 0.0
        refs = self._row_refs
        free_rows = self._free_rows
        unmap_latency = self._unmap_row_latency
        for _ in range(count):
            handle = rows.pop()
            remaining = refs.get(handle.handle_id, 1) - 1
            if remaining <= 0:
                refs.pop(handle.handle_id, None)
                free_rows.append(handle)
            else:
                if remaining == 1:
                    self._aliased_rows -= 1
                refs[handle.handle_id] = remaining
            latency += unmap_latency
        if count and not slot.active:
            self._inactive_rows -= count
            if not rows:
                _discard(self._holding, slot)
        if slot.shared_rows > len(rows):
            slot.shared_rows = len(rows)
        self.stats.unmap_calls += self._n_tensors * count
        self.stats.rows_unmapped += count
        if background:
            self.background.submit(latency, critical=False)
        else:
            self._charge_sync(latency)

    def _reclaim_one_row(self) -> float:
        """Unmap rows until one physical row frees; returns the latency.

        Inactive slots are drained first (their pages back no live
        request); under further pressure, excess rows of active slots
        (beyond context + one lookahead row) are trimmed. Detaching an
        aliased row may not free a handle, so this loops until one does.
        """
        latency = 0.0
        while True:
            holding = self._holding
            if holding:
                # reqId order: least-recently-used ties break as a walk
                # over every slot would.
                self.stats.slots_visited += len(holding)
                victim = min(holding, key=_LAST_USED)
            else:
                victim = None
                visited = 0
                for slot in self._excess:
                    visited += 1
                    needed = self.rows_for_context(slot.context_len + 1)
                    if slot.mapped_rows > needed:
                        victim = slot
                        break
                self.stats.slots_visited += visited
            if victim is None:
                raise AllocationFailed("no free or reclaimable rows")
            freed = self._detach_row(victim)
            latency += self._unmap_row_latency
            if freed:
                return latency

    def _next_reqid_slot(self) -> Optional[RequestSlot]:
        """The slot :meth:`alloc_reqid` would claim next, or None.

        The inactive slot with the most cached rows, the lower reqId on
        a tie; the lowest inactive reqId when none holds rows. The key
        ``(rows, -req_id)`` is unique, so the walk order cannot change
        the winner.

        The answer is cached with its row count. Only eager allocation
        maps rows into an inactive slot, and only into this one, while
        reclamation only shrinks the others; so the answer stays the
        maximum until the free reqIds change (:meth:`alloc_reqid` and
        :meth:`free_reqid` drop the cache) or it holds fewer rows than
        it did (then this rescans).
        """
        target = self._target
        if target is not None and len(target.rows) >= self._target_rows:
            return target
        holding = self._holding
        if holding:
            self.stats.slots_visited += len(holding)
            target = max(holding, key=lambda s: (len(s.rows), -s.req_id))
        elif self._inactive:
            target = self._inactive[0]
        else:
            return None
        self._target = target
        self._target_rows = len(target.rows)
        return target

    def _eager_prepare_next(self) -> None:
        """Pre-map a few rows for the next reqId to be handed out (S6.1.2)."""
        target = self._next_reqid_slot()
        if target is None:
            return
        deficit = self.config.eager_page_groups - len(target.rows)
        deficit = min(deficit, len(self._free_rows))
        if deficit > 0:
            self._map_rows(target, deficit, background=True, critical=False)

    def _maintain_free_threshold(self) -> None:
        """Keep the free-row fraction above the reclamation threshold.

        Drains the inactive slots that hold rows, least recently used
        first (sorted from the reqId-ordered index, so ties break by
        reqId); if still short, trims the excess candidates' rows beyond
        context + lookahead, in reqId order. Records whether it ran
        below the minimum and unmapped nothing (see
        :meth:`background_quiet`).
        """
        shortfall = self._minimum_free_rows - len(self._free_rows)
        if shortfall <= 0:
            self._reclaim_idle = False
            return
        wanted = shortfall
        victims = sorted(self._holding, key=_LAST_USED)
        visited = len(victims)
        for victim in victims:
            if shortfall <= 0:
                break
            held = len(victim.rows)
            take = held if held < shortfall else shortfall
            self._unmap_rows(victim, take, background=True)
            shortfall -= take
        if shortfall > 0:
            # Still short: trim active slots' rows beyond context +
            # lookahead. Only excess candidates can hold any.
            for slot in self._excess:
                if shortfall <= 0:
                    break
                visited += 1
                needed = self.rows_for_context(slot.context_len + 1)
                excess = len(slot.rows) - needed
                if excess > 0:
                    take = min(excess, shortfall)
                    self._unmap_rows(slot, take, background=True)
                    shortfall -= take
        self.stats.slots_visited += visited
        self._reclaim_idle = shortfall == wanted

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Release all physical rows and virtual buffers."""
        if self._shutdown:
            return
        for slot in self.slots:
            while slot.rows:
                self._detach_row(slot)
            slot.active = False
            slot.context_len = 0
            slot.shared_rows = 0
            slot.frozen = False
        self._inactive[:] = self.slots
        self._excess.clear()
        self._lookahead.clear()
        self._target = None
        for handle in self._free_rows:
            self.device.pool.release(handle)
        self._free_rows.clear()
        for buffer in self.buffers:
            self.device.va_space.free(buffer)
        self.buffers.clear()
        self._shutdown = True
