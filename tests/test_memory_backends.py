"""Memory backends: vAttention / Paged / Static behind the engine API."""

import copy

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import VAttentionConfig
from repro.core.vattention import VAttention
from repro.errors import ConfigError, SchedulingError
from repro.gpu.device import Device
from repro.gpu.spec import A100
from repro.kernels.base import KvLayout
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.memory import (
    PagedMemory,
    StaticMemory,
    VAttentionMemory,
    _VattentionDecodePlan,
)
from repro.sim.fastforward import UNBOUNDED_HORIZON
from repro.serving.request import Request, RequestState
from repro.units import GB, KB, MB


def make_request(rid: str, prompt: int, decode: int = 10) -> Request:
    request = Request(request_id=rid, prompt_len=prompt, max_new_tokens=decode)
    request.state = RequestState.RUNNING
    return request


@pytest.fixture
def shard():
    return ShardedModel(YI_6B, 1)


@pytest.fixture
def device():
    return Device(A100, reserved_bytes=64 * GB)  # 16GB KV budget


class TestVAttentionBackend:
    @pytest.fixture
    def backend(self, device, shard):
        config = VAttentionConfig(
            shard=shard, max_batch_size=4, page_group_size=2 * MB
        )
        return VAttentionMemory(device, config)

    def test_layout(self, backend):
        assert backend.layout is KvLayout.CONTIGUOUS

    def test_admit_assigns_reqid(self, backend):
        request = make_request("r1", 1000)
        assert backend.can_admit(request)
        backend.admit(request)
        assert request.memory_handle is not None

    def test_prefill_then_decode_flow(self, backend):
        request = make_request("r1", 5000)
        backend.admit(request)
        assert backend.prepare_iteration([request])
        request.record_prefill(now=0.0)
        assert backend.prepare_iteration([request])
        backend.after_iteration(0.02)
        backend.release(request)
        assert request.memory_handle is None

    def test_no_framework_overhead(self, backend):
        # No Block-Table: the whole point of virtual contiguity.
        request = make_request("r1", 1000)
        backend.admit(request)
        assert backend.framework_overhead([request]) == 0.0
        assert backend.append_overhead(1000) == 0.0

    def test_unadmitted_request_rejected(self, backend):
        with pytest.raises(SchedulingError):
            backend.prepare_iteration([make_request("ghost", 100)])

    def test_oversized_prompt_not_admissible(self, backend, shard):
        request = make_request("big", shard.max_context + 1)
        assert not backend.can_admit(request)


class TestPagedBackend:
    @pytest.fixture
    def backend(self, device, shard):
        return PagedMemory(device, shard, block_size=16, library="vLLM")

    def test_layout(self, backend):
        assert backend.layout is KvLayout.PAGED

    def test_pool_committed_up_front(self, device, shard):
        before = device.pool.committed
        PagedMemory(device, shard, block_size=16, library="vLLM")
        # The whole block pool is cudaMalloc'd at startup.
        assert device.pool.committed > before

    def test_admit_and_grow(self, backend):
        request = make_request("r1", 100)
        backend.admit(request)
        assert backend.prepare_iteration([request])
        allocation = backend.blocks.allocation("r1")
        assert allocation.num_blocks == backend.blocks.blocks_needed(100)

    def test_block_table_cost_scales_with_batch(self, backend):
        requests = []
        for i in range(4):
            request = make_request(f"r{i}", 1600)
            backend.admit(request)
            backend.prepare_iteration(requests + [request])
            requests.append(request)
        small = backend.framework_overhead(requests[:1])
        large = backend.framework_overhead(requests)
        assert large > small

    def test_prefill_append_cost_positive_for_fi(self, device, shard):
        backend = PagedMemory(device, shard, block_size=16, library="FlashInfer")
        assert backend.append_overhead(16_384) > 0.0

    def test_admission_reserves_prompt_blocks(self, backend):
        request = make_request("r1", 16_000)
        free_before = backend.blocks.free_blocks
        backend.admit(request)
        assert backend.blocks.free_blocks == (
            free_before - backend.blocks.blocks_needed(16_000)
        )

    def test_oversized_prompt_not_admissible(self, shard):
        tiny = Device(A100, reserved_bytes=79 * GB)  # 1GB of KV
        backend = PagedMemory(tiny, shard, block_size=16, library="vLLM")
        assert not backend.can_admit(make_request("big", 100_000))

    def test_decode_growth_exhaustion_returns_false(self, shard):
        tiny = Device(A100, reserved_bytes=79 * GB)  # 1GB of KV
        backend = PagedMemory(tiny, shard, block_size=16, library="vLLM")
        # Fill the pool exactly, then ask for one more token's block.
        capacity_tokens = backend.blocks.num_blocks * 16
        request = make_request("full", capacity_tokens)
        backend.admit(request)
        request.prefill_done = True
        request.generated = 0
        assert not backend.prepare_iteration([request])

    def test_release_recycles_blocks(self, backend):
        request = make_request("r1", 1000)
        backend.admit(request)
        backend.prepare_iteration([request])
        free_before = backend.blocks.free_blocks
        backend.release(request)
        assert backend.blocks.free_blocks > free_before


class TestStaticBackend:
    def test_slots_bounded_by_memory(self, shard):
        # 16GB budget / (200K tokens * 64KB) = 16GB / 12.2GB -> 1 slot.
        device = Device(A100, reserved_bytes=64 * GB)
        backend = StaticMemory(device, shard, max_batch_size=8)
        assert backend.max_slots == 1

    def test_fragmentation_is_total_commitment(self, shard):
        device = Device(A100, reserved_bytes=64 * GB)
        backend = StaticMemory(device, shard, max_batch_size=8)
        # A slot commits max-context bytes regardless of use.
        assert backend.committed_bytes >= (
            shard.max_context * shard.kv_bytes_per_token
        )

    def test_admission_limited_by_slots(self, shard):
        device = Device(A100, reserved_bytes=64 * GB)
        backend = StaticMemory(device, shard, max_batch_size=8)
        first = make_request("r1", 100)
        backend.admit(first)
        second = make_request("r2", 100)
        assert not backend.can_admit(second)
        with pytest.raises(SchedulingError):
            backend.admit(second)

    def test_release_frees_slot(self, shard):
        device = Device(A100, reserved_bytes=64 * GB)
        backend = StaticMemory(device, shard, max_batch_size=8)
        request = make_request("r1", 100)
        backend.admit(request)
        backend.release(request)
        assert backend.can_admit(make_request("r2", 100))

    def test_too_small_device_rejected(self, shard):
        tiny = Device(A100, reserved_bytes=79 * GB)
        with pytest.raises(ConfigError):
            StaticMemory(tiny, shard, max_batch_size=1)

    def test_static_vs_dynamic_capacity_gap(self, shard):
        # The motivating comparison: a 16GB budget holds ONE static
        # max-context slot but dozens of real 2K-token requests under
        # vAttention.
        device = Device(A100, reserved_bytes=64 * GB)
        static_slots = StaticMemory(device, shard, max_batch_size=64).max_slots
        dynamic_device = Device(A100, reserved_bytes=64 * GB)
        config = VAttentionConfig(
            shard=shard, max_batch_size=64, page_group_size=2 * MB
        )
        backend = VAttentionMemory(dynamic_device, config)
        admitted = 0
        for i in range(64):
            request = make_request(f"r{i}", 2000)
            if not backend.can_admit(request):
                break
            backend.admit(request)
            request.prefill_done = True
            request.generated = 1
            backend.prepare_iteration([request])
            admitted += 1
        assert static_slots == 1
        assert admitted >= 32


class TestVattentionPlanQuiescence:
    """Which hook spans the vAttention decode plan proves to be no-ops.

    The manager below holds 32 rows of 2048 tokens; the reclamation
    threshold keeps at least 3 of them free. Three batch slots decode
    10 tokens short of a page-group edge, so the first crossing falls
    at plan iteration 9. A span is quiet when no crossing is due and
    the manager's next background pass would change nothing
    (:meth:`VAttention.background_quiet`).
    """

    def manager(
        self,
        eager: bool = False,
        cached_rows: int = 0,
        threshold: float = 0.10,
        minimum: int = 3,
    ):
        device = Device(A100, reserved_bytes=80 * GB - 4 * GB)
        config = VAttentionConfig(
            shard=ShardedModel(YI_6B, 1),
            max_batch_size=4,
            page_group_size=2 * MB,
            eager_allocation=eager,
            reclamation_threshold=threshold,
        )
        manager = VAttention(device, config)
        assert (manager.total_rows, manager._minimum_free_rows) == (
            32,
            minimum,
        )
        seq_lens = [0] * 4
        if cached_rows:
            # A finished request whose rows deferred reclamation kept.
            cached = manager.alloc_reqid()
            seq_lens[cached] = cached_rows * config.tokens_per_page_group
            assert manager.step(seq_lens) == 0
            seq_lens[cached] = 0
        batch = [manager.alloc_reqid() for _ in range(3)]
        if cached_rows:
            manager.free_reqid(cached)
        context = 10 * config.tokens_per_page_group - 10
        for req_id in batch:
            seq_lens[req_id] = context
        assert manager.step(seq_lens) == 0
        manager.background.opportunistic_pending = 0.0
        return manager, [(manager.slots[r], context) for r in batch]

    def plan(self, manager, slots):
        tokens_per_row = manager.config.tokens_per_page_group
        lead = min(len(slot.rows) * tokens_per_row - c for slot, c in slots)
        excess = {slot.req_id for slot in manager.excess_candidates}
        candidates = [entry for entry in slots if entry[0].req_id in excess]
        return _VattentionDecodePlan(manager, slots, candidates, lead, True)

    def test_idle_reclamation_runs_to_the_next_crossing(self):
        manager, slots = self.manager()
        assert manager.free_rows < manager._minimum_free_rows
        plan = self.plan(manager, slots)
        # Before any pass ran, nothing is known about reclamation.
        assert not manager.background_quiet()
        assert plan.quiescent_until(0, 100) == 0
        unmapped = manager.stats.rows_unmapped
        assert plan.on_iteration(0, 0.02)
        assert manager.stats.rows_unmapped == unmapped
        # The pass freed nothing, and nothing in the span can change
        # that: skip to the crossing, or to the end if it comes first.
        assert manager.background_quiet()
        assert plan.quiescent_until(1, 100) == 9
        assert plan.quiescent_until(1, 5) == 5
        assert plan.quiescent_until(9, 100) == 9
        # The record is the manager's: a fresh plan proves the same span.
        assert self.plan(manager, slots).quiescent_until(0, 100) == 9

    def test_releasing_a_slot_ends_the_idle_record(self):
        manager, slots = self.manager()
        assert self.plan(manager, slots).on_iteration(0, 0.02)
        assert manager.background_quiet()
        # A freed slot keeps its rows for the next arrival: the next
        # pass reclaims them.
        manager.free_reqid(slots[0][0].req_id)
        assert not manager.background_quiet()
        assert self.plan(manager, slots[1:]).quiescent_until(0, 100) == 0

    def test_inactive_slot_holding_rows_runs_the_hook(self):
        manager, slots = self.manager(cached_rows=2)
        (cached,) = [s for s in manager.slots if not s.active]
        assert len(cached.rows) == 2 and manager.free_rows == 0
        plan = self.plan(manager, slots)
        # The next pass would reclaim the cached rows.
        assert not manager.background_quiet()
        assert plan.quiescent_until(0, 100) == 0
        # It drains the cached slot and stays below the threshold; once
        # a pass frees nothing, the span runs to the crossing.
        assert plan.on_iteration(0, 0.02)
        assert not cached.rows and manager.free_rows == 2
        assert plan.quiescent_until(1, 100) == 1
        assert plan.on_iteration(1, 0.02)
        assert plan.quiescent_until(2, 100) == 9

    def test_pending_eager_mapping_runs_the_hook(self):
        manager, slots = self.manager(eager=True)
        plan = self.plan(manager, slots)
        assert plan.on_iteration(0, 0.02)
        (target,) = [s for s in manager.slots if not s.active]
        # Eager allocation maps the free rows into the next reqId every
        # pass, and reclamation takes them back: nothing is idle.
        assert manager.free_rows == 2 and not target.rows
        assert not manager.background_quiet()
        assert plan.quiescent_until(1, 100) == 1

    def test_eager_mapping_alone_keeps_the_pass_busy(self):
        # A one-row minimum: reclamation takes one row back from the
        # eager target and then sits at its minimum, so only the row
        # eager allocation would map again keeps the pass from quiet.
        manager, slots = self.manager(eager=True, threshold=0.05, minimum=1)
        plan = self.plan(manager, slots)
        assert plan.on_iteration(0, 0.02)
        (target,) = [s for s in manager.slots if not s.active]
        assert manager.free_rows == manager._minimum_free_rows == 1
        assert len(target.rows) == 1
        assert manager.background.pending_seconds == 0.0
        assert not manager.background_quiet()
        assert plan.quiescent_until(1, 100) == 1


class _FullRecordPlan:
    """The decode plan's reference: every hook records the whole batch
    and takes the batch-wide minimum again; without overlap it compares
    the whole batch's rows with their sum at entry."""

    def __init__(self, manager, batch):
        self.manager = manager
        self.tokens_per_row = manager.config.tokens_per_page_group
        self.overlap = manager.config.overlap_allocation
        self.entries = [
            (manager.slots[r.memory_handle], r.context_len) for r in batch
        ]
        if self.overlap:
            self.horizon = UNBOUNDED_HORIZON
        else:
            self.horizon = min(
                len(slot.rows) * self.tokens_per_row - c0
                for slot, c0 in self.entries
            )
        self.batch_rows = self.rows()
        self.next_cross = self.crossing()
        self.committed = 0

    def rows(self):
        return sum(len(slot.rows) for slot, _ in self.entries)

    def crossing(self):
        if not self.overlap:
            return UNBOUNDED_HORIZON
        return min(
            len(slot.rows) * self.tokens_per_row - c0 - 1
            for slot, c0 in self.entries
        )

    def on_iteration(self, iteration, window):
        self.manager.record_contexts(self.entries, iteration + 1)
        self.manager.on_iteration_end(window)
        if not self.overlap:
            return self.rows() == self.batch_rows
        self.next_cross = self.crossing()
        return (
            self.next_cross > iteration
            and self.manager.background.critical_pending <= 0.0
        )

    def quiescent_until(self, iteration, n):
        if iteration >= self.next_cross:
            return iteration
        if not self.manager.background_quiet():
            return iteration
        return min(n, self.next_cross)

    def commit(self, executed):
        self.manager.record_contexts(self.entries, executed)
        self.manager.stats.steps += executed - self.committed
        self.committed = executed
        self.manager.stats.last_step_sync_seconds = 0.0


#: Token counts in 1..200, biased to within two tokens of a 64-token
#: row edge, where a context one token stale needs a different row.
_TOKENS = st.one_of(
    st.integers(1, 200),
    st.builds(
        lambda rows, d: 64 * rows + d, st.integers(1, 3), st.integers(-2, 2)
    ),
)


class TestVattentionPlanAgainstFullRecord:
    """The decode plan records only the contexts its hooks' passes read
    (the trim candidates, the whole batch at a page-group crossing).
    On copies of one backend it must leave exactly the state of a plan
    that records every context and takes the full minimum after every
    hook.

    The backend holds 12 rows of 64 tokens for 8 reqIds; reclamation
    keeps 3 rows free and eager allocation maps 3. Requests finished
    before the batch is admitted leave rows that batch members inherit
    (excess candidates); those finished after stay cached. A request
    prefilled after the background pass that followed the batch's last
    step can leave the free pool below the minimum, so that hooks
    between crossings trim candidates.
    """

    @staticmethod
    def backend(eager, deferred, overlap):
        config = dict(
            shard=ShardedModel(YI_6B, 1),
            max_batch_size=8,
            page_group_size=64 * KB,
        )
        row_bytes = VAttentionConfig(**config).row_bytes
        backend = VAttentionMemory(
            Device(A100, reserved_bytes=A100.memory_bytes - 12 * row_bytes),
            VAttentionConfig(
                **config,
                eager_allocation=eager,
                deferred_reclamation=deferred,
                overlap_allocation=overlap,
                eager_page_groups=3,
                reclamation_threshold=0.25,
            ),
        )
        manager = backend.manager
        assert manager.total_rows == 12
        assert manager.config.tokens_per_page_group == 64
        return backend

    @staticmethod
    def prefill(backend, prompts, name, window):
        """Admit and prefill one request per prompt; None if memory
        cannot take them."""
        batch = [
            make_request(f"{name}{k}", prompt, 1_000)
            for k, prompt in enumerate(prompts)
        ]
        for request in batch:
            if not backend.can_admit(request):
                return None
            backend.admit(request)
        if not backend.prepare_iteration(batch):
            return None
        for request in batch:
            request.record_prefill(0.0)
        backend.after_iteration(window)
        return batch

    @staticmethod
    def snapshot(manager, contexts):
        worker = manager.background
        return (
            [
                (
                    s.req_id,
                    s.active,
                    s.context_len if contexts else None,
                    [h.handle_id for h in s.rows],
                    s.frozen,
                )
                for s in manager.slots
            ],
            [s.req_id for s in manager._lookahead],
            sorted(h.handle_id for h in manager._free_rows),
            manager.stats,
            manager.stats.slots_visited,
            (worker.critical_pending, worker.opportunistic_pending),
            manager.clock.now,
        )

    @settings(
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        max_examples=150,
    )
    @given(
        eager=st.booleans(),
        deferred=st.booleans(),
        overlap=st.booleans(),
        inherited=st.lists(_TOKENS, max_size=3),
        cached=st.lists(_TOKENS, max_size=2),
        prompts=st.lists(_TOKENS, min_size=1, max_size=4),
        decodes=st.integers(0, 3),
        arrival=st.one_of(st.just(0), _TOKENS),
        windows=st.lists(
            st.sampled_from([0.0, 1e-5, 1e-3, 0.1]), min_size=1, max_size=60
        ),
    )
    @example(
        # The pool falls below its minimum with nothing cached: the
        # first hook reads the inheriting slot's context, which the
        # prefill left one token stale, and must find no excess.
        eager=False, deferred=True, overlap=True, inherited=[100],
        cached=[], prompts=[63, 400], decodes=0, arrival=64,
        windows=[0.1] * 8,
    )
    @example(
        # The first hook trims the inheriting slot to one row, which
        # brings its crossing (iteration 52) below the other slot's
        # (61): the quiet span must stop there.
        eager=False, deferred=True, overlap=True, inherited=[150],
        cached=[], prompts=[10, 257], decodes=0, arrival=150,
        windows=[0.1] * 60,
    )
    @example(
        # No candidate: the crossing at iteration 2 must record the
        # batch slot so that the pass maps its next row.
        eager=False, deferred=False, overlap=True, inherited=[], cached=[],
        prompts=[60], decodes=0, arrival=0, windows=[0.1] * 8,
    )
    def test_plan_matches_full_record(
        self, eager, deferred, overlap, inherited, cached, prompts, decodes,
        arrival, windows,
    ):
        backend = self.backend(eager, deferred, overlap)
        window = windows[0]
        # Requests that finish before the batch arrives: the batch
        # inherits their rows. Those that finish after stay cached.
        done = self.prefill(backend, inherited, "inherited", window) or []
        for request in done:
            backend.release(request)
        kept = self.prefill(backend, cached, "cached", window) or []
        batch = self.prefill(backend, prompts, "batch", window)
        if batch is None:
            return
        for request in kept:
            backend.release(request)
        for _ in range(decodes):
            if not backend.prepare_iteration(batch):
                return
            for request in batch:
                request.record_decode_token(0.0)
            backend.after_iteration(window)
        if arrival:
            request = make_request("arrival", arrival, 1_000)
            if backend.can_admit(request):
                backend.admit(request)
                if not backend.prepare_iteration([request]):
                    return

        twin, twin_batch = copy.deepcopy((backend, batch))
        plan = backend.decode_fast_path(batch)
        if plan is None:
            return
        manager, reference_manager = backend.manager, twin.manager
        reference = _FullRecordPlan(reference_manager, twin_batch)
        assert plan.horizon == reference.horizon
        n = min(len(windows), plan.horizon)
        i = 0
        while i < n:
            skip = plan.quiescent_until(i, n)
            assert skip == reference.quiescent_until(i, n)
            if skip > i:
                i = skip
                continue
            going = plan.on_iteration(i, windows[i])
            assert going == reference.on_iteration(i, windows[i])
            assert self.snapshot(manager, False) == self.snapshot(
                reference_manager, False
            )
            i += 1
            if not going:
                break
        plan.commit(i)
        reference.commit(i)
        assert self.snapshot(manager, True) == self.snapshot(
            reference_manager, True
        )
