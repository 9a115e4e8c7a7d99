"""VAttention manager: the Table 4 API and the S6 optimizations."""

import copy
from operator import attrgetter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import VAttentionConfig
from repro.core.vattention import VAttention
from repro.errors import AllocationFailed, SchedulingError
from repro.gpu.device import Device
from repro.gpu.spec import A100
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_34B, YI_6B
from repro.units import GB, KB, MB, us


def make_manager(
    model=YI_6B,
    tp=1,
    batch=8,
    page_group=2 * MB,
    reserved=80 * GB - 16 * GB,  # 16GB of KV budget
    **flags,
):
    device = Device(A100, reserved_bytes=reserved)
    config = VAttentionConfig(
        shard=ShardedModel(model, tp),
        max_batch_size=batch,
        page_group_size=page_group,
        **flags,
    )
    return device, config, VAttention(device, config)


def step_for(manager, req_id, ctx):
    seq = [0] * manager.config.max_batch_size
    seq[req_id] = ctx
    return manager.step(seq)


class TestInit:
    def test_reserves_2n_virtual_buffers(self):
        _, config, manager = make_manager()
        assert len(manager.buffers) == 64
        assert all(b.size == config.buffer_bytes for b in manager.buffers)

    def test_precreates_physical_rows(self):
        device, config, manager = make_manager()
        assert manager.total_rows == manager.free_rows
        assert device.pool.committed == manager.total_rows * config.row_bytes

    def test_rows_capped_by_max_demand(self):
        # A single-slot batch can never use more rows than one full
        # request, however large the pool.
        _, config, manager = make_manager(batch=1, reserved=0)
        assert manager.total_rows == config.rows_per_full_request


class TestReqIdLifecycle:
    def test_alloc_returns_valid_ids(self):
        _, _, manager = make_manager(batch=4)
        ids = {manager.alloc_reqid() for _ in range(4)}
        assert ids == {0, 1, 2, 3}

    def test_exhausted_slots_raise(self):
        _, _, manager = make_manager(batch=2)
        manager.alloc_reqid()
        manager.alloc_reqid()
        with pytest.raises(SchedulingError):
            manager.alloc_reqid()

    def test_free_then_realloc(self):
        _, _, manager = make_manager(batch=2, eager_allocation=False)
        req = manager.alloc_reqid()
        manager.free_reqid(req)
        assert manager.alloc_reqid() == req  # reuse preferred

    def test_double_free_rejected(self):
        _, _, manager = make_manager()
        req = manager.alloc_reqid()
        manager.free_reqid(req)
        with pytest.raises(SchedulingError):
            manager.free_reqid(req)

    def test_free_unknown_rejected(self):
        _, _, manager = make_manager()
        with pytest.raises(SchedulingError):
            manager.free_reqid(99)


class TestStep:
    def test_maps_rows_for_context(self):
        _, config, manager = make_manager(eager_allocation=False)
        req = manager.alloc_reqid()
        assert step_for(manager, req, 5000) == 0
        # 5000 tokens at 2048 tokens/page-group -> 3 rows.
        assert manager.slots[req].mapped_rows == 3

    def test_step_is_incremental(self):
        _, _, manager = make_manager(eager_allocation=False)
        req = manager.alloc_reqid()
        step_for(manager, req, 2048)
        assert manager.stats.rows_mapped == 1
        step_for(manager, req, 2049)
        assert manager.stats.rows_mapped == 2

    def test_no_growth_no_work(self):
        _, _, manager = make_manager(eager_allocation=False)
        req = manager.alloc_reqid()
        step_for(manager, req, 2000)
        before = manager.stats.map_calls
        step_for(manager, req, 2001)  # same page-group
        assert manager.stats.map_calls == before

    def test_wrong_length_rejected(self):
        _, _, manager = make_manager()
        with pytest.raises(SchedulingError):
            manager.step([0, 0])

    def test_inactive_nonzero_rejected(self):
        _, _, manager = make_manager()
        seq = [0] * 8
        seq[3] = 100
        with pytest.raises(SchedulingError):
            manager.step(seq)

    def test_shrinking_context_rejected(self):
        _, _, manager = make_manager()
        req = manager.alloc_reqid()
        step_for(manager, req, 2000)
        with pytest.raises(SchedulingError):
            step_for(manager, req, 1000)

    def test_over_max_context_rejected(self):
        _, _, manager = make_manager()
        req = manager.alloc_reqid()
        with pytest.raises(SchedulingError):
            step_for(manager, req, 300_000)

    def test_failure_returns_minus_one(self):
        # 16GB budget / 128MB rows = 125 rows; a 192K-token request
        # needs 94 of them, so a second one cannot fit.
        _, _, manager = make_manager(batch=2, eager_allocation=False)
        first = manager.alloc_reqid()
        assert step_for(manager, first, 192_000) == 0
        second = manager.alloc_reqid()
        seq = [0] * 2
        seq[first] = 192_000
        seq[second] = 192_000
        assert manager.step(seq) == -1
        assert manager.stats.step_failures == 1


class TestSynchronousLatency:
    def test_paper_s6_example_yi34b_one_row(self):
        # Growing one Yi-34B request by one page-group row = 120 calls
        # of cuMemMap+cuMemSetAccess at ~40us ~= 5ms (paper S6.1).
        _, _, manager = make_manager(
            model=YI_34B, tp=2, batch=2,
            eager_allocation=False, overlap_allocation=False,
            reserved=40 * GB,
        )
        req = manager.alloc_reqid()
        step_for(manager, req, 1)  # maps exactly one row
        assert manager.stats.last_step_sync_seconds == pytest.approx(
            120 * us(40)
        )

    def test_small_pages_charge_vmemmap_rate(self):
        _, _, manager = make_manager(
            page_group=64 * KB,
            eager_allocation=False, overlap_allocation=False,
        )
        req = manager.alloc_reqid()
        step_for(manager, req, 64)  # one 64-token row, 64 tensors
        assert manager.stats.last_step_sync_seconds == pytest.approx(
            64 * us(8)
        )


class TestDeferredReclamation:
    def test_next_request_inherits_pages(self):
        _, _, manager = make_manager(eager_allocation=False)
        first = manager.alloc_reqid()
        step_for(manager, first, 10_000)
        rows = manager.slots[first].mapped_rows
        manager.free_reqid(first)
        second = manager.alloc_reqid()
        assert second == first
        assert manager.slots[second].mapped_rows == rows
        assert manager.stats.reqids_reused_with_memory == 1

    def test_inherited_prefill_is_free(self):
        _, _, manager = make_manager(
            eager_allocation=False, overlap_allocation=False
        )
        first = manager.alloc_reqid()
        step_for(manager, first, 10_000)
        manager.free_reqid(first)
        second = manager.alloc_reqid()
        maps_before = manager.stats.map_calls
        step_for(manager, second, 10_000)
        assert manager.stats.map_calls == maps_before  # fully reused
        assert manager.stats.last_step_sync_seconds == 0.0

    def test_larger_follower_pays_only_the_difference(self):
        _, config, manager = make_manager(
            eager_allocation=False, overlap_allocation=False
        )
        first = manager.alloc_reqid()
        step_for(manager, first, 4096)  # 2 rows
        manager.free_reqid(first)
        second = manager.alloc_reqid()
        step_for(manager, second, 8192)  # needs 4 rows, inherits 2
        assert manager.stats.rows_mapped == 4

    def test_disabled_unmaps_on_free(self):
        _, _, manager = make_manager(
            deferred_reclamation=False, eager_allocation=False
        )
        req = manager.alloc_reqid()
        step_for(manager, req, 10_000)
        manager.free_reqid(req)
        assert manager.slots[req].mapped_rows == 0
        assert manager.stats.rows_unmapped == manager.stats.rows_mapped


class TestEagerAllocation:
    def test_next_candidate_gets_pages(self):
        _, config, manager = make_manager(eager_allocation=True)
        manager.alloc_reqid()
        manager.on_iteration_end(1.0)  # let the background work land
        candidates = [s for s in manager.slots if not s.active]
        assert max(s.mapped_rows for s in candidates) == config.eager_page_groups

    def test_eager_work_is_opportunistic(self):
        _, _, manager = make_manager(eager_allocation=True)
        req = manager.alloc_reqid()
        # Eager mapping latency must not spill into step() sync time.
        assert step_for(manager, req, 100) == 0
        assert manager.background.critical_pending == 0.0
        assert manager.background.opportunistic_pending > 0.0


class TestOverlap:
    def test_predicted_growth_runs_in_background(self):
        _, _, manager = make_manager(
            eager_allocation=False, overlap_allocation=True
        )
        req = manager.alloc_reqid()
        step_for(manager, req, 2048)  # boundary: next token needs a row
        manager.on_iteration_end(1.0)  # plenty of compute to hide it
        assert step_for(manager, req, 2049) == 0
        assert manager.stats.last_step_sync_seconds == 0.0

    def test_short_window_spills_residual(self):
        _, _, manager = make_manager(
            eager_allocation=False, overlap_allocation=True
        )
        req = manager.alloc_reqid()
        step_for(manager, req, 2048)
        manager.on_iteration_end(0.0)  # no time to hide anything
        step_for(manager, req, 2049)
        assert manager.stats.last_step_sync_seconds > 0.0

    def test_disabled_overlap_charges_step(self):
        _, _, manager = make_manager(
            eager_allocation=False, overlap_allocation=False
        )
        req = manager.alloc_reqid()
        step_for(manager, req, 2048)
        manager.on_iteration_end(1.0)
        step_for(manager, req, 2049)
        assert manager.stats.last_step_sync_seconds > 0.0


class TestReclamationThreshold:
    def test_free_pool_replenished_from_inactive(self):
        _, _, manager = make_manager(
            batch=4, eager_allocation=False, reclamation_threshold=0.5
        )
        req = manager.alloc_reqid()
        # Consume well past half the rows, then free the request.
        target = int(manager.total_rows * 0.9) * 2048
        step_for(manager, req, min(target, 192_000))
        manager.free_reqid(req)
        manager.on_iteration_end(10.0)
        assert manager.free_rows >= int(
            manager.total_rows * manager.config.reclamation_threshold
        )


class TestAccounting:
    def test_fragmentation_bounded_by_one_row(self):
        _, config, manager = make_manager(eager_allocation=False)
        req = manager.alloc_reqid()
        step_for(manager, req, 2049)  # 2 rows for 2049 tokens
        waste = manager.internal_fragmentation_bytes
        assert 0 < waste < config.row_bytes

    def test_used_plus_waste_equals_mapped_for_active(self):
        _, config, manager = make_manager(eager_allocation=False)
        req = manager.alloc_reqid()
        step_for(manager, req, 3000)
        active_mapped = manager.slots[req].mapped_rows * config.row_bytes
        assert manager.used_bytes + manager.internal_fragmentation_bytes == (
            active_mapped
        )

    def test_shutdown_releases_everything(self):
        device, _, manager = make_manager()
        req = manager.alloc_reqid()
        step_for(manager, req, 10_000)
        manager.shutdown()
        assert device.pool.committed == 0
        assert device.va_space.reserved_bytes == 0
        with pytest.raises(SchedulingError):
            manager.alloc_reqid()

    def test_shutdown_idempotent(self):
        _, _, manager = make_manager()
        manager.shutdown()
        manager.shutdown()


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["alloc", "free", "step", "iterate", "share", "trim"]
        ),
        st.integers(0, 7),
        st.integers(1, 200),
    ),
    max_size=40,
)


class TestAgainstFullScans:
    """Random Table 4 call sequences, with the manager's slot index
    checked against walks over every slot: after every call, and at
    every row reclaimed inside one."""

    @settings(
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        max_examples=60,
    )
    @given(
        ops=OPS,
        eager=st.booleans(),
        deferred=st.booleans(),
        overlap=st.booleans(),
    )
    # A slot inherits four rows; only the first backs its first token.
    @example(
        ops=[
            ("alloc", 0, 1),
            ("step", 0, 200),
            ("free", 0, 1),
            ("alloc", 0, 1),
            ("step", 0, 10),
        ],
        eager=False,
        deferred=True,
        overlap=False,
    )
    # Four slots inherit eager rows and the pool is empty: the prefill
    # of slot 0 reclaims, and once slot 0 holds two rows the full walk
    # picks it (its context is recorded only after the mapping).
    @example(
        ops=[("alloc", 0, 1)] * 5 + [("step", 0, 129)],
        eager=True,
        deferred=False,
        overlap=False,
    )
    # Slot 0 aliases two of slot 1's rows with the pool empty; mapping
    # its copied tail reclaims, and the full walk picks slot 0 first.
    @example(
        ops=[("alloc", 0, 1)] * 3
        + [("step", 2, 191)] * 3
        + [("free", 2, 1), ("alloc", 0, 1), ("step", 1, 130)]
        + [("share", 0, 128)],
        eager=False,
        deferred=True,
        overlap=False,
    )
    # Slot 2 aliases two of slot 0's rows and is freed: its rows are
    # released at once, and the aliased-row count falls back to 0.
    @example(
        ops=[("alloc", 0, 1)] * 3
        + [("step", 0, 130), ("share", 0, 128), ("free", 2, 1)],
        eager=False,
        deferred=True,
        overlap=False,
    )
    def test_index_matches_full_scans(self, ops, eager, deferred, overlap):
        manager = self.small_manager(eager, deferred, overlap)
        slots = manager.slots
        last_used = attrgetter("last_used")
        detached = []
        detach_row = manager._detach_row
        reclaim_one_row = manager._reclaim_one_row

        def record_detach(slot):
            detached.append(slot)
            return detach_row(slot)

        def checked_reclaim():
            # The victim a walk over every slot picks, against the
            # contexts recorded mid-call (step and share_prefix map
            # rows before they record the new context).
            held = [s for s in slots if not s.active and s.rows]
            if held:
                expected = min(held, key=last_used)
            else:
                expected = next(
                    (
                        s
                        for s in slots
                        if s.active
                        and s.mapped_rows
                        > manager.rows_for_context(s.context_len + 1)
                    ),
                    None,
                )
                if expected is None:
                    return reclaim_one_row()  # raises AllocationFailed
            detached.clear()
            latency = reclaim_one_row()
            assert detached[0] is expected
            return latency

        manager._detach_row = record_detach
        manager._reclaim_one_row = checked_reclaim
        for kind, a, b in ops:
            try:
                self.apply(manager, kind, a, b)
            except AllocationFailed:
                pass  # aliased rows left nothing to free; the index holds
            self.assert_index_agrees(manager)

    @settings(
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        max_examples=60,
    )
    @given(
        ops=OPS,
        eager=st.booleans(),
        deferred=st.booleans(),
        overlap=st.booleans(),
    )
    # A pass below the minimum finds nothing to unmap (reqId 0 maps its
    # lookahead row); freeing reqId 1 then hands reclamation five rows.
    @example(
        ops=[("alloc", 0, 1)] * 2
        + [("step", 0, 318), ("step", 1, 319), ("step", 0, 2)]
        + [("iterate", 0, 200), ("free", 1, 1)],
        eager=False,
        deferred=True,
        overlap=True,
    )
    # The prefill reclaims a row from the eager target and leaves no row
    # free; trimming reqId 0 frees rows the next pass maps eagerly.
    @example(
        ops=[("alloc", 0, 1)] + [("step", 0, 200)] * 3 + [("trim", 0, 100)],
        eager=True,
        deferred=False,
        overlap=False,
    )
    def test_quiet_pass_changes_nothing(self, ops, eager, deferred, overlap):
        """Whenever the manager reports its background pass quiet and no
        slot waits for a lookahead row, a pass changes no rows, no
        pool, no worker queue and no mapping counter."""
        manager = self.small_manager(eager, deferred, overlap)
        worker = manager.background

        def state():
            return (
                [[h.handle_id for h in s.rows] for s in manager.slots],
                manager.free_rows,
                worker.critical_pending,
                worker.opportunistic_pending,
                manager.stats.rows_mapped,
                manager.stats.rows_unmapped,
            )

        for kind, a, b in ops:
            try:
                self.apply(manager, kind, a, b)
            except AllocationFailed:
                pass
            if manager.background_quiet() and not manager._lookahead:
                before = state()
                manager.on_iteration_end(1e-3)
                assert state() == before, (kind, a, b)

    @staticmethod
    def small_manager(eager, deferred, overlap):
        """64-token rows, 12 of them, 8 reqIds; 3 eager rows, and
        reclamation keeps 3 rows free."""
        probe = VAttentionConfig(
            shard=ShardedModel(YI_6B, 1),
            max_batch_size=8,
            page_group_size=64 * KB,
        )
        _, _, manager = make_manager(
            batch=8,
            page_group=64 * KB,
            reserved=A100.memory_bytes - 12 * probe.row_bytes,
            eager_allocation=eager,
            deferred_reclamation=deferred,
            overlap_allocation=overlap,
            eager_page_groups=3,
            reclamation_threshold=0.25,
        )
        assert manager.total_rows == 12
        return manager

    @staticmethod
    def apply(manager, kind, a, b):
        slots = manager.slots
        active = [s for s in slots if s.active]
        if kind == "alloc" and manager.has_free_reqid():
            expected = max(
                (s for s in slots if not s.active),
                key=lambda s: (s.mapped_rows, -s.req_id),
            )
            assert manager.alloc_reqid() == expected.req_id
        elif kind == "free" and active:
            manager.free_reqid(active[a % len(active)].req_id)
        elif kind == "step" and active:
            manager.step(TestAgainstFullScans.step_lens(manager, a, b))
        elif kind == "iterate":
            manager.on_iteration_end(b * 1e-5)
        elif kind == "share":
            sources = [s for s in active if s.context_len]
            fresh = [s for s in active if not s.context_len]
            if sources and fresh:
                src = sources[a % len(sources)]
                dst = fresh[b % len(fresh)]
                prefix = 1 + b % src.context_len
                manager.share_prefix(src.req_id, dst.req_id, prefix)
        elif kind == "trim":
            backed = [s for s in active if s.context_len]
            if backed:
                slot = backed[a % len(backed)]
                manager.trim_slot(slot.req_id, b % (slot.context_len + 1))

    @staticmethod
    def step_lens(manager, a, b):
        """The ``seq_lens`` of a ``("step", a, b)`` op: grow one active
        slot, or two (a reclamation while the second maps may trim the
        first); ``None`` when no slot is active."""
        active = [s for s in manager.slots if s.active]
        if not active:
            return None
        seq = [s.context_len if s.active else 0 for s in manager.slots]
        for i in {a % len(active), b % len(active)}:
            seq[active[i].req_id] = active[i].context_len + b
        return seq

    @staticmethod
    def outcome(call, argument):
        """What ``call(argument)`` returns, or the type it raises."""
        try:
            return ("returned", call(argument))
        except (AllocationFailed, SchedulingError) as error:
            return ("raised", type(error))

    @staticmethod
    def snapshot(manager):
        """Every piece of manager state a step reads or writes."""
        worker = manager.background
        return (
            [
                (
                    s.active,
                    s.context_len,
                    s.shared_rows,
                    s.frozen,
                    [h.handle_id for h in s.rows],
                )
                for s in manager.slots
            ],
            [h.handle_id for h in manager._free_rows],
            sorted(manager._row_refs.items()),
            vars(manager.stats),
            [s.req_id for s in manager._lookahead],
            [s.req_id for s in manager._excess],
            [s.req_id for s in manager._holding],
            manager._inactive_rows,
            (worker.critical_pending, worker.opportunistic_pending),
            manager.clock.now,
        )

    @settings(
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        max_examples=60,
    )
    @given(
        ops=OPS,
        eager=st.booleans(),
        deferred=st.booleans(),
        overlap=st.booleans(),
    )
    def test_sparse_step_equals_array_step(self, ops, eager, deferred, overlap):
        """At every step of a random call sequence, the array ``step``
        and ``step_contexts`` over its nonzero entries, run on copies of
        one manager, return the same value and leave the same rows,
        contexts, stats, lookahead list and excess list."""
        manager = self.small_manager(eager, deferred, overlap)
        for kind, a, b in ops:
            seq = self.step_lens(manager, a, b) if kind == "step" else None
            if seq is None:
                try:
                    self.apply(manager, kind, a, b)
                except AllocationFailed:
                    pass
                continue
            twin = copy.deepcopy(manager)
            pairs = [(req_id, ctx) for req_id, ctx in enumerate(seq) if ctx]
            expected = self.outcome(manager.step, seq)
            assert self.outcome(twin.step_contexts, pairs) == expected
            assert self.snapshot(twin) == self.snapshot(manager)

    def test_sparse_step_rejects_malformed_pairs(self):
        manager = self.small_manager(False, True, False)
        for _ in range(3):
            manager.alloc_reqid()
        malformed = {
            "unsorted": [(1, 10), (0, 10)],
            "duplicated": [(0, 10), (0, 12)],
            "negative reqId": [(-1, 10)],
            "reqId past the batch": [(8, 10)],
            "zero context": [(0, 10), (1, 0)],
            "negative context": [(2, -3)],
        }
        for pairs in malformed.values():
            with pytest.raises(SchedulingError):
                manager.step_contexts(pairs)
        assert [s.context_len for s in manager.slots[:3]] == [0, 0, 0]
        assert manager.step_contexts([(0, 10), (2, 70)]) == 0
        assert [s.context_len for s in manager.slots[:3]] == [10, 0, 70]

    @staticmethod
    def assert_index_agrees(manager):
        slots = manager.slots
        assert manager.available_rows == (
            manager.free_rows
            + manager.cached_rows
            + manager.excess_active_rows
        )
        assert manager.has_free_reqid() == any(not s.active for s in slots)
        inactive = [s for s in slots if not s.active]
        expected = max(
            inactive,
            key=lambda s: (s.mapped_rows, -s.req_id),
            default=None,
        )
        # A live cached eager target is the from-scratch maximum.
        cached = manager._target
        if cached is not None and cached.mapped_rows >= manager._target_rows:
            assert cached is expected
        assert manager._next_reqid_slot() is expected
        # Every slot the lookahead pass would map a row for is listed.
        lookahead = manager._lookahead
        assert [s.req_id for s in lookahead] == sorted(
            {s.req_id for s in lookahead}
        )
        needy = [
            s
            for s in slots
            if s.active
            and not s.frozen
            and s.context_len
            and manager.rows_for_context(s.context_len + 1) > s.mapped_rows
        ]
        if manager.config.overlap_allocation:
            assert all(any(s is t for t in lookahead) for s in needy)
        else:
            assert not lookahead
        # Reclamation drains inactive slots least recently used first,
        # ties in reqId order.
        last_used = attrgetter("last_used")
        victims = sorted((s for s in inactive if s.rows), key=last_used)
        assert [s.req_id for s in sorted(manager._holding, key=last_used)] == [
            s.req_id for s in victims
        ]
        # The running count of aliased rows is the reference counts'.
        assert manager._aliased_rows == sum(
            1 for refs in manager._row_refs.values() if refs > 1
        )
