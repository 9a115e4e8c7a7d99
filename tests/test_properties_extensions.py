"""Property-based tests for the extension subsystems."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.background import BackgroundWorker
from repro.core.config import VAttentionConfig
from repro.core.vattention import VAttention
from repro.gpu.device import Device
from repro.gpu.spec import A100
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.memory.tier import CpuKvTier
from repro.units import GB, MB

RELAXED = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=25
)


class TestBackgroundWorkerProperties:
    @RELAXED
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["submit_c", "submit_o", "run", "flush"]),
                st.floats(0, 0.01),
            ),
            max_size=60,
        )
    )
    def test_conservation_of_work(self, ops):
        worker = BackgroundWorker()
        for op, amount in ops:
            if op == "submit_c":
                worker.submit(amount, critical=True)
            elif op == "submit_o":
                worker.submit(amount, critical=False)
            elif op == "run":
                worker.run_for(amount)
            else:
                worker.flush_critical()
            # Submitted work is always accounted somewhere.
            assert worker.submitted_seconds == pytest.approx(
                worker.overlapped_seconds
                + worker.spilled_seconds
                + worker.pending_seconds
            )
            assert worker.critical_pending >= 0
            assert worker.opportunistic_pending >= 0
            assert 0.0 <= worker.hidden_fraction <= 1.0


class TestSwapSpaceProperties:
    @RELAXED
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 9), st.integers(1, 64 * MB)),
            min_size=1,
            max_size=50,
        )
    )
    def test_capacity_never_negative(self, ops):
        space = CpuKvTier(capacity=256 * MB)
        resident = set()
        for key, size in ops:
            rid = f"r{key}"
            if rid in resident:
                space.swap_in(rid)
                resident.discard(rid)
            elif space.can_swap_out(size):
                space.swap_out(rid, size)
                resident.add(rid)
            assert 0 <= space.used <= space.capacity
            assert space.available == space.capacity - space.used
        # Bytes out >= bytes in (in-flight requests still resident).
        assert space.stats.bytes_out >= space.stats.bytes_in


class TestSharingProperties:
    @RELAXED
    @given(
        prefix=st.integers(1, 16_384),
        followers=st.integers(1, 4),
    )
    def test_sharing_never_leaks_rows(self, prefix, followers):
        device = Device(A100, reserved_bytes=50 * GB)
        config = VAttentionConfig(
            shard=ShardedModel(YI_6B, 1),
            max_batch_size=followers + 1,
            page_group_size=2 * MB,
            eager_allocation=False,
            overlap_allocation=False,
        )
        manager = VAttention(device, config)
        seq = [0] * (followers + 1)
        leader = manager.alloc_reqid()
        seq[leader] = prefix
        manager.step(seq)
        for _ in range(followers):
            follower = manager.alloc_reqid()
            result = manager.share_prefix(leader, follower, prefix)
            assert result.shared_rows + (1 if result.copied_tokens else 0) == (
                manager.slots[follower].mapped_rows
            )
            seq[follower] = prefix
            manager.step(seq)
        # Physical rows: leader's rows + one CoW tail row per follower.
        leader_rows = config.rows_for_context(prefix)
        tail = 1 if prefix % config.tokens_per_page_group else 0
        assert manager.physical_rows_in_use == leader_rows + followers * tail
        # Free everyone in arbitrary order; everything returns.
        manager.free_reqid(leader)
        for req_id in range(followers + 1):
            if manager.slots[req_id].active:
                manager.free_reqid(req_id)
        manager.shutdown()
        assert device.pool.committed == 0

    @RELAXED
    @given(prefix=st.integers(2_048, 10_000))
    def test_saved_bytes_equals_refcount_excess(self, prefix):
        device = Device(A100, reserved_bytes=50 * GB)
        config = VAttentionConfig(
            shard=ShardedModel(YI_6B, 1),
            max_batch_size=3,
            page_group_size=2 * MB,
            eager_allocation=False,
        )
        manager = VAttention(device, config)
        seq = [0, 0, 0]
        leader = manager.alloc_reqid()
        seq[leader] = prefix
        manager.step(seq)
        a = manager.alloc_reqid()
        b_result = manager.share_prefix(leader, a, prefix)
        b = manager.alloc_reqid()
        c_result = manager.share_prefix(leader, b, prefix)
        assert manager.dedup_saved_bytes == (
            b_result.saved_bytes + c_result.saved_bytes
        )
