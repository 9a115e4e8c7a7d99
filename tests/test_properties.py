"""Property-based tests (hypothesis) on core data structures."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import VAttentionConfig
from repro.core.vattention import VAttention
from repro.core.virtual_tensor import VirtualKvTensor
from repro.errors import OutOfPhysicalMemory
from repro.gpu.device import Device
from repro.gpu.phys import PhysicalMemoryPool
from repro.gpu.spec import A100
from repro.gpu.virtual import VirtualAddressSpace
from repro.metrics.stats import cdf_points, percentile
from repro.models.config import ModelConfig
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.paged.block_manager import BlockManager
from repro.units import GB, KB, MB, ceil_div

# Generous deadline: the device constructor pre-creates handles.
RELAXED = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=30
)


class TestPoolProperties:
    @RELAXED
    @given(sizes=st.lists(st.integers(1, 64 * MB), min_size=1, max_size=50))
    def test_committed_equals_sum_of_live_handles(self, sizes):
        pool = PhysicalMemoryPool(capacity=8 * GB)
        handles = []
        for size in sizes:
            try:
                handles.append(pool.allocate(size))
            except OutOfPhysicalMemory:
                break
        assert pool.committed == sum(h.size for h in handles)
        for handle in handles:
            pool.release(handle)
        assert pool.committed == 0
        assert pool.available == pool.capacity

    @RELAXED
    @given(
        sizes=st.lists(st.integers(1, 16 * MB), min_size=1, max_size=40),
        release_mask=st.lists(st.booleans(), min_size=40, max_size=40),
    )
    def test_interleaved_alloc_release_never_overcommits(
        self, sizes, release_mask
    ):
        pool = PhysicalMemoryPool(capacity=256 * MB)
        live = []
        for size, release_first in zip(sizes, release_mask):
            if release_first and live:
                pool.release(live.pop())
            try:
                live.append(pool.allocate(size))
            except OutOfPhysicalMemory:
                pass
            assert 0 <= pool.committed <= pool.capacity
            assert pool.high_water_mark >= pool.committed


class TestReservationProperties:
    @RELAXED
    @given(
        page_indices=st.lists(
            st.integers(0, 63), min_size=1, max_size=64, unique=True
        )
    )
    def test_mapped_bytes_equals_pages_mapped(self, page_indices):
        pool = PhysicalMemoryPool(capacity=1 * GB)
        space = VirtualAddressSpace(size=16 * GB)
        reservation = space.reserve(64 * 2 * MB)
        for index in page_indices:
            reservation.map(index * 2 * MB, pool.allocate(2 * MB))
        assert reservation.mapped_bytes == len(page_indices) * 2 * MB
        # Coverage from 0 equals the length of the leading dense run.
        dense = 0
        present = set(page_indices)
        while dense in present:
            dense += 1
        assert reservation.mapped_extent_from(0) == dense * 2 * MB

    @RELAXED
    @given(
        page_indices=st.lists(
            st.integers(0, 31), min_size=1, max_size=32, unique=True
        )
    )
    def test_unmap_restores_clean_state(self, page_indices):
        pool = PhysicalMemoryPool(capacity=1 * GB)
        space = VirtualAddressSpace(size=16 * GB)
        reservation = space.reserve(32 * 2 * MB)
        for index in page_indices:
            reservation.map(index * 2 * MB, pool.allocate(2 * MB))
        for index in page_indices:
            pool.release(reservation.unmap(index * 2 * MB).handle)
        assert reservation.mapped_bytes == 0
        assert pool.committed == 0


class TestBlockManagerProperties:
    @RELAXED
    @given(
        lengths=st.lists(st.integers(1, 5_000), min_size=1, max_size=30)
    )
    def test_fragmentation_bounded_by_one_block_per_request(self, lengths):
        shard = ShardedModel(YI_6B, 1)
        manager = BlockManager(shard, 4 * GB, block_size=16)
        admitted = 0
        for i, length in enumerate(lengths):
            if not manager.can_allocate(length):
                continue
            manager.allocate(f"r{i}", length)
            admitted += 1
        waste = manager.internal_fragmentation_bytes()
        assert waste <= admitted * manager.block_bytes
        assert waste >= 0

    @RELAXED
    @given(
        lengths=st.lists(st.integers(1, 2_000), min_size=1, max_size=20),
        growth=st.integers(1, 500),
    )
    def test_block_count_always_matches_context(self, lengths, growth):
        shard = ShardedModel(YI_6B, 1)
        manager = BlockManager(shard, 4 * GB, block_size=16)
        for i, length in enumerate(lengths):
            manager.allocate(f"r{i}", length)
            manager.extend(f"r{i}", length + growth)
            allocation = manager.allocation(f"r{i}")
            assert allocation.num_blocks == ceil_div(length + growth, 16)
        total_used = sum(
            manager.allocation(f"r{i}").num_blocks for i in range(len(lengths))
        )
        assert manager.used_blocks == total_used


class TestStatsProperties:
    @RELAXED
    @given(values=st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    # Halving the smallest subnormal underflows: the blend is 0.0.
    @example(values=[5e-324, 5e-324])
    def test_percentile_within_range(self, values):
        assert min(values) <= percentile(values, 50) <= max(values)
        assert percentile(values, 0) == min(values)
        assert percentile(values, 100) == max(values)

    @RELAXED
    @given(values=st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    def test_cdf_is_monotone_and_complete(self, values):
        points = cdf_points(values)
        fractions = [f for _, f in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)
        assert len(points) == len(values)


def _tiny_shard() -> ShardedModel:
    model = ModelConfig(
        name="prop-tiny",
        n_layers=2,
        n_q_heads=2,
        n_kv_heads=2,
        head_dim=64,
        hidden_size=128,
        intermediate_size=256,
        vocab_size=512,
        max_context=4_096,
    )
    return ShardedModel(model, 1)


class TestManagerCrossValidation:
    """The row-based VAttention accounting must agree with the exact,
    fully materialized VirtualKvTensor on any growth schedule."""

    @RELAXED
    @given(
        contexts=st.lists(st.integers(1, 4_096), min_size=1, max_size=12)
    )
    def test_rows_match_exact_page_group_counts(self, contexts):
        shard = _tiny_shard()
        config = VAttentionConfig(
            shard=shard,
            max_batch_size=2,
            page_group_size=64 * KB,
            eager_allocation=False,
            overlap_allocation=False,
        )
        manager_device = Device(A100, reserved_bytes=79 * GB)
        manager = VAttention(manager_device, config)
        exact_device = Device(A100, reserved_bytes=79 * GB)
        exact = VirtualKvTensor(exact_device, config)

        req = manager.alloc_reqid()
        contexts = sorted(contexts)  # contexts only grow
        for ctx in contexts:
            seq = [0, 0]
            seq[req] = ctx
            assert manager.step(seq) == 0
            exact.grow(req, ctx * config.bytes_per_token_per_tensor)
            assert manager.slots[req].mapped_rows == (
                exact.mapped_page_groups(req)
            )
            # Exact tensor must be readable over the whole context —
            # i.e. the manager's row count implies no faults.
            exact.check_context_access(req, ctx)

    @RELAXED
    @given(
        contexts=st.lists(st.integers(1, 4_096), min_size=1, max_size=10)
    )
    def test_pool_commitment_matches_row_math(self, contexts):
        shard = _tiny_shard()
        config = VAttentionConfig(
            shard=shard,
            max_batch_size=2,
            page_group_size=64 * KB,
            eager_allocation=False,
            overlap_allocation=False,
            deferred_reclamation=False,
        )
        device = Device(A100, reserved_bytes=79 * GB)
        manager = VAttention(device, config)
        req = manager.alloc_reqid()
        peak = 0
        for ctx in sorted(contexts):
            seq = [0, 0]
            seq[req] = ctx
            manager.step(seq)
            peak = ctx
        expected_rows = config.rows_for_context(peak)
        assert manager.slots[req].mapped_rows == expected_rows
        assert manager.mapped_bytes == expected_rows * config.row_bytes
        manager.free_reqid(req)
        assert manager.mapped_bytes == 0  # reclamation disabled -> unmapped
