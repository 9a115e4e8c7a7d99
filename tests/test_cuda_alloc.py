"""cudaMalloc-style caching allocator (the pre-PagedAttention baseline)."""

import pytest

from repro.errors import InvalidHandle
from repro.gpu.clock import SimClock
from repro.gpu.cuda_alloc import (
    CudaCachingAllocator,
    SEGMENT_GRANULARITY,
    static_kv_cache_bytes,
)
from repro.gpu.phys import PhysicalMemoryPool
from repro.units import GB, KB, MB


@pytest.fixture
def allocator() -> CudaCachingAllocator:
    pool = PhysicalMemoryPool(capacity=1 * GB)
    return CudaCachingAllocator(pool, SimClock())


class TestReservationSemantics:
    def test_malloc_commits_physical_memory(self, allocator):
        allocator.malloc(10 * MB)
        # Reservation-based: committed even though never touched.
        assert allocator._pool.committed == 10 * MB

    def test_rounds_to_segments(self, allocator):
        buffer = allocator.malloc(3 * MB + 1)
        assert buffer.committed == 4 * MB
        assert buffer.committed % SEGMENT_GRANULARITY == 0

    def test_rejects_nonpositive(self, allocator):
        with pytest.raises(ValueError):
            allocator.malloc(0)


class TestCaching:
    def test_free_keeps_memory_committed(self, allocator):
        buffer = allocator.malloc(8 * MB)
        allocator.free(buffer)
        assert allocator._pool.committed == 8 * MB

    def test_free_list_reuse_skips_driver(self, allocator):
        buffer = allocator.malloc(8 * MB)
        allocator.free(buffer)
        t_before = allocator._clock.now
        allocator.malloc(8 * MB)
        # Cache hit: no cudaMalloc latency.
        assert allocator._clock.now == t_before

    def test_double_free_raises(self, allocator):
        buffer = allocator.malloc(2 * MB)
        allocator.free(buffer)
        with pytest.raises(InvalidHandle):
            allocator.free(buffer)


class TestStaticKvMath:
    def test_matches_paper_example(self):
        # Yi-34B-class request: 240KB/token, 200K max context -> a
        # single max-context slot is ~45.8GB of committed memory.
        per_slot = static_kv_cache_bytes(1, 200_000, 240 * KB)
        assert per_slot == 200_000 * 240 * KB

    def test_scales_with_batch(self):
        assert static_kv_cache_bytes(4, 1000, 64 * KB) == (
            4 * static_kv_cache_bytes(1, 1000, 64 * KB)
        )
