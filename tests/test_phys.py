"""Physical memory pool invariants."""

import pytest

from repro.errors import InvalidHandle, OutOfPhysicalMemory
from repro.gpu.phys import PhysicalMemoryPool
from repro.units import GB, MB


@pytest.fixture
def pool() -> PhysicalMemoryPool:
    return PhysicalMemoryPool(capacity=1 * GB)


class TestAllocate:
    def test_allocate_reduces_available(self, pool):
        pool.allocate(2 * MB)
        assert pool.available == 1 * GB - 2 * MB
        assert pool.committed == 2 * MB

    def test_allocates_distinct_handles(self, pool):
        a = pool.allocate(2 * MB)
        b = pool.allocate(2 * MB)
        assert a.handle_id != b.handle_id

    def test_exhaustion_raises(self, pool):
        pool.allocate(1 * GB)
        with pytest.raises(OutOfPhysicalMemory):
            pool.allocate(1)

    def test_exact_fill_is_allowed(self, pool):
        pool.allocate(1 * GB)
        assert pool.available == 0

    def test_rejects_nonpositive_size(self, pool):
        with pytest.raises(ValueError):
            pool.allocate(0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PhysicalMemoryPool(capacity=0)


class TestRelease:
    def test_release_restores_capacity(self, pool):
        handle = pool.allocate(4 * MB)
        pool.release(handle)
        assert pool.available == 1 * GB

    def test_double_free_raises(self, pool):
        handle = pool.allocate(2 * MB)
        pool.release(handle)
        with pytest.raises(InvalidHandle):
            pool.release(handle)

    def test_foreign_handle_raises(self, pool):
        other = PhysicalMemoryPool(capacity=1 * GB)
        handle = other.allocate(2 * MB)
        with pytest.raises(InvalidHandle):
            pool.release(handle)


class TestHighWaterMark:
    def test_tracks_peak(self, pool):
        a = pool.allocate(100 * MB)
        b = pool.allocate(200 * MB)
        pool.release(a)
        pool.release(b)
        assert pool.high_water_mark == 300 * MB
        assert pool.committed == 0
