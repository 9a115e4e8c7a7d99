"""Virtual address space and mapping invariants."""

import pytest

from repro.errors import (
    AccessError,
    InvalidAddress,
    MappingError,
    OutOfVirtualMemory,
)
from repro.gpu.phys import PhysicalMemoryPool
from repro.gpu.virtual import VirtualAddressSpace
from repro.units import GB, KB, MB


@pytest.fixture
def space() -> VirtualAddressSpace:
    return VirtualAddressSpace(size=64 * GB)


@pytest.fixture
def pool() -> PhysicalMemoryPool:
    return PhysicalMemoryPool(capacity=1 * GB)


class TestReserve:
    def test_reserve_carves_range(self, space):
        reservation = space.reserve(16 * MB)
        assert reservation.size == 16 * MB
        assert space.reserved_bytes == 16 * MB

    def test_reservations_do_not_overlap(self, space):
        a = space.reserve(16 * MB)
        b = space.reserve(16 * MB)
        assert a.end <= b.base or b.end <= a.base

    def test_never_address_zero(self, space):
        assert space.reserve(2 * MB).base > 0

    def test_exhaustion_raises(self):
        tiny = VirtualAddressSpace(size=8 * MB)
        tiny.reserve(4 * MB)
        with pytest.raises(OutOfVirtualMemory):
            tiny.reserve(4 * MB)

    def test_unaligned_size_rejected(self, space):
        with pytest.raises(InvalidAddress):
            space.reserve(3 * MB + 1)

    def test_free_requires_no_mappings(self, space, pool):
        reservation = space.reserve(4 * MB)
        reservation.map(0, pool.allocate(2 * MB))
        with pytest.raises(MappingError):
            space.free(reservation)
        reservation.unmap(0)
        space.free(reservation)
        assert space.reserved_bytes == 0


class TestMapping:
    def test_map_and_query(self, space, pool):
        reservation = space.reserve(8 * MB)
        handle = pool.allocate(2 * MB)
        reservation.map(2 * MB, handle)
        assert reservation.mapped_bytes == 2 * MB
        assert reservation.mapping_at(2 * MB).handle == handle
        assert reservation.mapping_at(2 * MB - 1) is None

    def test_double_map_rejected(self, space, pool):
        reservation = space.reserve(8 * MB)
        reservation.map(0, pool.allocate(2 * MB))
        with pytest.raises(MappingError):
            reservation.map(0, pool.allocate(2 * MB))

    def test_overlapping_map_rejected(self, space, pool):
        reservation = space.reserve(8 * MB)
        reservation.map(0, pool.allocate(4 * MB))
        with pytest.raises(MappingError):
            reservation.map(2 * MB, pool.allocate(2 * MB))
        # offset 2MB lies inside the existing 4MB mapping

    def test_unaligned_offset_rejected(self, space, pool):
        reservation = space.reserve(8 * MB)
        with pytest.raises(MappingError):
            reservation.map(1 * MB, pool.allocate(2 * MB))

    def test_out_of_range_rejected(self, space, pool):
        reservation = space.reserve(4 * MB)
        with pytest.raises(InvalidAddress):
            reservation.map(4 * MB, pool.allocate(2 * MB))

    def test_unmap_returns_mapping(self, space, pool):
        reservation = space.reserve(4 * MB)
        handle = pool.allocate(2 * MB)
        reservation.map(0, handle)
        assert reservation.unmap(0).handle == handle
        assert reservation.mapped_bytes == 0

    def test_unmap_missing_offset_raises(self, space):
        reservation = space.reserve(4 * MB)
        with pytest.raises(MappingError):
            reservation.unmap(0)


class TestCoverage:
    def test_mapped_extent_contiguous(self, space, pool):
        reservation = space.reserve(8 * MB)
        reservation.map(0, pool.allocate(2 * MB))
        reservation.map(2 * MB, pool.allocate(2 * MB))
        assert reservation.mapped_extent_from(0) == 4 * MB

    def test_mapped_extent_stops_at_hole(self, space, pool):
        reservation = space.reserve(8 * MB)
        reservation.map(0, pool.allocate(2 * MB))
        reservation.map(4 * MB, pool.allocate(2 * MB))
        assert reservation.mapped_extent_from(0) == 2 * MB

    def test_mapped_extent_from_middle(self, space, pool):
        reservation = space.reserve(8 * MB)
        reservation.map(0, pool.allocate(4 * MB))
        assert reservation.mapped_extent_from(1 * MB) == 3 * MB

    def test_is_range_backed(self, space, pool):
        reservation = space.reserve(8 * MB)
        reservation.map(0, pool.allocate(2 * MB))
        assert reservation.is_range_backed(0, 2 * MB)
        assert not reservation.is_range_backed(0, 2 * MB + 1)
        assert reservation.is_range_backed(64 * KB, 0)

    def test_access_fault_on_hole(self, space, pool):
        reservation = space.reserve(8 * MB)
        reservation.map(0, pool.allocate(2 * MB))
        reservation.check_access(0, 2 * MB)
        with pytest.raises(AccessError):
            reservation.check_access(0, 2 * MB + 1)

    def test_access_outside_reservation(self, space):
        reservation = space.reserve(4 * MB)
        with pytest.raises(InvalidAddress):
            reservation.check_access(3 * MB, 2 * MB)
