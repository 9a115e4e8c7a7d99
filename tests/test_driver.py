"""Extended driver (vMem*) semantics across page-group sizes."""

import pytest

from repro.errors import ConfigError
from repro.gpu.device import Device
from repro.gpu.spec import A100, SUPPORTED_PAGE_GROUP_SIZES
from repro.units import KB, MB, us


@pytest.fixture
def device() -> Device:
    return Device(A100, reserved_bytes=0)


class TestConstruction:
    @pytest.mark.parametrize("size", SUPPORTED_PAGE_GROUP_SIZES)
    def test_supported_sizes(self, device, size):
        assert device.driver(size).page_group_size == size

    def test_unsupported_size_rejected(self, device):
        with pytest.raises(ConfigError):
            device.driver(4 * KB)
        with pytest.raises(ConfigError):
            device.driver(1 * MB)


class TestSmallPageFlow:
    def test_reserve_create_map(self, device):
        driver = device.driver(64 * KB)
        reservation = driver.v_mem_reserve(1 * MB)
        handle = driver.v_mem_create()
        driver.v_mem_map(reservation, 0, handle)
        assert reservation.is_range_backed(0, 64 * KB)

    def test_map_latency_is_table3(self, device):
        driver = device.driver(64 * KB)
        reservation = driver.v_mem_reserve(1 * MB)
        handle = driver.v_mem_create()
        before = device.clock.now
        driver.v_mem_map(reservation, 0, handle)
        assert device.clock.now - before == pytest.approx(us(8))

    def test_release_combines_unmap_and_free(self, device):
        driver = device.driver(64 * KB)
        reservation = driver.v_mem_reserve(1 * MB)
        handle = driver.v_mem_create()
        driver.v_mem_map(reservation, 0, handle)
        driver.v_mem_release(reservation, 0)
        assert device.pool.committed == 0
        assert reservation.mapped_bytes == 0

    def test_unaligned_reserve_rejected(self, device):
        driver = device.driver(64 * KB)
        with pytest.raises(ConfigError):
            driver.v_mem_reserve(64 * KB + 1)

    def test_wrong_handle_size_rejected(self, device):
        driver64 = device.driver(64 * KB)
        driver128 = device.driver(128 * KB)
        reservation = driver64.v_mem_reserve(1 * MB)
        foreign = driver128.v_mem_create()
        with pytest.raises(ConfigError):
            driver64.v_mem_map(reservation, 0, foreign)


class Test2MbDelegation:
    def test_map_charges_map_plus_set_access(self, device):
        driver = device.driver(2 * MB)
        reservation = driver.v_mem_reserve(8 * MB)
        handle = driver.v_mem_create()
        before = device.clock.now
        driver.v_mem_map(reservation, 0, handle)
        assert device.clock.now - before == pytest.approx(us(2 + 38))

    def test_release_charges_unmap_plus_release(self, device):
        driver = device.driver(2 * MB)
        reservation = driver.v_mem_reserve(8 * MB)
        handle = driver.v_mem_create()
        driver.v_mem_map(reservation, 0, handle)
        before = device.clock.now
        driver.v_mem_release(reservation, 0)
        assert device.clock.now - before == pytest.approx(us(34 + 23))


class TestFullTensorLifecycle:
    def test_grow_shrink_free(self, device):
        driver = device.driver(256 * KB)
        reservation = driver.v_mem_reserve(4 * MB)
        handles = []
        for index in range(4):
            handle = driver.v_mem_create()
            driver.v_mem_map(reservation, index * 256 * KB, handle)
            handles.append(handle)
        assert reservation.mapped_bytes == 1 * MB
        for index in range(4):
            driver.v_mem_release(reservation, index * 256 * KB)
        driver.v_mem_free(reservation)
        assert device.pool.committed == 0
        assert device.va_space.reserved_bytes == 0
