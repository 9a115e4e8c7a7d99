"""GPU specs, registry, and Device composition."""

import pytest

from repro.errors import ConfigError
from repro.gpu.device import Device
from repro.gpu.spec import (
    A100,
    CUDA_VMM_GRANULARITY,
    DRIVER_PAGE_GROUP_SIZES,
    H100,
    GpuSpec,
    get_gpu,
    register_gpu,
    validate_page_group_size,
)
from repro.units import GB, KB, MB, TB


class TestSpecs:
    def test_a100_capacity(self):
        assert A100.memory_bytes == 80 * GB
        assert A100.architecture == "ampere"

    def test_h100_is_hopper(self):
        assert H100.architecture == "hopper"
        assert H100.peak_fp16_flops > A100.peak_fp16_flops
        assert H100.hbm_bandwidth > A100.hbm_bandwidth

    def test_va_space_is_abundant(self):
        # S5.1: 128TB of user VA per process.
        assert A100.va_space_bytes == 128 * TB

    def test_registry_lookup(self):
        assert get_gpu("A100-80GB") is A100
        with pytest.raises(ConfigError):
            get_gpu("V100")

    def test_register_custom(self):
        custom = GpuSpec(
            name="TEST-GPU",
            memory_bytes=16 * GB,
            peak_fp16_flops=1e12,
            hbm_bandwidth=1e11,
        )
        register_gpu(custom)
        assert get_gpu("TEST-GPU") is custom

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            GpuSpec(name="bad", memory_bytes=0,
                    peak_fp16_flops=1e12, hbm_bandwidth=1e11)

    def test_page_group_validation(self):
        assert validate_page_group_size(64 * KB) == 64 * KB
        assert validate_page_group_size(2 * MB) == 2 * MB
        with pytest.raises(ConfigError):
            validate_page_group_size(4 * KB)

    def test_cuda_granularity_is_2mb(self):
        assert CUDA_VMM_GRANULARITY == 2 * MB
        assert 2 * MB not in DRIVER_PAGE_GROUP_SIZES


class TestDevice:
    def test_reserved_reduces_budget(self):
        device = Device(A100, reserved_bytes=20 * GB)
        assert device.kv_budget == 60 * GB

    def test_by_name(self):
        assert Device("H100-80GB").spec is H100

    def test_reservation_bounds(self):
        with pytest.raises(ConfigError):
            Device(A100, reserved_bytes=-1)
        with pytest.raises(ConfigError):
            Device(A100, reserved_bytes=80 * GB)

    def test_driver_factory(self):
        device = Device(A100)
        driver = device.driver(64 * KB)
        assert driver.page_group_size == 64 * KB
