"""Exact virtual KV tensor: the materialized validation implementation."""

import pytest

from repro.core.virtual_tensor import VirtualKvTensor, build_kv_tensors
from repro.errors import AccessError, ConfigError, SchedulingError
from repro.gpu.device import Device
from repro.gpu.spec import A100
from repro.units import GB, KB


@pytest.fixture
def tensor(tiny_config) -> VirtualKvTensor:
    device = Device(A100, reserved_bytes=70 * GB)
    return VirtualKvTensor(device, tiny_config)


class TestLayout:
    def test_request_bases_are_strided(self, tensor, tiny_config):
        stride = tiny_config.request_stride
        assert tensor.request_base(0) == 0
        assert tensor.request_base(3) == 3 * stride

    def test_out_of_range_reqid(self, tensor):
        with pytest.raises(SchedulingError):
            tensor.request_base(4)

    def test_reservation_covers_batch(self, tensor, tiny_config):
        assert tensor.reservation.size == tiny_config.buffer_bytes


class TestGrowShrink:
    def test_grow_maps_page_groups(self, tensor, tiny_config):
        new = tensor.grow(0, 100_000)
        expected = tensor.page_groups_for(100_000)
        assert new == expected
        assert tensor.mapped_page_groups(0) == expected
        assert tensor.mapped_bytes(0) >= 100_000

    def test_grow_is_idempotent_at_same_target(self, tensor):
        tensor.grow(1, 64 * KB)
        assert tensor.grow(1, 64 * KB) == 0

    def test_grow_beyond_stride_rejected(self, tensor, tiny_config):
        with pytest.raises(ConfigError):
            tensor.grow(0, tiny_config.request_stride + 1)

    def test_shrink_releases(self, tensor):
        tensor.grow(0, 4 * 64 * KB)
        assert tensor.shrink(0, 2) == 2
        assert tensor.mapped_page_groups(0) == 2

    def test_shrink_clamps(self, tensor):
        tensor.grow(0, 64 * KB)
        assert tensor.shrink(0, 100) == 1

    def test_release_request(self, tensor):
        tensor.grow(2, 3 * 64 * KB)
        assert tensor.release_request(2) == 3
        assert tensor.mapped_page_groups(2) == 0

    def test_requests_are_isolated(self, tensor):
        tensor.grow(0, 64 * KB)
        assert tensor.mapped_page_groups(1) == 0


class TestKernelAccessSimulation:
    def test_backed_tokens_are_readable(self, tensor, tiny_config):
        per_token = tiny_config.bytes_per_token_per_tensor
        tokens = (64 * KB) // per_token
        tensor.grow(0, 64 * KB)
        tensor.check_token_access(0, tokens - 1)
        tensor.check_context_access(0, tokens)

    def test_unbacked_token_faults(self, tensor, tiny_config):
        per_token = tiny_config.bytes_per_token_per_tensor
        tokens = (64 * KB) // per_token
        tensor.grow(0, 64 * KB)
        with pytest.raises(AccessError):
            tensor.check_token_access(0, tokens)

    def test_fresh_request_faults_immediately(self, tensor):
        with pytest.raises(AccessError):
            tensor.check_token_access(3, 0)

    def test_neighbouring_request_not_readable_through_gap(self, tensor):
        # Request 0 fully backed must not make request 1 readable.
        tensor.grow(0, tensor.config.request_stride)
        with pytest.raises(AccessError):
            tensor.check_token_access(1, 0)


class TestDestroy:
    def test_destroy_releases_all(self, tiny_config):
        device = Device(A100, reserved_bytes=70 * GB)
        tensor = VirtualKvTensor(device, tiny_config)
        tensor.grow(0, 128 * KB)
        tensor.grow(3, 64 * KB)
        tensor.destroy()
        assert device.pool.committed == 0
        assert device.va_space.reserved_bytes == 0

    def test_build_many(self, tiny_config):
        device = Device(A100, reserved_bytes=70 * GB)
        tensors = build_kv_tensors(device, tiny_config, count=4)
        assert len(tensors) == 4
        assert device.va_space.reserved_bytes == 4 * tiny_config.buffer_bytes

    def test_build_rejects_zero(self, tiny_config):
        device = Device(A100, reserved_bytes=70 * GB)
        with pytest.raises(ConfigError):
            build_kv_tensors(device, tiny_config, count=0)
