"""Simulated GPU substrate: memory, VMM drivers, clock, device specs."""

from .clock import SimClock
from .cuda_alloc import CudaCachingAllocator, DeviceBuffer, static_kv_cache_bytes
from .device import Device
from .driver import ExtendedDriver
from .phys import PhysicalHandle, PhysicalMemoryPool
from .spec import (
    A100,
    CUDA_VMM_GRANULARITY,
    DRIVER_PAGE_GROUP_SIZES,
    H100,
    NATIVE_PAGE_SIZES,
    SUPPORTED_PAGE_GROUP_SIZES,
    GpuSpec,
    get_gpu,
    register_gpu,
    validate_page_group_size,
)
from .virtual import Mapping, Reservation, VirtualAddressSpace
from .vmm import API_LATENCY, api_latency

__all__ = [
    "A100",
    "API_LATENCY",
    "CUDA_VMM_GRANULARITY",
    "CudaCachingAllocator",
    "DRIVER_PAGE_GROUP_SIZES",
    "Device",
    "DeviceBuffer",
    "ExtendedDriver",
    "GpuSpec",
    "H100",
    "Mapping",
    "NATIVE_PAGE_SIZES",
    "PhysicalHandle",
    "PhysicalMemoryPool",
    "Reservation",
    "SUPPORTED_PAGE_GROUP_SIZES",
    "SimClock",
    "VirtualAddressSpace",
    "api_latency",
    "get_gpu",
    "register_gpu",
    "static_kv_cache_bytes",
    "validate_page_group_size",
]
