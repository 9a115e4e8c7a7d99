"""A simulated GPU device: spec + physical pool + VA space + drivers.

One :class:`Device` corresponds to one physical GPU. A tensor-parallel
deployment's workers execute in lock-step and hold identical per-worker
shards, so :class:`repro.serving.engine.LLMEngine` builds one
representative device for them all.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..units import fmt_bytes
from .clock import SimClock
from .cuda_alloc import CudaCachingAllocator
from .driver import ExtendedDriver
from .phys import PhysicalMemoryPool
from .spec import GpuSpec, get_gpu
from .virtual import VirtualAddressSpace


class Device:
    """Simulated GPU with reservable memory for KV cache.

    Parameters
    ----------
    spec:
        Hardware description (or a registered GPU name).
    reserved_bytes:
        Bytes pre-committed to model weights and activation workspace;
        subtracted from the physical pool available for KV cache and
        other runtime allocations.
    """

    def __init__(
        self,
        spec: GpuSpec | str,
        reserved_bytes: int = 0,
    ) -> None:
        self.spec = get_gpu(spec) if isinstance(spec, str) else spec
        if reserved_bytes < 0:
            raise ConfigError("reserved_bytes cannot be negative")
        if reserved_bytes >= self.spec.memory_bytes:
            raise ConfigError(
                f"reserved {fmt_bytes(reserved_bytes)} exceeds device "
                f"memory {fmt_bytes(self.spec.memory_bytes)}"
            )
        self.reserved_bytes = reserved_bytes
        self.clock = SimClock()
        self.pool = PhysicalMemoryPool(self.spec.memory_bytes - reserved_bytes)
        self.va_space = VirtualAddressSpace(self.spec.va_space_bytes)
        self.caching_allocator = CudaCachingAllocator(self.pool, self.clock)

    @property
    def kv_budget(self) -> int:
        """Physical bytes available to the KV cache manager right now."""
        return self.pool.available

    def driver(self, page_group_size: int) -> ExtendedDriver:
        """An extended-driver handle at the requested granularity."""
        return ExtendedDriver(
            self.pool, self.va_space, self.clock, page_group_size
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Device({self.spec.name}, kv_budget={fmt_bytes(self.kv_budget)}, "
            f"t={self.clock.now:.3f}s)"
        )
