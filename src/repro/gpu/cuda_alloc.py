"""``cudaMalloc``-style reservation allocator and the PyTorch caching model.

Systems prior to PagedAttention (Orca, FasterTransformer) allocate the KV
cache as one dense tensor sized for the maximum context length, through
``cudaMalloc``, which commits physical memory at allocation time even if
never touched (paper S1, S3). The PyTorch caching allocator sits on top of
the same interface and therefore inherits the behaviour.

This module provides that baseline. It is what the *static* memory
backend of the serving engine uses, and what the fragmentation experiments
compare against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict

from ..errors import InvalidHandle
from ..units import MB, align_up, fmt_bytes, us
from .clock import SimClock
from .phys import PhysicalHandle, PhysicalMemoryPool

#: Approximate driver latency of one cudaMalloc (amortized; the caching
#: allocator usually hits its free lists instead of the driver).
CUDA_MALLOC_LATENCY = us(100)

#: cudaMalloc rounds to 2MB segments for large allocations.
SEGMENT_GRANULARITY = 2 * MB


@dataclass(frozen=True)
class DeviceBuffer:
    """A reservation-based allocation: virtual AND physical, committed."""

    buffer_id: int
    requested: int
    committed: int
    handle: PhysicalHandle

    def __repr__(self) -> str:
        return (
            f"DeviceBuffer(id={self.buffer_id}, "
            f"requested={fmt_bytes(self.requested)}, "
            f"committed={fmt_bytes(self.committed)})"
        )


class CudaCachingAllocator:
    """A minimal model of the PyTorch caching allocator.

    Key property reproduced: allocation commits physical memory
    immediately (reservation-based), so a tensor sized for the maximum
    context length wastes everything past the tokens actually generated —
    the internal fragmentation PagedAttention and vAttention both fix.
    """

    def __init__(self, pool: PhysicalMemoryPool, clock: SimClock) -> None:
        self._pool = pool
        self._clock = clock
        self._ids = itertools.count(1)
        self._live: Dict[int, DeviceBuffer] = {}
        self._cached_segments: Dict[int, list[PhysicalHandle]] = {}

    def malloc(self, size: int) -> DeviceBuffer:
        """Allocate ``size`` bytes; physical memory is committed now."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        committed = align_up(size, SEGMENT_GRANULARITY)
        cached = self._cached_segments.get(committed)
        if cached:
            handle = cached.pop()
        else:
            self._clock.advance(CUDA_MALLOC_LATENCY)
            handle = self._pool.allocate(committed)
        buffer = DeviceBuffer(
            buffer_id=next(self._ids),
            requested=size,
            committed=committed,
            handle=handle,
        )
        self._live[buffer.buffer_id] = buffer
        return buffer

    def free(self, buffer: DeviceBuffer) -> None:
        """Return a buffer to the caching free lists (stays committed)."""
        if self._live.pop(buffer.buffer_id, None) is None:
            raise InvalidHandle(f"{buffer!r} is not live in this allocator")
        self._cached_segments.setdefault(buffer.committed, []).append(buffer.handle)


def static_kv_cache_bytes(
    batch_size: int,
    max_context: int,
    per_token_kv_bytes: int,
) -> int:
    """KV bytes an Orca/FasterTransformer-style system commits up front.

    ``[B, L, H, D]`` K and V tensors for every layer: each of the ``B``
    slots is sized for the model's maximum context length ``L``.
    """
    return batch_size * max_context * per_token_kv_bytes
