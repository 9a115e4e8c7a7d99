"""Physical GPU memory: a pool of page-frames handed out as handles.

This mirrors what ``cuMemCreate`` does on real hardware: it allocates a
*physical memory handle* of a requested size (a page-group: one or more
physical pages allocated together, paper S2.2) that can later be mapped
into one or more virtual address ranges.

The pool tracks:

* committed bytes (handles that exist),
* a high-water mark (peak committed bytes, which invariant tests read),
* per-handle metadata so double-release and use-after-release are caught.

The pool is deliberately simple — physical frames are fungible, so we only
account sizes; there is no need to track individual frame numbers for any
behaviour the paper evaluates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator

from ..errors import InvalidHandle, OutOfPhysicalMemory
from ..units import fmt_bytes


@dataclass(frozen=True)
class PhysicalHandle:
    """An opaque reference to a page-group of physical memory.

    Equality and hashing are identity-like (by ``handle_id``), matching the
    semantics of ``CUmemGenericAllocationHandle``.
    """

    handle_id: int
    size: int

    def __repr__(self) -> str:
        return f"PhysicalHandle(id={self.handle_id}, size={fmt_bytes(self.size)})"


class PhysicalMemoryPool:
    """Fixed-capacity pool of physical GPU memory.

    Parameters
    ----------
    capacity:
        Total physical bytes available for allocation. For serving
        experiments this is GPU memory minus model weights and activation
        workspace (computed by the serving configuration).
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._committed = 0
        self._high_water = 0
        self._handles: Dict[int, PhysicalHandle] = {}
        self._ids: Iterator[int] = itertools.count(1)

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Total pool size in bytes."""
        return self._capacity

    @property
    def committed(self) -> int:
        """Bytes currently held by live handles."""
        return self._committed

    @property
    def available(self) -> int:
        """Bytes that can still be allocated."""
        return self._capacity - self._committed

    @property
    def high_water_mark(self) -> int:
        """Peak committed bytes over the pool's lifetime."""
        return self._high_water

    # ------------------------------------------------------------------
    # Allocation API
    # ------------------------------------------------------------------
    def allocate(self, size: int) -> PhysicalHandle:
        """Allocate a page-group of ``size`` bytes.

        Raises
        ------
        OutOfPhysicalMemory
            If fewer than ``size`` bytes remain. Physical frames never
            fragment externally (any free frame can join any page-group),
            so a capacity check is the exact admission criterion.
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if size > self.available:
            raise OutOfPhysicalMemory(
                f"requested {fmt_bytes(size)} but only "
                f"{fmt_bytes(self.available)} of {fmt_bytes(self._capacity)} free"
            )
        handle = PhysicalHandle(handle_id=next(self._ids), size=size)
        self._handles[handle.handle_id] = handle
        self._committed += size
        self._high_water = max(self._high_water, self._committed)
        return handle

    def release(self, handle: PhysicalHandle) -> None:
        """Return a handle's frames to the pool.

        Raises
        ------
        InvalidHandle
            If the handle was never allocated from this pool or was
            already released (catches double-free bugs in managers).
        """
        live = self._handles.pop(handle.handle_id, None)
        if live is None:
            raise InvalidHandle(f"{handle!r} is not live in this pool")
        self._committed -= live.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhysicalMemoryPool(committed={fmt_bytes(self._committed)}/"
            f"{fmt_bytes(self._capacity)}, handles={len(self._handles)})"
        )
