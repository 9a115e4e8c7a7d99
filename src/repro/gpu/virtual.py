"""Virtual address space: reservations and physical mappings.

This models the GPU side of what ``cuMemAddressReserve`` + ``cuMemMap``
manipulate: a per-process virtual address space in which contiguous
*reservations* are carved out, and within which aligned sub-ranges can be
backed by physical handles.

The simulator enforces the same invariants the real driver does:

* mappings must lie inside a reservation,
* offsets and sizes must be aligned to the allocation granularity of the
  handle being mapped,
* a virtual page cannot be mapped twice without an intervening unmap,
* access to unmapped addresses faults (:class:`~repro.errors.AccessError`).

These invariants are what make the vAttention manager's bookkeeping
testable — a bug such as mapping the same page-group twice or forgetting
to back a sub-tensor surfaces as a simulated fault instead of passing
silently.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import (
    InvalidAddress,
    MappingError,
    OutOfVirtualMemory,
    AccessError,
)
from ..units import fmt_bytes, is_aligned
from .phys import PhysicalHandle


@dataclass(frozen=True)
class Mapping:
    """A physical handle mapped at ``offset`` within a reservation."""

    offset: int
    handle: PhysicalHandle

    @property
    def end(self) -> int:
        """One past the last mapped byte."""
        return self.offset + self.handle.size


class Reservation:
    """A contiguous virtual address range with sparse physical backing.

    Mappings are kept sorted by offset so that coverage queries
    (:meth:`mapped_extent_from`, :meth:`is_range_backed`) are logarithmic.
    """

    def __init__(self, base: int, size: int) -> None:
        self.base = base
        self.size = size
        self._offsets: List[int] = []
        self._mappings: Dict[int, Mapping] = {}

    @property
    def end(self) -> int:
        """One past the last reserved byte."""
        return self.base + self.size

    @property
    def mapped_bytes(self) -> int:
        """Total physically backed bytes in this reservation."""
        return sum(m.handle.size for m in self._mappings.values())

    @property
    def mapping_count(self) -> int:
        """Number of live mappings."""
        return len(self._mappings)

    # ------------------------------------------------------------------
    def map(self, offset: int, handle: PhysicalHandle) -> Mapping:
        """Back ``[offset, offset + handle.size)`` with ``handle``."""
        if offset < 0 or offset + handle.size > self.size:
            raise InvalidAddress(
                f"mapping [{offset}, {offset + handle.size}) exceeds "
                f"reservation of {fmt_bytes(self.size)}"
            )
        if not is_aligned(offset, handle.size):
            # CUDA requires offset alignment to the allocation granularity.
            raise MappingError(
                f"offset {offset} not aligned to handle size {handle.size}"
            )
        if self._overlaps(offset, handle.size):
            raise MappingError(
                f"range [{offset}, {offset + handle.size}) already mapped"
            )
        mapping = Mapping(offset=offset, handle=handle)
        index = bisect.bisect_left(self._offsets, offset)
        self._offsets.insert(index, offset)
        self._mappings[offset] = mapping
        return mapping

    def unmap(self, offset: int) -> Mapping:
        """Remove the mapping that starts exactly at ``offset``."""
        mapping = self._mappings.pop(offset, None)
        if mapping is None:
            raise MappingError(f"no mapping starts at offset {offset}")
        self._offsets.remove(offset)
        return mapping

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _overlaps(self, offset: int, size: int) -> bool:
        index = bisect.bisect_right(self._offsets, offset)
        if index > 0:
            prev = self._mappings[self._offsets[index - 1]]
            if prev.end > offset:
                return True
        if index < len(self._offsets):
            nxt = self._offsets[index]
            if nxt < offset + size:
                return True
        return False

    def mapping_at(self, offset: int) -> Optional[Mapping]:
        """The mapping covering byte ``offset``, or None."""
        index = bisect.bisect_right(self._offsets, offset)
        if index == 0:
            return None
        mapping = self._mappings[self._offsets[index - 1]]
        return mapping if mapping.end > offset else None

    def mapped_extent_from(self, start: int) -> int:
        """Length of the contiguously backed range beginning at ``start``.

        This is the query the vAttention manager uses to know how many
        tokens of a request's sub-tensor are already backed.
        """
        extent = 0
        cursor = start
        while True:
            mapping = self.mapping_at(cursor)
            if mapping is None:
                return extent
            advance = mapping.end - cursor
            extent += advance
            cursor = mapping.end
            if cursor >= self.size:
                return extent

    def is_range_backed(self, start: int, size: int) -> bool:
        """Whether every byte of ``[start, start + size)`` is mapped."""
        if size == 0:
            return True
        if start < 0 or start + size > self.size:
            return False
        return self.mapped_extent_from(start) >= size

    def check_access(self, offset: int, size: int) -> None:
        """Simulate a load/store; fault if any byte is unbacked."""
        if offset < 0 or offset + size > self.size:
            raise InvalidAddress(
                f"access [{offset}, {offset + size}) outside reservation"
            )
        if not self.is_range_backed(offset, size):
            raise AccessError(
                f"access to unmapped virtual memory at offset {offset} "
                f"(size {size})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Reservation(base={self.base:#x}, size={fmt_bytes(self.size)}, "
            f"mapped={fmt_bytes(self.mapped_bytes)})"
        )


class VirtualAddressSpace:
    """A process's virtual address space, handing out reservations.

    Reservations are carved with a simple bump allocator: virtual memory
    is so abundant (128TB+) that reuse of freed VA ranges is unnecessary,
    exactly the property the paper leans on (S5.1: "virtual memory is
    abundant").
    """

    #: Reservation bases are aligned to the largest native page size.
    BASE_ALIGNMENT = 2 * 1024 * 1024

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("VA space size must be positive")
        self.size = size
        self._next_base = self.BASE_ALIGNMENT  # never hand out address 0
        self._reservations: Dict[int, Reservation] = {}

    @property
    def reserved_bytes(self) -> int:
        """Bytes currently held by live reservations."""
        return sum(r.size for r in self._reservations.values())

    def reserve(self, size: int, alignment: int = BASE_ALIGNMENT) -> Reservation:
        """Reserve a contiguous virtual range of ``size`` bytes."""
        if size <= 0:
            raise ValueError("reservation size must be positive")
        if not is_aligned(size, alignment):
            raise InvalidAddress(
                f"reservation size {size} not aligned to {alignment}"
            )
        base = self._next_base
        if base + size > self.size:
            raise OutOfVirtualMemory(
                f"VA space exhausted: need {fmt_bytes(size)} at "
                f"{base:#x} of {fmt_bytes(self.size)}"
            )
        self._next_base = base + size
        reservation = Reservation(base=base, size=size)
        self._reservations[base] = reservation
        return reservation

    def free(self, reservation: Reservation) -> None:
        """Release a reservation; it must have no live mappings."""
        live = self._reservations.pop(reservation.base, None)
        if live is None:
            raise InvalidAddress(f"{reservation!r} is not live in this space")
        if live.mapping_count:
            # Re-insert so state stays consistent for the caller.
            self._reservations[reservation.base] = live
            raise MappingError(
                f"cannot free reservation with {live.mapping_count} live mappings"
            )
