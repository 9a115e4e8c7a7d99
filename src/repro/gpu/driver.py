"""Extended NVIDIA-driver APIs with small page-group support (``vMem*``).

The stock CUDA VMM APIs allocate only 2MB pages. The paper modifies the
open-source part of the NVIDIA drivers (the unified-memory code) to expose
the same decoupled allocate/map functionality at 64KB, 128KB and 256KB
granularity (paper S6.2, Table 3). This module mirrors that surface:

============  ==================================  =========================
 vAttention    combines CUDA functionality of      supported granularities
============  ==================================  =========================
vMemReserve   cuMemAddressReserve                 64KB/128KB/256KB/2MB
vMemCreate    cuMemCreate                         64KB/128KB/256KB/2MB
vMemMap       cuMemMap + cuMemSetAccess           64KB/128KB/256KB/2MB
vMemRelease   cuMemUnmap + cuMemRelease           64KB/128KB/256KB/2MB
vMemFree      cuMemAddressFree                    64KB/128KB/256KB/2MB
============  ==================================  =========================

At 2MB the class charges the stock CUDA latencies of the same table, so
one interface serves every supported page-group size; the stock APIs are
not modelled separately. Each call advances the simulated clock by its
latency (:func:`repro.gpu.vmm.api_latency`).
"""

from __future__ import annotations

from ..errors import ConfigError
from ..units import MB, is_aligned
from .clock import SimClock
from .phys import PhysicalHandle, PhysicalMemoryPool
from .spec import SUPPORTED_PAGE_GROUP_SIZES
from .virtual import Reservation, VirtualAddressSpace
from .vmm import api_latency


class ExtendedDriver:
    """``vMem*`` API family supporting fine-grained page-groups.

    Parameters
    ----------
    pool, va_space, clock:
        The simulated device state the driver allocates from.
    page_group_size:
        Granularity this driver instance allocates at. Must be one of
        64KB, 128KB, 256KB or 2MB.
    """

    def __init__(
        self,
        pool: PhysicalMemoryPool,
        va_space: VirtualAddressSpace,
        clock: SimClock,
        page_group_size: int,
    ) -> None:
        if page_group_size not in SUPPORTED_PAGE_GROUP_SIZES:
            supported = ", ".join(str(s) for s in SUPPORTED_PAGE_GROUP_SIZES)
            raise ConfigError(
                f"page-group size {page_group_size} unsupported; "
                f"supported: {supported}"
            )
        self._pool = pool
        self._va = va_space
        self._clock = clock
        self.page_group_size = page_group_size

    # ------------------------------------------------------------------
    def _charge(self, api: str) -> None:
        self._clock.advance(api_latency(api, self.page_group_size))

    # ------------------------------------------------------------------
    # API surface (vMem*)
    # ------------------------------------------------------------------
    def v_mem_reserve(self, size: int) -> Reservation:
        """``vMemReserve``: allocate a virtual buffer (no physical pages)."""
        if not is_aligned(size, self.page_group_size):
            raise ConfigError(
                f"reservation size {size} not aligned to page-group "
                f"{self.page_group_size}"
            )
        self._charge("reserve")
        # Reservations themselves are 2MB-base-aligned regardless of
        # page-group size, matching the MMU's top-level granularity.
        alignment = min(self.page_group_size, 2 * MB)
        return self._va.reserve(size, alignment=alignment)

    def v_mem_create(self) -> PhysicalHandle:
        """``vMemCreate``: allocate one physical page-group."""
        self._charge("create")
        return self._pool.allocate(self.page_group_size)

    def v_mem_map(
        self, reservation: Reservation, offset: int, handle: PhysicalHandle
    ) -> None:
        """``vMemMap``: map a page-group *and* enable access.

        Combines ``cuMemMap`` + ``cuMemSetAccess`` (at 2MB the combined
        CUDA latency applies; for small page-groups the paper's driver
        performs both in one call at the mapped latency).
        """
        if handle.size != self.page_group_size:
            raise ConfigError(
                f"handle of size {handle.size} does not match driver "
                f"granularity {self.page_group_size}"
            )
        self._charge("map")
        if self.page_group_size == 2 * MB:
            # Stock path: access enablement is a second driver round-trip.
            self._charge("set_access")
        reservation.map(offset, handle)

    def v_mem_release(self, reservation: Reservation, offset: int) -> None:
        """``vMemRelease``: unmap the page-group at ``offset`` and free it."""
        if self.page_group_size == 2 * MB:
            self._charge("unmap")
        self._charge("release")
        mapping = reservation.unmap(offset)
        self._pool.release(mapping.handle)

    def v_mem_free(self, reservation: Reservation) -> None:
        """``vMemFree``: release the virtual buffer (must be unmapped)."""
        self._charge("free")
        self._va.free(reservation)


__all__ = ["ExtendedDriver"]
