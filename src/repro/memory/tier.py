"""The CPU tier of the hierarchical KV cache (paper S5.3.3's future work).

When ``MemoryManager.evict`` cannot keep a victim's KV on the GPU, the
paper's framework preempts and later *recomputes* the victim's prefill
(vLLM's default). The paper leaves "more sophisticated policies such as
swapping out KV cache to CPU memory as future work"; this module is
that policy's host side: pinned host memory reached over PCIe, holding
evicted KV caches until the scheduler re-admits their request and the
manager demand-pages them back.

Two preemption modes use this tier (``MemoryConfig.preemption_mode``):

* **swap** — the whole-cache policy: ``context_len *
  kv_bytes_per_token`` per transfer regardless of backend layout.
* **tiered** — the manager computes transfer sizes at backend
  granularity: vAttention page-group rows out/in through the manager's
  own row math, Paged at block granularity. The bytes actually moved
  are what the backend physically holds, not the logical token count.

Transfers are modeled by PCIe bandwidth; the serving engine charges the
returned seconds to the simulated clock (transfers are synchronous with
respect to the victim, like vLLM's swap implementation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import ConfigError, SchedulingError
from ..units import GB, fmt_bytes

#: Effective host<->device bandwidth of one PCIe 4.0 x16 link.
PCIE_BANDWIDTH = 25e9  # bytes/second

#: Default pinned-host-memory pool for tiered KV caches.
DEFAULT_HOST_CAPACITY = 64 * GB


@dataclass
class TierStats:
    """Lifetime counters of the CPU tier."""

    swap_outs: int = 0
    swap_ins: int = 0
    bytes_out: int = 0
    bytes_in: int = 0
    seconds_out: float = 0.0
    seconds_in: float = 0.0
    rejected_for_capacity: int = 0


class CpuKvTier:
    """Pinned host memory holding KV caches evicted off the GPU tier."""

    def __init__(
        self,
        capacity: int = DEFAULT_HOST_CAPACITY,
        bandwidth: float = PCIE_BANDWIDTH,
    ) -> None:
        if capacity <= 0:
            raise ConfigError(f"capacity must be positive, got {capacity}")
        if bandwidth <= 0:
            raise ConfigError(f"bandwidth must be positive, got {bandwidth}")
        self.capacity = capacity
        self.bandwidth = bandwidth
        self._resident: Dict[str, int] = {}
        self.stats = TierStats()

    @property
    def used(self) -> int:
        """Host bytes currently holding evicted caches."""
        return sum(self._resident.values())

    @property
    def available(self) -> int:
        """Host bytes free for further transfers in."""
        return self.capacity - self.used

    @property
    def queue_depth(self) -> int:
        """Requests whose KV sits in this tier awaiting copy-back."""
        return len(self._resident)

    def holds(self, request_id: str) -> bool:
        """Whether ``request_id``'s cache is resident in this tier."""
        return request_id in self._resident

    def resident_bytes(self, request_id: str) -> int:
        """Bytes this tier holds for ``request_id`` (0 if absent)."""
        return self._resident.get(request_id, 0)

    def can_swap_out(self, nbytes: int) -> bool:
        """Whether ``nbytes`` fit in the remaining host capacity."""
        if nbytes <= self.available:
            return True
        self.stats.rejected_for_capacity += 1
        return False

    def swap_out(self, request_id: str, nbytes: int) -> float:
        """Store a cache; returns the device->host transfer seconds."""
        if request_id in self._resident:
            raise SchedulingError(f"{request_id} is already swapped out")
        if nbytes <= 0:
            raise SchedulingError(f"cannot swap {nbytes} bytes")
        if nbytes > self.available:
            raise SchedulingError(
                f"host swap space full: need {fmt_bytes(nbytes)}, "
                f"have {fmt_bytes(self.available)}"
            )
        self._resident[request_id] = nbytes
        seconds = nbytes / self.bandwidth
        self.stats.swap_outs += 1
        self.stats.bytes_out += nbytes
        self.stats.seconds_out += seconds
        return seconds

    def swap_in(self, request_id: str) -> float:
        """Restore a cache; returns the host->device transfer seconds."""
        nbytes = self._resident.pop(request_id, None)
        if nbytes is None:
            raise SchedulingError(f"{request_id} is not swapped out")
        seconds = nbytes / self.bandwidth
        self.stats.swap_ins += 1
        self.stats.bytes_in += nbytes
        self.stats.seconds_in += seconds
        return seconds

    def drop(self, request_id: str) -> None:
        """Discard a resident cache without restoring it (request done)."""
        self._resident.pop(request_id, None)

    def telemetry_sample(self) -> Dict[str, float]:
        """Per-tier gauges and counters for the telemetry registry."""
        return {
            "kv_tier_usage": self.used / self.capacity,
            "tier_transfer_queue_depth": float(self.queue_depth),
            "tier_bytes_out_total": float(self.stats.bytes_out),
            "tier_bytes_in_total": float(self.stats.bytes_in),
        }
