"""Memory configuration for the serving engine.

:class:`MemoryConfig` holds every memory-subsystem knob of
:class:`~repro.serving.engine.EngineConfig` (``memory=``): the
preemption policy, the CPU tier's size and the prefix cache switches
(see ``docs/memory.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from ..units import GB

#: Preemption policies the engine understands. ``tiered`` is the
#: hierarchical GPU→CPU policy: victims move to the host tier at
#: backend granularity (vAttention page-group rows, Paged blocks)
#: instead of the flat byte count ``swap`` uses.
PREEMPTION_MODES = ("recompute", "swap", "tiered")


@dataclass
class MemoryConfig:
    """Memory-subsystem configuration nested under ``EngineConfig``."""

    #: What to do with preemption victims: "recompute" (vLLM default,
    #: the paper's behaviour), "swap" (S5.3.3 future work: whole KV
    #: cache over PCIe) or "tiered" (GPU→CPU tier with backend-granular
    #: transfers and demand-paged restore).
    preemption_mode: str = "recompute"
    #: Pinned host memory available to the CPU KV tier (swap/tiered).
    swap_host_bytes: int = 64 * GB
    #: Automatic KV prefix reuse via the radix-tree cache. Supported on
    #: the vattention backend (page aliasing, S8.1) and — through the
    #: cache's backend adapters — on the paged backend (vLLM-style
    #: full-block sharing). UVM and static slots cannot share KV.
    enable_prefix_cache: bool = False
    #: Extra vAttention request slots reserved to hold cached prefixes
    #: (vattention backend only; the paged backend needs no reqIds).
    prefix_cache_slots: int = 8
    #: Cap on bytes retained by cache-owned prefixes (None = bounded
    #: only by slots and memory-pressure eviction).
    prefix_cache_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.preemption_mode not in PREEMPTION_MODES:
            raise ConfigError(
                f"unknown preemption mode {self.preemption_mode!r}"
            )
        if self.swap_host_bytes <= 0:
            raise ConfigError("swap_host_bytes must be positive")
        if self.enable_prefix_cache:
            if self.prefix_cache_slots <= 0:
                raise ConfigError("prefix_cache_slots must be positive")
            if (
                self.prefix_cache_budget_bytes is not None
                and self.prefix_cache_budget_bytes < 0
            ):
                raise ConfigError(
                    "prefix_cache_budget_bytes cannot be negative "
                    "(0 retains nothing, None leaves retention unbounded)"
                )
