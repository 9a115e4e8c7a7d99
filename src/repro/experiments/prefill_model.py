"""Shared prefill-phase model used by Figure 7 / Table 6 / Figure 13.

Prefill completion time for one prompt = linear operators + attention
kernel + library-specific framework work (KV append, Block-Table
bookkeeping) + any synchronous memory allocation the configuration
incurs. For the Figure 7 / Table 6 steady-state numbers, vAttention's
deferred reclamation + eager allocation keep allocation off the
critical path (the paper's S6.1.2), and the paged systems' block pool
is pre-committed — so the allocation term is zero for both and the
differences come from the kernels and framework work.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..gpu.spec import GpuSpec
from ..kernels.costmodel import ITERATION_CPU_OVERHEAD, linear_prefill_time
from ..kernels.registry import get_kernel
from ..models.shard import ShardedModel
from ..paged.block_table import block_table_cost
from .common import PAPER_CONFIGS


@dataclass(frozen=True)
class PrefillBreakdown:
    """Completion-time components of one prompt's prefill."""

    label: str
    context_len: int
    linear_seconds: float
    attention_seconds: float
    framework_seconds: float
    alloc_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """End-to-end prefill completion time (Table 6's first number)."""
        return (
            self.linear_seconds
            + self.attention_seconds
            + self.framework_seconds
            + self.alloc_seconds
        )

    @property
    def throughput(self) -> float:
        """Prompt tokens per second (Figure 7's metric)."""
        return self.context_len / self.total_seconds


def prefill_breakdown(
    label: str,
    shard: ShardedModel,
    gpu: GpuSpec,
    context_len: int,
) -> PrefillBreakdown:
    """Prefill completion breakdown for one paper configuration."""
    try:
        system = PAPER_CONFIGS[label]
    except KeyError:
        known = ", ".join(sorted(PAPER_CONFIGS))
        raise ConfigError(f"unknown system {label!r}; known: {known}") from None
    kernel = get_kernel(system.prefill_kernel, gpu)
    block_size = system.block_size if kernel.is_paged else None
    attention = kernel.prefill_time(shard, context_len, block_size)
    linear = linear_prefill_time(shard, gpu, context_len)

    framework = ITERATION_CPU_OVERHEAD
    if system.memory_backend == "paged":
        cost = block_table_cost(kernel.info.library)
        framework += cost.append_seconds(
            context_len, system.block_size, n_tensors=2 * shard.n_layers
        )
        blocks = -(-context_len // system.block_size)
        framework += cost.prepare_seconds([blocks])
    return PrefillBreakdown(
        label=label,
        context_len=context_len,
        linear_seconds=linear,
        attention_seconds=attention,
        framework_seconds=framework,
    )
