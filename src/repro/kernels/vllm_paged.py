"""vLLM's original PagedAttention decode kernel latency model.

vLLM pioneered PagedAttention but its kernel has lagged behind the
actively optimized FlashAttention-2 line (paper Table 1, S7.2): it lacks
FlashDecoding-style optimizations, so its latency penalty grows with the
model's GQA ratio (more query heads share each KV head, and the kernel
does not exploit that reuse).

Calibration sources:

* Table 7: the penalty over the FA2 kernel is 2.8x for Yi-6B (GQA 8),
  1.5x for Llama-3-8B (GQA 4), ~2.4x for Yi-34B (GQA 7). A linear fit
  ``0.325 * gqa_ratio + 0.2`` passes through the measured points.
* Figure 3: latency is highly sensitive to block size — blocks of
  64/128 are up to 1.9x slower than the recommended 16 (attributed to
  L1 cache hit-rate loss with large blocks).

vLLM has *no paged prefill kernel* (S7.2) — prefill runs a conventional
contiguous kernel and copies results into the block pool — so this model
only implements decode.
"""

from __future__ import annotations

from typing import Dict

from ..models.shard import ShardedModel
from .base import AttentionKernel, KernelInfo, KvLayout
from .costmodel import (
    EFF_DECODE_KV,
    attention_decode_time_total_series,
)

#: Figure 3: latency factor over block size 16, averaged across the
#: batch-size*context sweep (individual points vary by a few percent).
VLLM_BLOCK_SIZE_FACTOR: Dict[int, float] = {
    16: 1.00,
    32: 1.05,
    64: 1.44,
    128: 1.90,
}

#: Linear fit of Table 7's penalty-vs-GQA points (see module docstring).
GQA_PENALTY_SLOPE = 0.325
GQA_PENALTY_INTERCEPT = 0.2


def vllm_gqa_penalty(gqa_ratio: int) -> float:
    """vLLM decode-kernel slowdown over FA2 for a given GQA ratio."""
    return max(1.0, GQA_PENALTY_SLOPE * gqa_ratio + GQA_PENALTY_INTERCEPT)


class VllmPaged(AttentionKernel):
    """vLLM's PagedAttention decode kernel (the ``vLLM`` configuration)."""

    info = KernelInfo(
        name="vllm_paged",
        library="vLLM",
        layout=KvLayout.PAGED,
        supports_prefill=False,
        supports_decode=True,
        supported_block_sizes=(16, 32, 64, 128),
        best_block_size=16,
    )

    def _prefill_time(
        self, shard: ShardedModel, context_len: int, block_size: int
    ) -> float:  # pragma: no cover - guarded by supports_prefill
        raise AssertionError("vLLM has no paged prefill kernel")

    def _decode_time_total_series(
        self, shard: ShardedModel, totals, batch_size: int, block_size: int
    ):
        base = attention_decode_time_total_series(
            shard, self.gpu, totals, EFF_DECODE_KV
        )
        penalty = vllm_gqa_penalty(shard.model.gqa_ratio)
        factor = VLLM_BLOCK_SIZE_FACTOR[block_size]
        return [b * penalty * factor for b in base]
