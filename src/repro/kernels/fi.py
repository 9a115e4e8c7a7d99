"""FlashInfer kernel latency models (paged and non-paged).

Calibration sources:

* Non-paged prefill: Table 6 shows FI_vAttention's attention time is
  essentially identical to FA2_vAttention (both build on FlashDecoding),
  so it shares the FA2 roofline efficiency.
* Paged prefill overhead: Figure 2 (1.42x at 1K, ~1.25x through 32K)
  extended by Table 6's long-context attention-time ratios (~1.09-1.11x
  at 64K-192K). FlashInfer uses a *compressed* Block-Table, whose
  construction cost shows up as CPU overhead (modeled in the paged
  serving backend, not here).
* Paged decode: Table 7 measurements relative to the non-paged FA2
  kernel vary with the model's GQA ratio and the batch size; we encode
  the measured points and interpolate.
* Non-paged decode: "FlashInfer's non-paged decode kernel has
  significantly higher latency (up to 14.6x)" (S7.2) — which is why
  vAttention pairs FlashInfer prefill with the FA2 decode kernel.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from ..models.shard import ShardedModel
from .base import AttentionKernel, KernelInfo, KvLayout
from .costmodel import (
    EFF_DECODE_KV,
    attention_decode_time_total_series,
    attention_prefill_time,
    interp_factor,
)
from .fa2 import fa2_prefill_efficiency

#: Figure 2 (1K-32K) + Table 6 attention ratios (64K-192K): paged prefill
#: overhead over the corresponding non-paged FlashInfer kernel.
FI_PAGED_PREFILL_OVERHEAD: Tuple[Tuple[int, float], ...] = (
    (1_024, 1.42),
    (2_048, 1.25),
    (4_096, 1.28),
    (8_192, 1.25),
    (16_384, 1.25),
    (32_768, 1.26),
    (65_536, 1.11),
    (131_072, 1.09),
    (196_608, 1.09),
)

#: Table 7: FI_Paged decode latency relative to the non-paged FA2 kernel,
#: measured at (batch size -> factor), keyed by the model's GQA ratio.
#: Yi-6B has ratio 8, Llama-3-8B ratio 4, Yi-34B ratio 7.
FI_PAGED_DECODE_FACTOR: Dict[int, Tuple[Tuple[int, float], ...]] = {
    4: ((16, 1.03), (32, 0.95)),
    7: ((12, 1.39), (16, 1.32), (32, 1.15)),
    8: ((12, 1.40), (16, 1.35), (32, 1.00)),
}

#: S7.2: FlashInfer's *non-paged* decode kernel is up to 14.6x slower
#: than the FA2/vLLM-class decode kernels.
FI_NONPAGED_DECODE_FACTOR = 14.6


@lru_cache(maxsize=None)
def _decode_factor(gqa_ratio: int, batch_size: int) -> float:
    """Interpolated FI_Paged decode factor for a model/batch point.

    Memoized: the factor is re-read every decode iteration and its
    operand space is tiny (a few GQA ratios x batch sizes).
    """
    key = min(FI_PAGED_DECODE_FACTOR, key=lambda g: abs(g - gqa_ratio))
    return interp_factor(FI_PAGED_DECODE_FACTOR[key], max(batch_size, 1))


class FlashInfer(AttentionKernel):
    """Non-paged FlashInfer kernels (the ``FI_vAttention`` configuration).

    Note: vAttention uses this library's *prefill* kernel only; its
    non-paged decode kernel is uncompetitive (S7.2) and the serving
    engine pairs FI prefill with FA2 decode, as the paper does.
    """

    info = KernelInfo(
        name="fi",
        library="FlashInfer",
        layout=KvLayout.CONTIGUOUS,
        supports_prefill=True,
        supports_decode=True,
    )

    def _prefill_time(
        self, shard: ShardedModel, context_len: int, block_size: int
    ) -> float:
        return attention_prefill_time(
            shard, self.gpu, context_len, fa2_prefill_efficiency(self.gpu)
        )

    def _decode_time_total_series(
        self, shard: ShardedModel, totals, batch_size: int, block_size: int
    ):
        base = attention_decode_time_total_series(
            shard, self.gpu, totals, EFF_DECODE_KV
        )
        return [b * FI_NONPAGED_DECODE_FACTOR for b in base]


class FlashInferPaged(AttentionKernel):
    """PagedAttention-based FlashInfer kernels (``FI_Paged``)."""

    info = KernelInfo(
        name="fi_paged",
        library="FlashInfer",
        layout=KvLayout.PAGED,
        supports_prefill=True,
        supports_decode=True,
        supported_block_sizes=(16, 32, 64, 128),
        best_block_size=16,
    )

    def _prefill_time(
        self, shard: ShardedModel, context_len: int, block_size: int
    ) -> float:
        base = attention_prefill_time(
            shard, self.gpu, context_len, fa2_prefill_efficiency(self.gpu)
        )
        return base * interp_factor(FI_PAGED_PREFILL_OVERHEAD, max(context_len, 1))

    def _decode_time_total_series(
        self, shard: ShardedModel, totals, batch_size: int, block_size: int
    ):
        base = attention_decode_time_total_series(
            shard, self.gpu, totals, EFF_DECODE_KV
        )
        factor = _decode_factor(shard.model.gqa_ratio, batch_size)
        return [b * factor for b in base]
