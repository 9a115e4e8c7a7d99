"""Figure 4: decode throughput and memory-allocation demand vs batch size.

Paper setup (S4): initial context 1K, batch 1-320, the three evaluated
models at their TP degrees. Both decode throughput (4a) and the physical
memory allocation rate (4b) saturate with batch size; the peak
allocation rate is at most ~750MB/s — more than an order of magnitude
below what CUDA VMM mapping sustains (Table 9), which is the headroom
vAttention's design depends on.

The allocation rate follows from throughput: every generated token
consumes ``kv_bytes_per_token`` fresh KV cache across the deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..gpu.spec import A100, GpuSpec
from ..kernels.costmodel import decode_iteration_seconds
from ..kernels.registry import get_kernel
from ..models.config import ModelConfig
from ..models.shard import ShardedModel
from ..models.zoo import EVALUATED_MODELS

DEFAULT_BATCHES = (1, 64, 128, 192, 256, 300)
INITIAL_CONTEXT = 1_024


@dataclass(frozen=True)
class Fig4Row:
    """One (model, batch size) point of Figure 4."""

    model: str
    batch_size: int
    tokens_per_second: float
    alloc_mb_per_second: float


def decode_iteration_latency(
    shard: ShardedModel,
    gpu: GpuSpec,
    batch_size: int,
    context_len: int,
) -> float:
    """Latency of one decode iteration with the FA2 kernel (no memory
    backend, so no framework overhead)."""
    (latency,) = decode_iteration_seconds(
        shard,
        gpu,
        get_kernel("fa2", gpu),
        None,
        batch_size,
        (context_len * batch_size,),
        (0.0,),
    )
    return latency


def run(
    batches: Sequence[int] = DEFAULT_BATCHES,
    context_len: int = INITIAL_CONTEXT,
    gpu: GpuSpec = A100,
    models: Sequence[Tuple[ModelConfig, int]] = EVALUATED_MODELS,
) -> List[Fig4Row]:
    """Compute the Figure 4 series for all evaluated models."""
    rows = []
    for model, tp_degree in models:
        shard = ShardedModel(model, tp_degree)
        for batch in batches:
            latency = decode_iteration_latency(shard, gpu, batch, context_len)
            tokens_per_second = batch / latency
            alloc_rate = tokens_per_second * model.kv_bytes_per_token
            rows.append(
                Fig4Row(
                    model=model.name,
                    batch_size=batch,
                    tokens_per_second=tokens_per_second,
                    alloc_mb_per_second=alloc_rate / (1024 * 1024),
                )
            )
    return rows


def peak_allocation_rate_mb(rows: Sequence[Fig4Row]) -> float:
    """Highest allocation rate across the sweep (paper: <= ~750MB/s)."""
    return max(row.alloc_mb_per_second for row in rows)


def main() -> None:
    """Print both panels of Figure 4."""
    print("Figure 4: decode throughput and allocation rate vs batch size")
    print(f"{'model':>12} {'batch':>6} {'tokens/s':>10} {'alloc MB/s':>11}")
    for row in run():
        print(
            f"{row.model:>12} {row.batch_size:>6} "
            f"{row.tokens_per_second:>10.0f} {row.alloc_mb_per_second:>11.1f}"
        )
    print(f"peak allocation rate: {peak_allocation_rate_mb(run()):.0f} MB/s")


if __name__ == "__main__":
    main()
