"""Extension: hierarchical GPU→CPU KV tiering vs recompute preemption.

The paper's framework preempts with vLLM's recompute policy (S5.3.3);
the :class:`~repro.memory.manager.MemoryManager` adds a
``tiered`` preemption mode that demotes a victim's KV to a CPU tier at
the backend's own granularity (vAttention page-group rows, paged
blocks) and restores it on re-admission with a demand-paged PCIe
transfer instead of a quadratic-cost prefill.

This experiment measures what that buys *waiting* requests: a
memory-oversubscribed decode batch is joined by late arrivals whose
time-to-first-token is dominated by how quickly the GPU frees up. Under
``recompute``, every preemption re-runs a long prefill on re-admission,
stalling the queue; under ``tiered``, re-admission costs two linear
PCIe transfers. Expected shape: tiered wins on p99 TTFT under memory
pressure, and the gap widens with context length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..gpu.spec import A100, GpuSpec
from ..memory import MemoryConfig
from ..models.shard import ShardedModel
from ..models.zoo import YI_6B
from ..serving.engine import EngineConfig, LLMEngine
from ..workloads.traces import fixed_trace

#: Oversubscription point: batch of 3 at one-row slack (see bench).
PROMPTS = (8_192, 16_384, 32_768)
DECODE_TOKENS = 600
#: Resident batch plus this many late arrivals contending for memory.
LATE_ARRIVALS = 3
#: Seconds between late arrivals (staggered into the pressure window).
ARRIVAL_GAP = 5.0


@dataclass(frozen=True)
class TieringRow:
    """Both preemption policies at one context length."""

    prompt_len: int
    recompute_p99_ttft: float
    tiered_p99_ttft: float
    recompute_makespan: float
    tiered_makespan: float
    recompute_prefills: int
    tiered_prefills: int
    tier_transfers: int

    @property
    def ttft_speedup(self) -> float:
        """Recompute p99 TTFT over tiered (>1 = tiering wins)."""
        return self.recompute_p99_ttft / self.tiered_p99_ttft


def _run(prompt_len: int, mode: str, gpu: GpuSpec):
    # Budget sized to hold the resident batch's prompts with under one
    # row of slack, so decode growth forces preemptions while the late
    # arrivals queue behind the pressure.
    shard = ShardedModel(YI_6B, 1)
    batch = 3
    budget = int(batch * prompt_len * shard.kv_bytes_per_token * 1.02)
    engine = LLMEngine(
        EngineConfig(
            shard=shard,
            gpu=gpu,
            memory_backend="vattention",
            max_batch_size=batch + 1,
            kv_budget_bytes=budget,
            memory=MemoryConfig(preemption_mode=mode),
            eager_allocation=False,
        )
    )
    count = batch + LATE_ARRIVALS
    arrivals = [0.0] * batch + [
        ARRIVAL_GAP * (index + 1) for index in range(LATE_ARRIVALS)
    ]
    engine.submit(
        fixed_trace(count=count, prompt_len=prompt_len,
                    max_new_tokens=DECODE_TOKENS, arrivals=arrivals)
    )
    report = engine.run()
    prefills = len(report.metrics.of_phase("prefill"))
    tier = engine.memory.tier
    transfers = tier.stats.swap_ins if tier is not None else 0
    return report.p99_ttft(), report.makespan, prefills, transfers


def run(
    prompts: Sequence[int] = PROMPTS, gpu: GpuSpec = A100
) -> List[TieringRow]:
    """Compare the two policies across context lengths."""
    rows = []
    for prompt_len in prompts:
        recompute_ttft, recompute_makespan, recompute_prefills, _ = _run(
            prompt_len, "recompute", gpu
        )
        tiered_ttft, tiered_makespan, tiered_prefills, transfers = _run(
            prompt_len, "tiered", gpu
        )
        rows.append(
            TieringRow(
                prompt_len=prompt_len,
                recompute_p99_ttft=recompute_ttft,
                tiered_p99_ttft=tiered_ttft,
                recompute_makespan=recompute_makespan,
                tiered_makespan=tiered_makespan,
                recompute_prefills=recompute_prefills,
                tiered_prefills=tiered_prefills,
                tier_transfers=transfers,
            )
        )
    return rows


def main() -> None:
    """Print the comparison."""
    print("KV tiering: recompute (paper default) vs tiered GPU->CPU facade")
    for row in run():
        print(
            f"  ctx={row.prompt_len:>6}: recompute p99 TTFT "
            f"{row.recompute_p99_ttft:7.2f}s ({row.recompute_prefills} "
            f"prefills) | tiered {row.tiered_p99_ttft:7.2f}s "
            f"({row.tiered_prefills} prefills, {row.tier_transfers} "
            f"restores) | TTFT speedup {row.ttft_speedup:.2f}x"
        )


if __name__ == "__main__":
    main()
