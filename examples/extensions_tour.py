"""Tour of the implemented extensions beyond the paper's evaluation.

Three capabilities the paper discusses but does not evaluate, all
implemented in this reproduction:

1. **Prefix KV de-duplication** (S8.1): requests sharing a system
   prompt alias its physical page-groups instead of recomputing or
   copying them.
2. **Swap-to-host preemption** (S5.3.3 future work): evicted requests
   move their KV cache over PCIe instead of recomputing the prefill.
3. **Chunked prefill** (reference [36]): long prompts stop stalling
   concurrent decodes.

Run:  python examples/extensions_tour.py
"""

from repro.core import VAttention, VAttentionConfig
from repro.gpu import A100, Device
from repro.memory import MemoryConfig
from repro.models import YI_6B, ShardedModel
from repro.serving.engine import EngineConfig, LLMEngine
from repro.units import GB, MB, fmt_bytes
from repro.workloads import fixed_trace


def demo_prefix_sharing() -> None:
    """Eight requests share one 8K system prompt physically."""
    print("1. prefix KV de-duplication (S8.1)")
    device = Device(A100, reserved_bytes=40 * GB)
    manager = VAttention(device, VAttentionConfig(
        shard=ShardedModel(YI_6B, 1),
        max_batch_size=8,
        page_group_size=2 * MB,
        eager_allocation=False,
    ))
    seq = [0] * 8
    leader = manager.alloc_reqid()
    seq[leader] = 8_192 + 256
    manager.step(seq)
    for _ in range(7):
        follower = manager.alloc_reqid()
        result = manager.share_prefix(leader, follower, 8_192)
        seq[follower] = 8_192 + 256
        manager.step(seq)
        assert result.fully_aliased
    print(f"   8 requests, one 8K prefix: physical "
          f"{fmt_bytes(manager.physical_bytes_in_use)}, "
          f"saved {fmt_bytes(manager.dedup_saved_bytes)} "
          f"({manager.stats.rows_aliased} page-group rows aliased)\n")
    manager.shutdown()


def demo_swap() -> None:
    """Oversubscribed decode: recompute vs swap preemption."""
    print("2. swap-to-host preemption (S5.3.3)")
    for mode in ("recompute", "swap"):
        engine = LLMEngine(EngineConfig(
            shard=ShardedModel(YI_6B, 1),
            gpu=A100,
            memory_backend="vattention",
            max_batch_size=4,
            kv_budget_bytes=3 * GB,
            memory=MemoryConfig(preemption_mode=mode),
            eager_allocation=False,
        ))
        engine.submit(fixed_trace(count=3, prompt_len=16_384,
                                  max_new_tokens=400))
        report = engine.run()
        prefills = len(report.metrics.of_phase("prefill"))
        print(f"   {mode:>9}: makespan {report.makespan:5.1f}s, "
              f"{prefills} prefills executed")
    print()


def demo_chunked_prefill() -> None:
    """A 64K prompt no longer stalls running decodes."""
    print("3. hybrid-batch chunked prefill (reference [36])")
    for budget in (None, 2_048):
        engine = LLMEngine(EngineConfig(
            shard=ShardedModel(YI_6B, 1),
            gpu=A100,
            memory_backend="vattention",
            max_batch_size=9,
            scheduler_policy="fcfs" if budget is None else "hybrid",
            sched_token_budget=budget or 1,
        ))
        chat = fixed_trace(count=8, prompt_len=2_000, max_new_tokens=300,
                           name="chat")
        long = fixed_trace(count=1, prompt_len=65_536, max_new_tokens=16,
                           name="long", arrivals=[2.0])
        engine.submit(chat + long)
        report = engine.run()
        progress = [
            r.start_time + r.latency
            for r in report.metrics.iterations
            if r.phase in ("decode", "mixed")
        ]
        stall = max(b - a for a, b in zip(progress, progress[1:]))
        name = "monolithic" if budget is None else f"budget={budget}"
        print(f"   {name:>11}: worst decode stall {stall:5.2f}s")
    print()


def main() -> None:
    demo_prefix_sharing()
    demo_swap()
    demo_chunked_prefill()
    print("all three compose with the unmodified vAttention step() API —")
    print("the scheduler decides what to run; memory management follows.")


if __name__ == "__main__":
    main()
