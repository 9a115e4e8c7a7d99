"""Swap-to-host preemption extension (paper S5.3.3 future work)."""

import math

import pytest

from repro.errors import ConfigError, SchedulingError
from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.memory.tier import PCIE_BANDWIDTH, CpuKvTier
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.serving.request import Request, RequestState
from repro.units import GB, MB
from repro.workloads.traces import fixed_trace


class TestHostSwapSpace:
    def test_transfer_latency_is_bytes_over_bandwidth(self):
        space = CpuKvTier(capacity=1 * GB)
        seconds = space.swap_out("r1", 250 * MB)
        assert seconds == pytest.approx(250 * MB / PCIE_BANDWIDTH)
        assert space.swap_in("r1") == pytest.approx(seconds)

    def test_capacity_accounting(self):
        space = CpuKvTier(capacity=1 * GB)
        space.swap_out("r1", 600 * MB)
        assert space.available == 1 * GB - 600 * MB
        assert not space.can_swap_out(600 * MB)
        assert space.stats.rejected_for_capacity == 1

    def test_swap_in_frees_host_memory(self):
        space = CpuKvTier(capacity=1 * GB)
        space.swap_out("r1", 600 * MB)
        space.swap_in("r1")
        assert space.used == 0
        assert not space.holds("r1")

    def test_double_swap_out_rejected(self):
        space = CpuKvTier(capacity=1 * GB)
        space.swap_out("r1", 1 * MB)
        with pytest.raises(SchedulingError):
            space.swap_out("r1", 1 * MB)

    def test_swap_in_of_absent_rejected(self):
        with pytest.raises(SchedulingError):
            CpuKvTier(capacity=1 * GB).swap_in("ghost")

    def test_overflow_rejected(self):
        space = CpuKvTier(capacity=1 * MB)
        with pytest.raises(SchedulingError):
            space.swap_out("big", 2 * MB)

    def test_drop(self):
        space = CpuKvTier(capacity=1 * GB)
        space.swap_out("r1", 1 * MB)
        space.drop("r1")
        assert space.used == 0

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            CpuKvTier(capacity=0)
        with pytest.raises(ConfigError):
            CpuKvTier(capacity=1, bandwidth=0)

    def test_stats_accumulate(self):
        space = CpuKvTier(capacity=1 * GB)
        space.swap_out("r1", 100 * MB)
        space.swap_in("r1")
        assert space.stats.swap_outs == 1
        assert space.stats.swap_ins == 1
        assert space.stats.bytes_out == 100 * MB
        assert space.stats.bytes_in == 100 * MB


class TestRequestSwapSemantics:
    def test_preempt_swap_preserves_decode_state(self):
        request = Request(request_id="r", prompt_len=100, max_new_tokens=10)
        request.state = RequestState.RUNNING
        request.record_prefill(now=0.0)
        request.record_decode_token(now=1.0)
        request.preempt_swap()
        assert request.swapped
        assert request.prefill_done
        assert request.generated == 2
        assert request.resident_tokens_needed == request.context_len

    def test_preempt_swap_before_prefill_falls_back(self):
        request = Request(request_id="r", prompt_len=100, max_new_tokens=10)
        request.state = RequestState.RUNNING
        request.preempt_swap()
        assert not request.swapped  # nothing to swap; recompute semantics
        assert not request.prefill_done

    def test_resident_tokens_fresh_request(self):
        request = Request(request_id="r", prompt_len=100, max_new_tokens=10)
        assert request.resident_tokens_needed == 100


def engine_with(mode: str) -> LLMEngine:
    return LLMEngine(
        EngineConfig(
            shard=ShardedModel(YI_6B, 1),
            gpu=A100,
            memory_backend="vattention",
            max_batch_size=4,
            kv_budget_bytes=3 * GB,
            memory=MemoryConfig(preemption_mode=mode),
            eager_allocation=False,
        )
    )


class TestEngineIntegration:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            engine_with("hibernate")

    def test_recompute_mode_has_no_swap_space(self):
        assert engine_with("recompute").memory.tier is None

    def test_swap_avoids_recomputed_prefills(self):
        # 3 x 16384-token prompts exactly fill the 3GB budget; decode
        # growth forces a preemption.
        results = {}
        for mode in ("recompute", "swap"):
            engine = engine_with(mode)
            engine.submit(
                fixed_trace(count=3, prompt_len=16_384, max_new_tokens=300)
            )
            report = engine.run()
            results[mode] = (
                len(report.metrics.of_phase("prefill")),
                report.makespan,
                len(report.finished_requests),
            )
        recompute_prefills, recompute_time, done_r = results["recompute"]
        swap_prefills, swap_time, done_s = results["swap"]
        assert done_r == done_s == 3
        assert swap_prefills < recompute_prefills
        assert swap_time < recompute_time

    def test_swap_transfers_accounted(self):
        engine = engine_with("swap")
        engine.submit(
            fixed_trace(count=3, prompt_len=16_384, max_new_tokens=300)
        )
        engine.run()
        stats = engine.memory.tier.stats
        assert stats.swap_outs == stats.swap_ins  # all restored
        assert stats.swap_outs >= 1
        assert stats.seconds_out > 0

    def test_admit_charges_swap_in_and_clears_flag(self):
        # The swap-in admission path of LLMEngine._admit: a request
        # preempted with its KV in host memory must, on re-admission,
        # pay the PCIe transfer on the clock and come back resident.
        engine = engine_with("swap")
        engine.submit(
            fixed_trace(count=1, prompt_len=16_384, max_new_tokens=300)
        )
        for _ in range(3):  # prefill + a couple of decodes
            engine.run_until(math.nextafter(engine.clock.now, math.inf))
        (victim,) = engine._running
        assert victim.prefill_done

        # Preempt exactly the way _prepare_or_preempt does.
        nbytes = victim.context_len * engine.config.shard.kv_bytes_per_token
        engine._preempt(victim)
        assert victim.state is RequestState.QUEUED
        assert victim.swapped
        assert engine.memory.tier.holds(victim.request_id)

        before = engine.clock.now
        engine._admit()
        # Re-admitted, resident again, PCIe latency on the clock.
        assert victim.state is RequestState.RUNNING
        assert not victim.swapped
        assert not engine.memory.tier.holds(victim.request_id)
        expected = nbytes / PCIE_BANDWIDTH
        assert engine.clock.now - before == pytest.approx(expected)
        assert engine.memory.tier.stats.swap_ins == 1
        # The restored request decodes to completion without another
        # prefill (its KV survived the round trip).
        report = engine.run()
        assert len(report.finished_requests) == 1
        assert len(report.metrics.of_phase("prefill")) == 1

    def test_swap_capacity_falls_back_to_recompute(self):
        engine = LLMEngine(
            EngineConfig(
                shard=ShardedModel(YI_6B, 1),
                gpu=A100,
                memory_backend="vattention",
                max_batch_size=4,
                kv_budget_bytes=3 * GB,
                memory=MemoryConfig(
                    preemption_mode="swap",
                    swap_host_bytes=1 * MB,  # too small for any KV cache
                ),
                eager_allocation=False,
            )
        )
        engine.submit(
            fixed_trace(count=3, prompt_len=16_384, max_new_tokens=300)
        )
        report = engine.run()
        assert len(report.finished_requests) == 3
        assert engine.memory.tier.stats.swap_outs == 0
        assert engine.memory.tier.stats.rejected_for_capacity >= 1
