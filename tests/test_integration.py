"""Cross-module integration: full flows through the whole stack."""

import pytest

from repro.errors import AllocationFailed
from repro.experiments.common import PAPER_CONFIGS, paper_engine
from repro.gpu.spec import A100
from repro.models.zoo import LLAMA3_8B, YI_34B, YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.models.shard import ShardedModel
from repro.units import GB, KB
from repro.workloads.arrival import poisson_arrivals
from repro.workloads.traces import fixed_trace, sharegpt_trace


class TestPaperConfigurations:
    @pytest.mark.parametrize("label", sorted(PAPER_CONFIGS))
    def test_every_labeled_system_serves(self, label):
        engine = paper_engine(label, YI_6B, max_batch_size=4)
        engine.submit(fixed_trace(count=4, prompt_len=4_000, max_new_tokens=8))
        report = engine.run()
        assert len(report.finished_requests) == 4

    @pytest.mark.parametrize(
        "model", [YI_6B, LLAMA3_8B, YI_34B], ids=lambda m: m.name
    )
    def test_every_model_at_paper_deployment(self, model):
        engine = paper_engine("FA2_vAttention", model, max_batch_size=4)
        engine.submit(fixed_trace(count=2, prompt_len=8_000, max_new_tokens=8))
        report = engine.run()
        assert len(report.finished_requests) == 2

    def test_fa3_requires_hopper(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            paper_engine("FA3_vAttention", YI_6B, gpu=A100)

    def test_unknown_label(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            paper_engine("FA9_hyper", YI_6B)


class TestMemoryConservation:
    """Physical memory is exactly conserved across full serving runs."""

    @pytest.mark.parametrize("backend", ["vattention", "paged", "uvm"])
    def test_pool_consistent_after_run(self, backend):
        kernel = "fa2_paged" if backend == "paged" else "fa2"
        engine = LLMEngine(
            EngineConfig(
                shard=ShardedModel(YI_6B, 1),
                gpu=A100,
                memory_backend=backend,
                prefill_kernel=kernel,
                decode_kernel=kernel,
                block_size=256,
                max_batch_size=4,
            )
        )
        engine.submit(fixed_trace(count=6, prompt_len=3_000, max_new_tokens=10))
        engine.run()
        pool = engine.device.pool
        assert 0 <= pool.committed <= pool.capacity
        assert pool.high_water_mark <= pool.capacity

    def test_vattention_shutdown_returns_everything(self):
        engine = LLMEngine(
            EngineConfig(
                shard=ShardedModel(YI_6B, 1),
                gpu=A100,
                memory_backend="vattention",
                max_batch_size=4,
            )
        )
        engine.submit(fixed_trace(count=4, prompt_len=3_000, max_new_tokens=5))
        engine.run()
        engine.memory.backend.manager.shutdown()
        # Only rows were owned by vAttention; nothing leaks.
        assert engine.device.pool.committed == 0


class TestChatWorkloadEndToEnd:
    def test_sharegpt_trace_serves_with_small_pages(self):
        engine = paper_engine(
            "FA2_vAttention", YI_6B,
            max_batch_size=32, page_group_size=64 * KB,
        )
        arrivals = poisson_arrivals(5.0, 60, seed=9)
        engine.submit(sharegpt_trace(arrivals, seed=9))
        report = engine.run()
        assert len(report.finished_requests) == 60
        # Chat decodes dominate: more decode than prefill iterations.
        assert len(report.metrics.of_phase("decode")) > len(
            report.metrics.of_phase("prefill")
        )

    def test_identical_trace_identical_results(self):
        # The whole stack is deterministic end to end.
        def run():
            engine = paper_engine("FA2_vAttention", YI_6B, max_batch_size=8)
            arrivals = poisson_arrivals(2.0, 20, seed=5)
            engine.submit(sharegpt_trace(arrivals, seed=5))
            report = engine.run()
            return (
                report.makespan,
                tuple(sorted(report.e2e_latencies())),
            )

        assert run() == run()


class TestPressureScenarios:
    def test_single_oversized_request_fails_loudly(self):
        engine = LLMEngine(
            EngineConfig(
                shard=ShardedModel(YI_6B, 1),
                gpu=A100,
                memory_backend="vattention",
                max_batch_size=2,
                kv_budget_bytes=1 * GB,
                eager_allocation=False,
            )
        )
        # 16K prompt needs ~1GB; +growth it cannot fit in 1GB of rows.
        engine.submit(fixed_trace(count=1, prompt_len=16_380, max_new_tokens=5_000))
        with pytest.raises(AllocationFailed):
            engine.run()

    def test_partial_report_after_failure(self):
        engine = LLMEngine(
            EngineConfig(
                shard=ShardedModel(YI_6B, 1),
                gpu=A100,
                memory_backend="vattention",
                max_batch_size=2,
                kv_budget_bytes=1 * GB,
                eager_allocation=False,
            )
        )
        engine.submit(fixed_trace(count=1, prompt_len=2_000, max_new_tokens=5))
        engine.submit(fixed_trace(
            count=1, prompt_len=16_380, max_new_tokens=5_000, name="big",
            arrivals=[100.0],
        ))
        with pytest.raises(AllocationFailed):
            engine.run()
        report = engine.partial_report()
        assert len(report.finished_requests) == 1
