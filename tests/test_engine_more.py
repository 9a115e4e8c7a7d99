"""Additional engine behaviours: record contents, budget overrides,
backend/policy combinations, iteration-level accounting."""

import pytest

from repro.gpu.spec import A100, H100
from repro.memory import MemoryConfig
from repro.models.shard import ShardedModel
from repro.models.zoo import LLAMA3_8B, YI_6B
from repro.serving.engine import (
    EngineConfig,
    ITERATION_CPU_OVERHEAD,
    LLMEngine,
)
from repro.units import GB, KB, MB
from repro.workloads.traces import fixed_trace


def make_engine(**overrides) -> LLMEngine:
    defaults = dict(
        shard=ShardedModel(YI_6B, 1),
        gpu=A100,
        memory_backend="vattention",
        max_batch_size=8,
    )
    defaults.update(overrides)
    return LLMEngine(EngineConfig(**defaults))


class TestIterationRecords:
    def test_prefill_record_tokens_equal_prompt(self):
        engine = make_engine()
        engine.submit(fixed_trace(count=1, prompt_len=5_000, max_new_tokens=2))
        report = engine.run()
        (prefill,) = report.metrics.of_phase("prefill")
        assert prefill.tokens == 5_000
        assert prefill.batch_size == 1
        assert prefill.latency > 0

    def test_decode_records_count_tokens(self):
        engine = make_engine()
        engine.submit(fixed_trace(count=3, prompt_len=1_000, max_new_tokens=6))
        report = engine.run()
        decode_tokens = sum(
            r.tokens for r in report.metrics.of_phase("decode")
        )
        assert decode_tokens == 3 * 5  # prefill emits token #1

    def test_alloc_sync_visible_when_overlap_disabled(self):
        engine = make_engine(
            overlap_allocation=False, eager_allocation=False,
            deferred_reclamation=False,
        )
        engine.submit(fixed_trace(count=1, prompt_len=8_192, max_new_tokens=2))
        report = engine.run()
        (prefill,) = report.metrics.of_phase("prefill")
        assert prefill.alloc_sync > 0

    def test_latency_floor_is_cpu_overhead(self):
        engine = make_engine()
        engine.submit(fixed_trace(count=1, prompt_len=100, max_new_tokens=2))
        report = engine.run()
        assert all(
            r.latency >= ITERATION_CPU_OVERHEAD
            for r in report.metrics.iterations
        )


class TestBudgetOverride:
    def test_kv_budget_caps_pool(self):
        engine = make_engine(kv_budget_bytes=2 * GB)
        assert engine.device.pool.capacity <= 2 * GB

    def test_budget_below_weights_still_validates(self):
        # The cap only ever *adds* reservation; weights stay accounted.
        engine = make_engine(kv_budget_bytes=60 * GB)
        weights = engine.config.shard.weight_bytes_per_worker
        assert engine.device.reserved_bytes >= weights

    def test_tiny_budget_rejected_at_manager_level(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            make_engine(kv_budget_bytes=1 * MB)  # below one row


class TestPolicyMatrix:
    @pytest.mark.parametrize("backend,kernels,block", [
        ("vattention", ("fa2", "fa2"), 16),
        ("paged", ("fa2_paged", "fa2_paged"), 256),
    ])
    @pytest.mark.parametrize("chunk", [None, 2_048])
    def test_backend_x_chunking(self, backend, kernels, block, chunk):
        engine = make_engine(
            memory_backend=backend,
            prefill_kernel=kernels[0],
            decode_kernel=kernels[1],
            block_size=block,
            prefill_chunk_size=chunk,
        )
        engine.submit(fixed_trace(count=3, prompt_len=5_000, max_new_tokens=6))
        report = engine.run()
        assert len(report.finished_requests) == 3

    def test_swap_plus_chunked_compose(self):
        engine = make_engine(
            memory=MemoryConfig(preemption_mode="swap"),
            prefill_chunk_size=2_048,
            kv_budget_bytes=3 * GB,
            eager_allocation=False,
        )
        engine.submit(
            fixed_trace(count=3, prompt_len=16_384, max_new_tokens=200)
        )
        report = engine.run()
        assert len(report.finished_requests) == 3

    def test_small_pages_end_to_end(self):
        engine = make_engine(page_group_size=64 * KB)
        engine.submit(fixed_trace(count=4, prompt_len=2_000, max_new_tokens=8))
        report = engine.run()
        assert len(report.finished_requests) == 4
        # 64-token rows: mapping counters reflect the finer granularity.
        rows_mapped = engine.memory.backend.manager.stats.rows_mapped
        assert rows_mapped >= 4 * (2_000 // 64)

    def test_h100_chunked_fa3(self):
        engine = make_engine(
            gpu=H100, prefill_kernel="fa3", decode_kernel="fa3",
            prefill_chunk_size=4_096,
        )
        engine.submit(fixed_trace(count=2, prompt_len=16_000, max_new_tokens=5))
        report = engine.run()
        assert len(report.finished_requests) == 2


class TestTpDeployments:
    def test_tp2_iteration_faster_than_tp1(self):
        def makespan(tp):
            engine = make_engine(shard=ShardedModel(LLAMA3_8B, tp))
            engine.submit(
                fixed_trace(count=2, prompt_len=32_000, max_new_tokens=10)
            )
            return engine.run().makespan

        assert makespan(2) < makespan(1)

    def test_tp2_halves_per_worker_kv(self):
        tp1 = make_engine(shard=ShardedModel(LLAMA3_8B, 1))
        tp2 = make_engine(shard=ShardedModel(LLAMA3_8B, 2))
        row1 = tp1.memory.backend.manager.config.row_bytes
        row2 = tp2.memory.backend.manager.config.row_bytes
        assert row1 == row2  # same 2N x 2MB rows...
        assert (
            tp2.memory.backend.manager.config.tokens_per_page_group
            == 2 * tp1.memory.backend.manager.config.tokens_per_page_group
        )  # ...but each row holds twice the tokens per worker


class TestRunReportContents:
    def test_report_covers_all_requests(self):
        engine = make_engine()
        engine.submit(fixed_trace(count=5, prompt_len=500, max_new_tokens=3))
        report = engine.run()
        assert len(report.requests) == 5
        assert report.requests_per_minute() > 0
        assert report.median_latency() <= report.p99_latency()

    def test_ttft_precedes_finish(self):
        engine = make_engine()
        engine.submit(fixed_trace(count=2, prompt_len=4_000, max_new_tokens=10))
        report = engine.run()
        for request in report.finished_requests:
            assert request.ttft <= request.e2e_latency
