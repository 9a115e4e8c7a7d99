"""Prefix-cache subsystem: engine integration, traces, eviction."""

import pytest

from repro.cache.manager import PrefixCacheManager
from repro.errors import ConfigError
from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.serving.request import PrefixDescriptor, Request
from repro.units import GB, MB
from repro.workloads.traces import (
    multi_turn_trace,
    shared_prefix_trace,
    trace_statistics,
)


def build_engine(enabled: bool = True, **overrides) -> LLMEngine:
    config = dict(
        shard=ShardedModel(YI_6B, 1),
        gpu=A100,
        memory_backend="vattention",
        max_batch_size=8,
        memory=MemoryConfig(enable_prefix_cache=enabled),
    )
    config.update(overrides)
    return LLMEngine(EngineConfig(**config))


def serve(engine: LLMEngine, trace):
    engine.submit(trace)
    report = engine.run()
    ttfts = [r.ttft for r in report.finished_requests]
    return report, sum(ttfts) / len(ttfts)


class TestConfig:
    def test_requires_sharing_capable_backend(self):
        # vattention (page aliasing) and paged (block pool) can share
        # KV; uvm and static slots cannot.
        for backend in ("static", "uvm"):
            with pytest.raises(ConfigError, match="unsupported"):
                EngineConfig(
                    shard=ShardedModel(YI_6B, 1),
                    gpu=A100,
                    memory_backend=backend,
                    memory=MemoryConfig(enable_prefix_cache=True),
                )
        for backend in ("vattention", "paged"):
            EngineConfig(
                shard=ShardedModel(YI_6B, 1),
                gpu=A100,
                memory_backend=backend,
                memory=MemoryConfig(enable_prefix_cache=True),
            )

    def test_cache_slots_must_be_positive(self):
        with pytest.raises(ConfigError):
            build_engine(memory=MemoryConfig(
                enable_prefix_cache=True, prefix_cache_slots=0
            ))

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            build_engine(memory=MemoryConfig(
                enable_prefix_cache=True, prefix_cache_budget_bytes=-1
            ))

    def test_wrapper_exposes_vattention_manager(self):
        # The cache shares rows through the engine's own vattention
        # backend; introspection goes through engine.memory.backend.
        engine = build_engine(True)
        vattention = engine.memory.backend.manager
        assert engine.memory.cache.adapter.manager is vattention

    def test_enabled_engine_wraps_memory(self):
        engine = build_engine(True)
        assert isinstance(engine.memory.cache, PrefixCacheManager)

    def test_disabled_engine_unwrapped(self):
        engine = build_engine(False)
        assert engine.memory.cache is None


class TestPrefixDescriptor:
    def test_descriptor_longer_than_prompt_rejected(self):
        with pytest.raises(ConfigError):
            Request(
                request_id="r",
                prompt_len=4,
                max_new_tokens=4,
                prefix=PrefixDescriptor(group="g", token_ids=(1, 2, 3, 4, 5)),
            )

    def test_empty_descriptor_rejected(self):
        with pytest.raises(ConfigError):
            PrefixDescriptor(group="g", token_ids=())

    def test_preemption_resets_cached_prefix(self):
        request = Request(request_id="r", prompt_len=10, max_new_tokens=4)
        from repro.serving.request import RequestState

        request.state = RequestState.RUNNING
        request.apply_cached_prefix(6)
        assert request.prefilled_tokens == 6
        request.preempt()
        assert request.cached_prefix_tokens == 0
        assert request.prefilled_tokens == 0


class TestEndToEnd:
    def test_shared_prompts_strictly_faster(self):
        # The acceptance criterion: sharing factor >= 8 must strictly
        # beat the cache-less engine on prefill throughput and TTFT.
        def trace():
            return shared_prefix_trace(
                count=24, sharing_factor=8, prefix_tokens=8_192
            )

        report_off, ttft_off = serve(build_engine(False), trace())
        report_on, ttft_on = serve(build_engine(True), trace())
        assert len(report_on.finished_requests) == 24
        tp_off = report_off.metrics.prefill_throughput()
        tp_on = report_on.metrics.prefill_throughput()
        assert tp_on > tp_off
        assert ttft_on < ttft_off

    def test_stats_in_run_report(self):
        report, _ = serve(
            build_engine(True),
            shared_prefix_trace(count=24, sharing_factor=8,
                                prefix_tokens=8_192),
        )
        cache = report.prefix_cache
        assert cache is not None
        assert cache.lookups == 24
        assert cache.hits > 0
        assert cache.aliased_rows > 0
        assert cache.bytes_saved > 0
        assert cache.retained > 0
        assert cache.hit_rate == cache.hits / cache.lookups

    def test_disabled_engine_reports_no_cache(self):
        report, _ = serve(
            build_engine(False),
            shared_prefix_trace(count=8, sharing_factor=4),
        )
        assert report.prefix_cache is None

    def test_no_sharing_no_hits_no_harm(self):
        def trace():
            return shared_prefix_trace(
                count=16, sharing_factor=1, prefix_tokens=2_048
            )

        report_off, _ = serve(build_engine(False), trace())
        report_on, _ = serve(build_engine(True), trace())
        assert report_on.prefix_cache.hits == 0
        # Misses must not slow serving down.
        assert report_on.makespan == pytest.approx(
            report_off.makespan, rel=1e-6
        )

    def test_requests_without_descriptors_run_unchanged(self):
        from repro.workloads.traces import fixed_trace

        def trace():
            return fixed_trace(count=6, prompt_len=4_096, max_new_tokens=32)

        report_off, _ = serve(build_engine(False), trace())
        report_on, _ = serve(build_engine(True), trace())
        assert report_on.prefix_cache.lookups == 0
        assert report_on.makespan == pytest.approx(
            report_off.makespan, rel=1e-6
        )

    def test_multi_turn_sessions_hit(self):
        report, _ = serve(
            build_engine(True), multi_turn_trace(sessions=4, turns=3)
        )
        cache = report.prefix_cache
        # Every follow-up turn extends its session's history: 2 of 3
        # turns per session can reuse the cache.
        assert cache.hits >= 4
        assert cache.hit_tokens > 0
        assert len(report.finished_requests) == 12

    def test_chunked_prefill_composes_with_cache(self):
        def trace():
            return shared_prefix_trace(
                count=16, sharing_factor=8, prefix_tokens=8_192
            )

        report_off, ttft_off = serve(
            build_engine(False, prefill_chunk_size=2_048), trace()
        )
        report_on, ttft_on = serve(
            build_engine(True, prefill_chunk_size=2_048), trace()
        )
        assert report_on.prefix_cache.hits > 0
        assert len(report_on.finished_requests) == 16
        assert ttft_on < ttft_off

    def test_prefill_token_accounting_consistent_across_modes(self):
        # Both prefill modes account *served* prompt tokens: total
        # prefill-side tokens equal the trace's prompt tokens whether
        # prompts run monolithically or chunked, cache hits included.
        def trace():
            return shared_prefix_trace(
                count=12, sharing_factor=6, prefix_tokens=8_192
            )

        expected = sum(r.prompt_len for r in trace())
        mono, _ = serve(build_engine(True), trace())
        chunked, _ = serve(
            build_engine(True, prefill_chunk_size=2_048), trace()
        )
        mono_tokens = sum(
            r.tokens for r in mono.metrics.of_phase("prefill")
        )
        chunked_tokens = sum(
            r.tokens - (r.batch_size - 1)  # decode piggyback tokens
            for r in chunked.metrics.of_phase("mixed")
        )
        assert mono_tokens == expected
        assert chunked_tokens == expected

    def test_dedup_bytes_visible_while_sharing(self):
        engine = build_engine(True)
        engine.submit(
            shared_prefix_trace(count=16, sharing_factor=8,
                                prefix_tokens=8_192)
        )
        engine.run()
        # Cumulative savings survive in the final report.
        assert engine.memory.cache.report().bytes_saved > 0


class TestRetainedSlots:
    def test_retained_slot_does_not_grow_lookahead_rows(self):
        # A retained prefix slot never decodes; background overlap
        # allocation must not keep pre-mapping a lookahead row for it
        # (which would pin unreclaimable memory). 8192 tokens is
        # exactly 4 page-group rows for Yi-6B at 2MB page groups.
        engine = build_engine(True)
        trace = shared_prefix_trace(
            count=8, sharing_factor=4, prefix_tokens=8_192,
        )
        engine.submit(trace)
        engine.run()
        vat = engine.memory.backend.manager
        rows_needed = {
            e.slot: vat.rows_for_context(e.tokens)
            for e in engine.memory.cache.tree.entries
            if not e.live
        }
        assert rows_needed
        for slot_id, needed in rows_needed.items():
            assert vat.slots[slot_id].frozen
            assert vat.slots[slot_id].mapped_rows == needed


class TestEvictionAndBudget:
    def test_budget_bounds_retained_bytes(self):
        budget = 2 * GB
        report, _ = serve(
            build_engine(True, memory=MemoryConfig(
                enable_prefix_cache=True, prefix_cache_budget_bytes=budget
            )),
            shared_prefix_trace(count=24, sharing_factor=4,
                                prefix_tokens=8_192),
        )
        cache = report.prefix_cache
        assert cache.cached_bytes <= budget
        assert cache.evictions > 0

    def test_zero_ish_budget_still_serves_from_live_entries(self):
        def trace():
            return shared_prefix_trace(
                count=24, sharing_factor=8, prefix_tokens=8_192
            )

        report_off, ttft_off = serve(build_engine(False), trace())
        report_on, ttft_on = serve(
            build_engine(True, memory=MemoryConfig(
                enable_prefix_cache=True, prefix_cache_budget_bytes=1 * MB
            )), trace()
        )
        assert report_on.prefix_cache.hits > 0
        assert ttft_on < ttft_off

    def test_memory_pressure_evicts_instead_of_starving(self):
        # A KV budget sized so cached prefixes must be evicted to admit
        # new work: the run must still complete every request.
        report, _ = serve(
            build_engine(True, kv_budget_bytes=3 * GB, max_batch_size=4),
            shared_prefix_trace(count=12, sharing_factor=4,
                                prefix_tokens=8_192),
        )
        assert len(report.finished_requests) == 12
        assert report.prefix_cache.evictions > 0
        assert report.prefix_cache.evicted_rows > 0
        assert report.prefix_cache.hits > 0  # still serving hits


class TestTraces:
    def test_shared_prefix_groups(self):
        trace = shared_prefix_trace(count=12, sharing_factor=4,
                                    prefix_tokens=100)
        groups = {r.prefix.group for r in trace}
        assert len(groups) == 3
        by_group = {}
        for request in trace:
            by_group.setdefault(request.prefix.group, []).append(request)
        for members in by_group.values():
            first = members[0].prefix.token_ids[:100]
            assert all(m.prefix.token_ids[:100] == first for m in members)
        # Private suffixes never collide across requests.
        suffixes = [r.prefix.token_ids[100:] for r in trace]
        assert len({s[0] for s in suffixes}) == len(trace)

    def test_shared_prefix_statistics(self):
        trace = shared_prefix_trace(count=32, sharing_factor=8)
        stats = trace_statistics(trace)
        assert stats["count"] == 32
        assert stats["prompt_min"] >= 2_048  # prefix + suffix

    def test_sharing_factor_one_unique_prefixes(self):
        trace = shared_prefix_trace(count=8, sharing_factor=1,
                                    prefix_tokens=64)
        firsts = {r.prefix.token_ids[0] for r in trace}
        assert len(firsts) == 8

    def test_multi_turn_prefix_growth(self):
        trace = multi_turn_trace(sessions=1, turns=3, turn_gap=10.0)
        assert len(trace) == 3
        t0, t1, t2 = trace
        assert t1.prefix.token_ids[: len(t0.prefix.token_ids)] == \
            t0.prefix.token_ids
        assert t2.prefix.token_ids[: len(t1.prefix.token_ids)] == \
            t1.prefix.token_ids
        assert t0.arrival_time < t1.arrival_time < t2.arrival_time

    def test_multi_turn_includes_responses_in_history(self):
        trace = multi_turn_trace(sessions=1, turns=2)
        t0, t1 = trace
        # Turn 1's prompt = turn 0's prompt + its response + new text.
        assert t1.prompt_len > t0.prompt_len + t0.max_new_tokens

    def test_trace_validation(self):
        with pytest.raises(ConfigError):
            shared_prefix_trace(count=0, sharing_factor=4)
        with pytest.raises(ConfigError):
            shared_prefix_trace(count=4, sharing_factor=0)
        with pytest.raises(ConfigError):
            multi_turn_trace(sessions=0, turns=2)
        with pytest.raises(ConfigError):
            multi_turn_trace(sessions=1, turns=1, turn_gap=-1.0)
