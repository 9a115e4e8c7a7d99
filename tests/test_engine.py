"""Continuous-batching engine: Algorithm 1 end to end."""

import math

import pytest

from repro.errors import ConfigError
from repro.experiments.ext_cluster_router import build_cluster, cluster_trace
from repro.gpu.spec import A100, H100
from repro.memory import MemoryConfig
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.serving.request import Request
from repro.units import GB
from repro.workloads.arrival import poisson_arrivals
from repro.workloads.traces import (
    fixed_trace,
    openchat_trace,
    shared_prefix_trace,
)


def make_engine(**overrides) -> LLMEngine:
    defaults = dict(
        shard=ShardedModel(YI_6B, 1),
        gpu=A100,
        memory_backend="vattention",
        prefill_kernel="fa2",
        decode_kernel="fa2",
        max_batch_size=8,
    )
    defaults.update(overrides)
    return LLMEngine(EngineConfig(**defaults))


class TestConfigValidation:
    def test_decode_kernel_layout_must_match_backend(self):
        # A non-paged kernel cannot read a paged pool...
        with pytest.raises(ConfigError):
            make_engine(memory_backend="paged", decode_kernel="fa2")
        # ...and a paged kernel cannot read contiguous vAttention memory.
        with pytest.raises(ConfigError):
            make_engine(memory_backend="vattention", decode_kernel="fa2_paged")

    def test_vllm_style_contiguous_prefill_over_paged_is_allowed(self):
        engine = make_engine(
            memory_backend="paged",
            prefill_kernel="fa2",
            decode_kernel="vllm_paged",
        )
        assert engine.prefill_kernel.info.name == "fa2"

    def test_paged_prefill_over_contiguous_rejected(self):
        with pytest.raises(ConfigError):
            make_engine(
                memory_backend="vattention",
                prefill_kernel="fa2_paged",
                decode_kernel="fa2",
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            make_engine(memory_backend="bogus")

    @pytest.mark.parametrize("field", ["sla_ttft_budget"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_timing_inputs_must_be_finite_and_non_negative(
        self, field, value
    ):
        # A NaN overhead used to finish every request at nan; a
        # negative one died mid-run moving the clock backwards.
        with pytest.raises(ConfigError, match=field):
            make_engine(**{field: value})

    def test_weights_must_fit(self):
        from repro.models.zoo import GPT3_175B

        with pytest.raises(ConfigError):
            make_engine(shard=ShardedModel(GPT3_175B, 1))


class TestBasicServing:
    def test_all_requests_complete(self):
        engine = make_engine()
        engine.submit(fixed_trace(count=4, prompt_len=1000, max_new_tokens=20))
        report = engine.run()
        assert len(report.finished_requests) == 4
        assert all(r.generated == 20 for r in report.finished_requests)

    def test_prefill_then_decode_phases(self):
        engine = make_engine()
        engine.submit(fixed_trace(count=2, prompt_len=1000, max_new_tokens=5))
        report = engine.run()
        prefills = report.metrics.of_phase("prefill")
        decodes = report.metrics.of_phase("decode")
        assert len(prefills) == 2
        # 2 requests x 4 decode tokens (prefill emits the first).
        assert sum(r.tokens for r in decodes) == 8

    def test_clock_advances_monotonically(self):
        engine = make_engine()
        engine.submit(fixed_trace(count=2, prompt_len=500, max_new_tokens=5))
        report = engine.run()
        times = [r.start_time for r in report.metrics.iterations]
        assert times == sorted(times)
        assert report.makespan > 0

    def test_batch_cap_respected(self):
        engine = make_engine(max_batch_size=2)
        engine.submit(fixed_trace(count=6, prompt_len=500, max_new_tokens=5))
        report = engine.run()
        assert max(r.batch_size for r in report.metrics.iterations) <= 2
        assert len(report.finished_requests) == 6


class TestOnlineArrivals:
    def test_engine_waits_for_arrivals(self):
        engine = make_engine()
        trace = fixed_trace(
            count=2, prompt_len=500, max_new_tokens=3,
            arrivals=[100.0, 200.0],
        )
        engine.submit(trace)
        report = engine.run()
        assert report.end_time >= 200.0
        assert all(r.is_finished for r in report.requests)

    def test_latency_includes_queueing(self):
        engine = make_engine(max_batch_size=1)
        trace = fixed_trace(count=3, prompt_len=16_384, max_new_tokens=3)
        engine.submit(trace)
        report = engine.run()
        latencies = sorted(report.e2e_latencies())
        # With batch 1, the third request waits for two full services.
        assert latencies[2] > 2 * latencies[0] * 0.9


class TestPreemption:
    def test_oversubscribed_memory_preempts_and_completes(self):
        # 3GB of KV: two 16K Yi-6B requests (1GB each) fit, but decode
        # growth plus a third forces preemption; everything still ends.
        engine = make_engine(
            kv_budget_bytes=3 * GB,
            max_batch_size=4,
            eager_allocation=False,
        )
        engine.submit(fixed_trace(count=3, prompt_len=16_000, max_new_tokens=30))
        report = engine.run()
        assert len(report.finished_requests) == 3

    def test_preempted_request_reruns_prefill(self):
        engine = make_engine(
            kv_budget_bytes=3 * GB, max_batch_size=4, eager_allocation=False
        )
        engine.submit(fixed_trace(count=3, prompt_len=16_000, max_new_tokens=30))
        report = engine.run()
        total_preemptions = sum(r.preemptions for r in report.requests)
        prefills = len(report.metrics.of_phase("prefill"))
        assert prefills == 3 + total_preemptions


class TestBackendsProduceSameResults:
    @pytest.mark.parametrize(
        "backend,prefill,decode,block",
        [
            ("vattention", "fa2", "fa2", 16),
            ("paged", "fa2_paged", "fa2_paged", 256),
            ("paged", "fi_paged", "fi_paged", 16),
            ("paged", "fa2", "vllm_paged", 16),
            ("static", "fa2", "fa2", 16),
        ],
    )
    def test_all_configurations_serve(self, backend, prefill, decode, block):
        engine = make_engine(
            memory_backend=backend,
            prefill_kernel=prefill,
            decode_kernel=decode,
            block_size=block,
            max_batch_size=1 if backend == "static" else 4,
        )
        count = 1 if backend == "static" else 4
        engine.submit(fixed_trace(count=count, prompt_len=2000, max_new_tokens=5))
        report = engine.run()
        assert len(report.finished_requests) == count


class TestH100:
    def test_fa3_engine_runs_on_h100(self):
        engine = make_engine(
            gpu=H100, prefill_kernel="fa3", decode_kernel="fa3"
        )
        engine.submit(fixed_trace(count=2, prompt_len=8000, max_new_tokens=5))
        report = engine.run()
        assert len(report.finished_requests) == 2

    def test_h100_faster_than_a100(self):
        trace = fixed_trace(count=2, prompt_len=32_000, max_new_tokens=5)
        a100 = make_engine()
        a100.submit([t for t in trace])
        a100_report = a100.run()
        h100 = make_engine(gpu=H100)
        h100.submit(fixed_trace(count=2, prompt_len=32_000, max_new_tokens=5))
        h100_report = h100.run()
        assert h100_report.makespan < a100_report.makespan


class TestPromptMustLeaveRoom:
    """A prompt at or past the model's context has no room for an
    output token: submission refuses it instead of retiring it unserved
    at some other request's iteration."""

    def test_engine_rejects_the_whole_submission(self):
        engine = make_engine()
        limit = engine.config.shard.max_context
        assert limit == 200_000
        requests = [
            Request("short", prompt_len=100, max_new_tokens=8),
            Request("long", prompt_len=limit, max_new_tokens=8),
        ]
        with pytest.raises(ConfigError, match="long"):
            engine.submit(requests)
        assert not engine.has_work()
        assert engine.outstanding_tokens == 0

    def test_one_token_short_finishes_at_its_prefill(self):
        engine = make_engine()
        limit = engine.config.shard.max_context
        engine.submit(
            [
                Request("short", prompt_len=100, max_new_tokens=8),
                Request("edge", prompt_len=limit - 1, max_new_tokens=8),
            ]
        )
        report = engine.run()
        assert len(report.finished_requests) == 2
        edge = next(r for r in report.requests if r.request_id == "edge")
        assert edge.prefill_done
        assert edge.generated == 1
        assert edge.finish_time == edge.first_token_time


class TestRetirementOrder:
    """Requests that finish on the same iteration retire in running
    order, whatever order they joined the completion frontier in.

    Under the hybrid policy the short prompt ``x``, admitted second,
    prefills first and starts decoding while ``p``'s 1,000-token prompt
    chunks 100 tokens an iteration behind it; ``x`` finishes on the
    tick ``p`` does, so the frontier holds them as ``x, p`` while the
    batch runs them as ``p, x``.
    """

    @staticmethod
    def retire_order(fast_forward: bool, p_tokens: int):
        engine = make_engine(
            scheduler_policy="hybrid",
            sched_token_budget=101,
            fast_forward=fast_forward,
        )
        cached = []
        cache_finished = engine.memory.cache_finished_request

        def noted_cache(request):
            cached.append(request.request_id)
            return cache_finished(request)

        engine.memory.cache_finished_request = noted_cache
        retired = []
        engine.on_retire = lambda request: retired.append(request.request_id)
        # x joins at tick 1 and p at tick 11, after ten chunks.
        engine.submit(
            [
                Request("p", prompt_len=1_000, max_new_tokens=p_tokens),
                Request("x", prompt_len=10, max_new_tokens=10 + p_tokens),
            ]
        )
        report = engine.run()
        p, x = report.requests
        assert p.finish_time == x.finish_time
        assert cached == retired == ["p", "x"]
        return engine

    def test_mixed_iteration(self):
        # p's final chunk is its only token: it finishes as it joins.
        engine = self.retire_order(fast_forward=False, p_tokens=1)
        assert engine.metrics.of_phase("decode") == []

    def test_stepped_decode(self):
        engine = self.retire_order(fast_forward=False, p_tokens=20)
        assert engine._fast.stretches == 0

    def test_stretch(self):
        engine = self.retire_order(fast_forward=True, p_tokens=20)
        assert engine._fast.analytic_iterations == 19


def small_engine(**overrides) -> LLMEngine:
    """A 16-wide Yi-6B batch over a 2 GB KV budget: preemption bites."""
    defaults = dict(max_batch_size=16, kv_budget_bytes=2 * GB)
    defaults.update(overrides)
    return make_engine(**defaults)


def openchat_at_zero(count: int = 60):
    return openchat_trace(
        arrivals=[0.0] * count,
        seed=7,
        max_context=ShardedModel(YI_6B, 1).max_context,
    )


def chunked_pressure():
    """Long decodes behind chunked prompts: a preemption takes requests
    whose prefill has not finished."""
    return fixed_trace(
        count=24,
        prompt_len=1_500,
        max_new_tokens=3_000,
        arrivals=poisson_arrivals(qps=4, count=24, seed=5),
    )


#: name -> (build the engine or fleet and submit its trace, what the
#: run must show for the scenario to cover its transition).
PREFILL_COUNT_SCENARIOS = {
    "fcfs_recompute": (
        lambda: (small_engine(), openchat_at_zero()),
        "preempted",
    ),
    "fcfs_swap": (
        lambda: (
            small_engine(memory=MemoryConfig(preemption_mode="swap")),
            openchat_at_zero(),
        ),
        "preempted",
    ),
    "fcfs_tiered": (
        lambda: (
            small_engine(memory=MemoryConfig(preemption_mode="tiered")),
            openchat_at_zero(),
        ),
        "preempted",
    ),
    "hybrid_chunked": (
        lambda: (
            small_engine(
                scheduler_policy="hybrid",
                prefill_chunk_size=256,
                eager_allocation=False,
            ),
            chunked_pressure(),
        ),
        "pending_victim",
    ),
    "sla_chunked": (
        lambda: (
            small_engine(
                scheduler_policy="sla",
                sla_ttft_budget=1.0,
                prefill_chunk_size=1_024,
                eager_allocation=False,
            ),
            chunked_pressure(),
        ),
        "pending_victim",
    ),
    "prefix_cache": (
        lambda: (
            small_engine(
                kv_budget_bytes=4 * GB,
                memory=MemoryConfig(enable_prefix_cache=True),
            ),
            shared_prefix_trace(
                count=60,
                sharing_factor=6,
                arrivals=poisson_arrivals(qps=20, count=60, seed=3),
            ),
        ),
        "cached_prefix",
    ),
    "tiered_swap_in": (
        lambda: (
            small_engine(
                scheduler_policy="hybrid",
                prefill_chunk_size=512,
                memory=MemoryConfig(preemption_mode="tiered"),
            ),
            chunked_pressure(),
        ),
        "swap_in",
    ),
    "sla_recompute": (
        lambda: (
            small_engine(scheduler_policy="sla", sla_ttft_budget=1.0),
            openchat_at_zero(),
        ),
        "decoding_victim",
    ),
    "disaggregated_fleet": (
        lambda: (
            build_cluster(
                4, "cache_aware", disaggregated=True, n_prefill_replicas=2
            ),
            cluster_trace(count=48),
        ),
        "migrated",
    ),
}


def ids(requests):
    return [id(r) for r in requests]


class TestPrefillPendingCount:
    """The engine's batch ledger — the members awaiting their prefill,
    the decoding members' token total and the completion frontier —
    equals a scan of the running batch around every serve pass."""

    @staticmethod
    def watch(engine: LLMEngine, seen: dict) -> None:
        """Check the ledger around every stretch attempt and stepped
        iteration, and note the preemptions and swap-ins the scenarios
        are here for."""
        max_context = engine.config.shard.max_context
        ledger = engine._ledger

        def check():
            running = engine._running
            assert ids(ledger.awaiting) == ids(
                [r for r in running if r.needs_prefill]
            )
            decoding = [r for r in running if r.prefill_done]
            assert ledger.tokens == sum(r.context_len for r in decoding)
            if decoding:
                assert ledger.completion() == min(
                    min(
                        r.max_new_tokens - r.generated,
                        max_context - r.context_len,
                    )
                    for r in decoding
                )
            seen["checks"] += 1

        run_iteration = engine._run_iteration
        execute = engine._fast.execute
        select_victim = engine.scheduler.select_victim
        allocate_request = engine.memory.allocate_request

        def checked_iteration():
            check()
            run_iteration()
            check()

        def checked_execute(deadline):
            check()
            done = execute(deadline)
            check()
            return done

        def noted_victim(running, protected=None):
            victim = select_victim(running, protected)
            if victim.needs_prefill:
                seen["pending_victim"] += 1
            else:
                seen["decoding_victim"] += 1
            return victim

        def noted_admission(request):
            if request.prefill_done:
                seen["swap_in"] += 1
            return allocate_request(request)

        engine._run_iteration = checked_iteration
        engine._fast.execute = checked_execute
        engine.scheduler.select_victim = noted_victim
        engine.memory.allocate_request = noted_admission

    @pytest.mark.parametrize("name", sorted(PREFILL_COUNT_SCENARIOS))
    def test_count_matches_a_scan(self, name):
        build, covers = PREFILL_COUNT_SCENARIOS[name]
        target, requests = build()
        fleet = getattr(target, "replicas", None)
        engines = [r.engine for r in fleet] if fleet else [target]
        seen = dict.fromkeys(
            ("checks", "pending_victim", "decoding_victim", "swap_in"), 0
        )
        for engine in engines:
            self.watch(engine, seen)
        target.submit(requests)
        report = target.run()
        for engine in engines:
            assert engine._ledger.awaiting == []
            assert engine._ledger.tokens == 0
        assert seen["checks"] > 0
        if fleet:
            assert len(report.finished_records) == len(requests)
        else:
            assert len(report.finished_requests) == len(requests)
        # The scenario reaches the transition it is here for.
        if covers == "preempted":
            assert sum(r.preemptions for r in requests) > 0
        elif covers == "pending_victim":
            assert seen["pending_victim"] > 0
            assert report.metrics.of_phase("mixed")
        elif covers == "swap_in":
            assert seen["swap_in"] > 0
            assert report.metrics.of_phase("mixed")
        elif covers == "decoding_victim":
            assert seen["decoding_victim"] > 0
        elif covers == "cached_prefix":
            assert any(r.cached_prefix_tokens for r in requests)
        else:
            assert report.migrations > 0
