"""The scheduling subsystem: policy protocol, FCFS equivalence, hybrid
chunk budgeting, SLA ordering."""

import json

import pytest

import fcfs_golden
from repro.errors import ConfigError, SchedulingError
from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.scheduling import (
    SCHEDULER_POLICIES,
    FcfsPolicy,
    HybridBatchPolicy,
    IterationPlan,
    PlanKind,
    SchedulingView,
    SlaAwarePolicy,
    make_scheduler_policy,
    scheduler_policy_names,
)
from repro.serving.engine import EngineConfig, LLMEngine
from repro.serving.request import Request, RequestState
from repro.workloads.traces import fixed_trace, shared_prefix_trace


def make_view(chunk_size=None, probe=lambda r: 0, now=0.0, batch=8):
    return SchedulingView(
        now=now,
        max_batch_size=batch,
        prefill_chunk_size=chunk_size,
        cached_prefix_tokens=probe,
    )


def running_request(rid="r", prompt=1_000, gen=8, prefill_done=False,
                    **fields):
    request = Request(
        request_id=rid, prompt_len=prompt, max_new_tokens=gen, **fields
    )
    request.state = RequestState.RUNNING
    if prefill_done:
        request.record_prefill(now=0.0)
    return request


def plan_for(policy, batch, view):
    """``policy``'s plan for ``batch``, handing it the members awaiting
    their prefill as the engine's ledger does."""
    awaiting = [r for r in batch if r.needs_prefill]
    return policy.plan_iteration(batch, awaiting, view)


def make_engine(**overrides):
    defaults = dict(
        shard=ShardedModel(YI_6B, 1),
        gpu=A100,
        memory_backend="vattention",
        max_batch_size=8,
    )
    defaults.update(overrides)
    return LLMEngine(EngineConfig(**defaults))


# ----------------------------------------------------------------------
# FCFS equivalence: the refactor must be invisible
# ----------------------------------------------------------------------
class TestFcfsGoldenEquivalence:
    """The policy-driven engine reproduces the pre-refactor engine's
    clock arithmetic byte-for-byte (golden captured before the
    scheduling subsystem existed; see tests/fcfs_golden.py)."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(fcfs_golden.GOLDEN_PATH) as handle:
            return json.load(handle)

    @pytest.mark.parametrize("scenario", sorted(fcfs_golden.SCENARIOS))
    def test_scenario_byte_identical(self, golden, scenario):
        # fast_forward=False is the legacy loop; tests/test_fastforward_
        # equiv.py checks the fast path against the same golden.
        live = fcfs_golden.canonicalize(
            fcfs_golden.SCENARIOS[scenario](fast_forward=False)
        )
        assert json.dumps(live, sort_keys=True) == json.dumps(
            golden[scenario], sort_keys=True
        )

    def test_same_seed_byte_identical_reports(self):
        first = fcfs_golden.canonicalize(
            fcfs_golden.SCENARIOS["prefix_cache"]()
        )
        second = fcfs_golden.canonicalize(
            fcfs_golden.SCENARIOS["prefix_cache"]()
        )
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_explicit_fcfs_matches_default(self):
        def run(policy):
            engine = make_engine(scheduler_policy=policy)
            engine.submit(
                fixed_trace(count=5, prompt_len=2_000, max_new_tokens=16)
            )
            return fcfs_golden.canonicalize(engine.run())

        assert run("fcfs") == run("fcfs")


# ----------------------------------------------------------------------
# Protocol plumbing
# ----------------------------------------------------------------------
class TestPolicyRegistry:
    def test_names(self):
        assert scheduler_policy_names() == ["fcfs", "sla", "hybrid"]

    def test_make_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_scheduler_policy("edf")

    def test_engine_config_rejects_unknown_policy(self):
        with pytest.raises(ConfigError):
            make_engine(scheduler_policy="lifo")

    def test_engine_config_rejects_bad_budget(self):
        with pytest.raises(ConfigError):
            make_engine(scheduler_policy="hybrid", sched_token_budget=0)

    def test_registry_instances(self):
        assert isinstance(make_scheduler_policy("fcfs"), FcfsPolicy)
        assert isinstance(make_scheduler_policy("sla"), SlaAwarePolicy)
        assert isinstance(
            make_scheduler_policy("hybrid", token_budget=128),
            HybridBatchPolicy,
        )
        assert set(SCHEDULER_POLICIES) == {"fcfs", "sla", "hybrid"}

    def test_plan_validation(self):
        with pytest.raises(SchedulingError):
            IterationPlan(PlanKind.PREFILL)  # no prefill request
        with pytest.raises(SchedulingError):
            IterationPlan(
                PlanKind.MIXED, prefill=running_request(), chunk_tokens=0
            )
        with pytest.raises(SchedulingError):
            IterationPlan(PlanKind.DECODE, prefill=running_request())


class TestDefaultVictimSelection:
    def test_newest_first(self):
        policy = FcfsPolicy()
        a, b, c = (running_request(rid) for rid in "abc")
        assert policy.select_victim([a, b, c]) is c

    def test_protected_spared(self):
        policy = FcfsPolicy()
        a, b, c = (running_request(rid) for rid in "abc")
        assert policy.select_victim([a, b, c], protected=c) is b


# ----------------------------------------------------------------------
# Hybrid batching: chunk-budget edge cases
# ----------------------------------------------------------------------
class TestHybridPlanning:
    def test_budget_smaller_than_one_chunk(self):
        # The whole prompt exceeds the budget: the chunk is exactly the
        # budget and the prefill takes multiple iterations.
        policy = HybridBatchPolicy(token_budget=64)
        plan = plan_for(policy, [running_request(prompt=1_000)], make_view())
        assert plan.kind is PlanKind.MIXED
        assert plan.chunk_tokens == 64

    def test_decodes_consume_budget(self):
        policy = HybridBatchPolicy(token_budget=100)
        batch = [running_request(f"d{i}", prefill_done=True) for i in range(30)]
        batch.append(running_request("p", prompt=1_000))
        plan = plan_for(policy, batch, make_view())
        assert plan.chunk_tokens == 70

    def test_budget_exhausted_by_decodes_floors_at_one_token(self):
        # More decode tokens than budget: the prefill still makes
        # 1-token progress per iteration instead of starving.
        policy = HybridBatchPolicy(token_budget=16)
        batch = [running_request(f"d{i}", prefill_done=True) for i in range(32)]
        batch.append(running_request("p", prompt=500))
        plan = plan_for(policy, batch, make_view())
        assert plan.kind is PlanKind.MIXED
        assert plan.chunk_tokens == 1

    def test_empty_decode_set(self):
        # A lone prompt gets the full budget in a mixed iteration.
        policy = HybridBatchPolicy(token_budget=512)
        plan = plan_for(policy, [running_request(prompt=2_000)], make_view())
        assert plan.kind is PlanKind.MIXED
        assert plan.chunk_tokens == 512

    def test_no_prefill_is_pure_decode(self):
        policy = HybridBatchPolicy(token_budget=512)
        plan = plan_for(
            policy, [running_request(prefill_done=True)], make_view()
        )
        assert plan.kind is PlanKind.DECODE

    def test_cache_hit_shortens_chunk(self):
        # 900 of 1000 prompt tokens are cached: the budget only has to
        # cover the uncached suffix, one iteration completes it.
        policy = HybridBatchPolicy(token_budget=512)
        plan = plan_for(
            policy,
            [running_request(prompt=1_000)],
            make_view(probe=lambda r: 900),
        )
        assert plan.chunk_tokens == 100

    def test_shortest_remaining_prefill_first(self):
        # A short chat prompt admitted behind a long document chunks
        # first; the document resumes afterwards.
        policy = HybridBatchPolicy(token_budget=512)
        doc = running_request("doc", prompt=50_000)
        doc.record_prefill_chunk(8_192, now=0.0)
        chat = running_request("chat", prompt=1_500)
        plan = plan_for(policy, [doc, chat], make_view())
        assert plan.prefill is chat

    def test_cache_hit_wins_prefill_selection(self):
        # Equal prompts, but one is mostly cached: it is cheapest and
        # chunks first, freeing its budget sooner.
        policy = HybridBatchPolicy(token_budget=512)
        cold = running_request("cold", prompt=4_000)
        hot = running_request("hot", prompt=4_000)
        probe = lambda r: 3_900 if r is hot else 0  # noqa: E731
        plan = plan_for(policy, [cold, hot], make_view(probe=probe))
        assert plan.prefill is hot
        assert plan.chunk_tokens == 100

    def test_equal_remainders_keep_admission_order(self):
        policy = HybridBatchPolicy(token_budget=512)
        first = running_request("first", prompt=2_000)
        second = running_request("second", prompt=2_000)
        plan = plan_for(policy, [first, second], make_view())
        assert plan.prefill is first

    def test_probe_ignored_after_chunking_started(self):
        policy = HybridBatchPolicy(token_budget=512)
        request = running_request(prompt=1_000)
        request.record_prefill_chunk(400, now=0.0)
        plan = plan_for(policy, [request], make_view(probe=lambda r: 900))
        assert plan.chunk_tokens == 512  # 600 remaining, budget caps at 512

    def test_legacy_chunk_size_caps_budget(self):
        policy = HybridBatchPolicy(token_budget=512)
        plan = plan_for(
            policy, [running_request(prompt=2_000)], make_view(chunk_size=128)
        )
        assert plan.chunk_tokens == 128

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigError):
            HybridBatchPolicy(token_budget=0)


class TestHybridEngine:
    def test_lone_long_prompt_runs_mixed(self):
        engine = make_engine(
            scheduler_policy="hybrid", sched_token_budget=2_048
        )
        engine.submit(fixed_trace(count=1, prompt_len=9_000, max_new_tokens=4))
        report = engine.run()
        mixed = report.metrics.of_phase("mixed")
        assert len(mixed) == 5  # ceil(9000 / 2048)
        assert len(report.finished_requests) == 1

    def test_decodes_progress_during_long_prefill(self):
        engine = make_engine(
            scheduler_policy="hybrid",
            sched_token_budget=2_048,
            max_batch_size=4,
        )
        chat = fixed_trace(count=2, prompt_len=1_000, max_new_tokens=200)
        long = fixed_trace(
            count=1, prompt_len=32_768, max_new_tokens=4,
            name="long", arrivals=[1.0],
        )
        engine.submit(chat + long)
        report = engine.run()
        assert any(
            r.batch_size > 1 for r in report.metrics.of_phase("mixed")
        )
        assert len(report.finished_requests) == 3

    def test_cache_hit_prefill_completes_in_one_iteration(self):
        # Second member of a prefix group: the radix cache holds the
        # 4096-token system prompt, so the policy's budget sees only
        # the ~short suffix and one mixed iteration finishes it.
        engine = make_engine(
            scheduler_policy="hybrid",
            sched_token_budget=4_096,
            memory=MemoryConfig(enable_prefix_cache=True),
        )
        trace = shared_prefix_trace(
            count=2,
            sharing_factor=2,
            prefix_tokens=4_096,
            arrivals=[0.0, 50.0],  # second arrives after the first retires
        )
        engine.submit(trace)
        report = engine.run()
        second = next(
            r for r in report.requests if r.request_id.endswith("0001")
        )
        assert second.cached_prefix_tokens >= 4_096
        second_mixed = [
            r for r in report.metrics.iterations
            if r.phase == "mixed" and r.start_time >= 50.0
        ]
        assert len(second_mixed) == 1

    def test_completes_same_tokens_as_fcfs(self):
        def run(policy):
            engine = make_engine(scheduler_policy=policy)
            engine.submit(
                fixed_trace(count=4, prompt_len=6_000, max_new_tokens=24)
            )
            report = engine.run()
            return {r.request_id: r.generated for r in report.finished_requests}

        assert run("hybrid") == run("fcfs")


# ----------------------------------------------------------------------
# SLA-aware ordering
# ----------------------------------------------------------------------
class TestSlaPolicy:
    def test_earliest_deadline_admitted_first(self):
        policy = SlaAwarePolicy()
        lax = Request("lax", 100, 10, arrival_time=0.0, ttft_budget=9.0)
        tight = Request("tight", 100, 10, arrival_time=1.0, ttft_budget=2.0)
        none = Request("none", 100, 10, arrival_time=0.0)
        assert policy.next_admission(
            [lax, tight, none], make_view()
        ) is tight

    def test_priority_breaks_deadline_ties(self):
        policy = SlaAwarePolicy()
        low = Request("low", 100, 10, ttft_budget=5.0, priority=0)
        high = Request("high", 100, 10, ttft_budget=5.0, priority=3)
        assert policy.next_admission([low, high], make_view()) is high

    def test_default_budget_applies(self):
        policy = SlaAwarePolicy(default_ttft_budget=1.0)
        early = Request("early", 100, 10, arrival_time=0.0)
        late = Request("late", 100, 10, arrival_time=2.0, ttft_budget=5.0)
        # early's implied deadline (1.0) beats late's explicit 7.0.
        assert policy.next_admission([late, early], make_view()) is early

    def test_prefill_order_follows_urgency(self):
        policy = SlaAwarePolicy()
        lax = running_request("lax", ttft_budget=9.0)
        tight = running_request("tight", ttft_budget=1.0)
        plan = plan_for(policy, [lax, tight], make_view())
        assert plan.kind is PlanKind.PREFILL
        assert plan.prefill is tight

    def test_victim_is_least_urgent(self):
        policy = SlaAwarePolicy()
        tight = running_request("tight", ttft_budget=1.0)
        lax = running_request("lax", ttft_budget=9.0)
        none = running_request("none")
        assert policy.select_victim([tight, none, lax]) is none
        assert policy.select_victim([tight, lax], protected=lax) is tight

    def test_engine_serves_tight_budget_first(self):
        engine = make_engine(scheduler_policy="sla", max_batch_size=4)
        blocker = fixed_trace(
            count=1, prompt_len=16_000, max_new_tokens=2, name="blocker"
        )
        lax = fixed_trace(
            count=1, prompt_len=4_000, max_new_tokens=8,
            name="lax", arrivals=[0.1],
        )
        tight = fixed_trace(
            count=1, prompt_len=4_000, max_new_tokens=8,
            name="tight", arrivals=[0.2],
        )
        tight[0].ttft_budget = 1.0
        engine.submit(blocker + lax + tight)
        report = engine.run()
        by_name = {r.request_id: r for r in report.finished_requests}
        # tight arrived later but prefilled first.
        assert (
            by_name["tight-0000"].first_token_time
            < by_name["lax-0000"].first_token_time
        )
