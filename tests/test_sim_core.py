"""Unit coverage of the event-driven simulation core (repro.sim)."""

import math

import pytest

from repro.gpu.clock import SimClock
from repro.gpu.spec import A100
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.scheduling import make_scheduler_policy
from repro.scheduling.base import SchedulerPolicy, SchedulingView
from repro.serving.engine import EngineConfig, LLMEngine
from repro.serving.request import Request, RequestState
from repro.sim.events import EventKind, EventQueue
from repro.workloads.traces import fixed_trace


def make_engine(**overrides):
    defaults = dict(
        shard=ShardedModel(YI_6B, 1),
        gpu=A100,
        memory_backend="vattention",
        max_batch_size=8,
    )
    defaults.update(overrides)
    return LLMEngine(EngineConfig(**defaults))


def view():
    return SchedulingView(
        now=0.0,
        max_batch_size=8,
        prefill_chunk_size=None,
        cached_prefix_tokens=lambda r: 0,
    )


def running(rid):
    request = Request(request_id=rid, prompt_len=100, max_new_tokens=10)
    request.state = RequestState.RUNNING
    request.record_prefill(now=0.0)
    return request


# ----------------------------------------------------------------------
class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, EventKind.ARRIVAL, "c")
        queue.push(1.0, EventKind.MIGRATION, "a")
        queue.push(2.0, EventKind.ARRIVAL, "b")
        assert [queue.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_arrivals_dispatch_before_migrations_at_ties(self):
        queue = EventQueue()
        queue.push(5.0, EventKind.MIGRATION, "m")
        queue.push(5.0, EventKind.ARRIVAL, "a")
        assert queue.pop().payload == "a"
        assert queue.pop().payload == "m"

    def test_equal_events_keep_insertion_order(self):
        queue = EventQueue()
        for tag in ("first", "second", "third"):
            queue.push(1.0, EventKind.ARRIVAL, tag)
        assert [e.payload for e in queue.pop_due(1.0)] == [
            "first", "second", "third",
        ]

    def test_pop_due_and_peek(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.ARRIVAL, 1)
        queue.push(2.0, EventKind.ARRIVAL, 2)
        queue.push(3.0, EventKind.ARRIVAL, 3)
        assert queue.peek().time == 1.0
        assert [e.payload for e in queue.pop_due(2.0)] == [1, 2]
        assert len(queue) == 1

    def test_next_time_by_kind(self):
        queue = EventQueue()
        assert queue.next_time() == math.inf
        queue.push(4.0, EventKind.MIGRATION)
        queue.push(6.0, EventKind.ARRIVAL)
        assert queue.next_time() == 4.0
        assert queue.next_time(EventKind.ARRIVAL) == 6.0
        assert queue.next_time(EventKind.MIGRATION) == 4.0


# ----------------------------------------------------------------------
class TestClockJump:
    def test_jump_lands_exactly(self):
        clock = SimClock()
        clock.advance(1.0)
        clock.jump_to(2.5)
        assert clock.now == 2.5

    def test_jump_backwards_rejected(self):
        clock = SimClock(start=5.0)
        with pytest.raises(ValueError):
            clock.jump_to(4.0)


# ----------------------------------------------------------------------
class TestStableDecodeHorizon:
    @pytest.mark.parametrize("name", ["fcfs", "sla", "hybrid"])
    def test_unbounded_when_all_decoding(self, name):
        policy = make_scheduler_policy(name)
        batch = [running("a"), running("b")]
        assert policy.stable_decode_horizon(batch, view()) == math.inf

    @pytest.mark.parametrize(
        "name, chunk", [("fcfs", None), ("hybrid", 512), ("sla", 512)]
    )
    def test_engine_never_asks_while_a_prefill_is_pending(self, name, chunk):
        # The policies answer inf without scanning for pending prefills:
        # the engine's own count keeps the proof from asking then. Late
        # arrivals join a decoding batch, and chunked prefills stay
        # pending across several iterations.
        engine = make_engine(scheduler_policy=name, prefill_chunk_size=chunk)
        policy = engine.scheduler
        answer = policy.stable_decode_horizon
        asked = []

        def spy(batch, v):
            pending = [r.request_id for r in batch if r.needs_prefill]
            assert not pending, f"asked while {pending} await their prefill"
            asked.append(len(batch))
            return answer(batch, v)

        policy.stable_decode_horizon = spy
        engine.submit(
            fixed_trace(
                count=6,
                prompt_len=2_000,
                max_new_tokens=40,
                arrivals=[0.0, 0.0, 0.2, 0.2, 0.4, 0.6],
            )
        )
        report = engine.run()
        assert len(report.finished_requests) == 6
        assert asked and max(asked) > 1

    def test_base_default_is_conservative(self):
        class Custom(SchedulerPolicy):
            name = "custom"

            def next_admission(self, waiting, v):
                return waiting[0] if waiting else None

            def plan_iteration(self, batch, v):
                raise AssertionError("unused")

        assert Custom().stable_decode_horizon([running("a")], view()) == 0


# ----------------------------------------------------------------------
class TestFastForwardedRecords:
    def test_stretch_emits_one_aggregated_record(self):
        engine = make_engine()
        engine.submit(fixed_trace(count=2, prompt_len=1_000, max_new_tokens=30))
        report = engine.run()
        decode = report.metrics.of_phase("decode")
        assert len(decode) == 1
        (stretch,) = decode
        assert stretch.iterations == 29  # prefill produced token #1
        assert stretch.tokens == 29 * 2
        assert stretch.batch_size == 2
        assert stretch.alloc_sync == 0.0
        assert report.metrics.iteration_count("decode") == 29

    def test_fast_forward_off_keeps_per_iteration_records(self):
        engine = make_engine(fast_forward=False)
        engine.submit(fixed_trace(count=2, prompt_len=1_000, max_new_tokens=30))
        report = engine.run()
        decode = report.metrics.of_phase("decode")
        assert len(decode) == 29
        assert all(r.iterations == 1 for r in decode)

    def test_stretch_ends_at_earliest_completion(self):
        engine = make_engine()
        short = fixed_trace(count=1, prompt_len=1_000, max_new_tokens=10,
                            name="short")
        long = fixed_trace(count=1, prompt_len=1_000, max_new_tokens=40,
                           name="long")
        engine.submit(short + long)
        report = engine.run()
        decode = report.metrics.of_phase("decode")
        # First stretch runs at batch 2 until the short request's final
        # token, later stretches at batch 1; batch size never mixes
        # within a record.
        assert decode[0].batch_size == 2
        assert decode[0].iterations == 9
        assert all(r.batch_size == 1 for r in decode[1:])
        assert report.metrics.iteration_count("decode") == 9 + 30

    def test_custom_policy_disables_fast_path(self):
        # A policy without a stable_decode_horizon override must never
        # be fast-forwarded, even on a steady decode batch.
        from repro.scheduling import SCHEDULER_POLICIES
        from repro.scheduling.fcfs import FcfsPolicy

        class Opaque(FcfsPolicy):
            name = "opaque"

            def stable_decode_horizon(self, batch, v):
                return SchedulerPolicy.stable_decode_horizon(self, batch, v)

        engine = make_engine()
        engine.scheduler = Opaque()
        assert "opaque" not in SCHEDULER_POLICIES
        engine.submit(fixed_trace(count=1, prompt_len=1_000, max_new_tokens=16))
        report = engine.run()
        assert all(r.iterations == 1 for r in report.metrics.iterations)

    def test_uvm_stretch_breaks_at_page_faults(self):
        # UVM faults are synchronous: iterations that materialize pages
        # must run on the per-iteration path (alloc latency on the
        # clock), with fast stretches only in between.
        engine = make_engine(memory_backend="uvm", max_batch_size=4)
        engine.submit(fixed_trace(count=1, prompt_len=4_000, max_new_tokens=3_000))
        report = engine.run()
        decode = report.metrics.of_phase("decode")
        stretches = [r for r in decode if r.iterations > 1]
        singles = [r for r in decode if r.iterations == 1]
        assert stretches, "steady spans should aggregate"
        assert singles, "fault iterations must stay individual"
        assert all(r.alloc_sync == 0.0 for r in stretches)
