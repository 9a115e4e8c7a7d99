"""``run_until`` edge cases and the fast path's interplay with them.

The deadline contract: an iteration that *starts* before the deadline
runs to completion (the clock may overshoot by the iteration in
flight), and an idle engine never advances past the deadline.
"""

import math

import pytest

from repro.gpu.spec import A100
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.serving.request import RequestState
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


class TestDeadlineOnArrival:
    def test_deadline_exactly_on_arrival_admits_but_runs_nothing(self):
        engine = make_engine()
        start = engine.clock.now
        arrival = start + 5.0
        (request,) = fixed_trace(
            count=1, prompt_len=1_000, max_new_tokens=8, arrivals=[arrival]
        )
        engine.submit([request])
        iterations = engine.run_until(arrival)
        # The clock lands exactly on the arrival; the request is
        # ingested and admitted, but the deadline check fires before
        # any iteration starts.
        assert engine.clock.now == arrival
        assert iterations == 0
        assert request.state is RequestState.RUNNING
        assert request.admitted_time == arrival
        assert request.generated == 0

    def test_later_call_resumes_admitted_request(self):
        engine = make_engine()
        arrival = engine.clock.now + 5.0
        (request,) = fixed_trace(
            count=1, prompt_len=1_000, max_new_tokens=8, arrivals=[arrival]
        )
        engine.submit([request])
        engine.run_until(arrival)
        engine.run_until(math.inf)
        assert request.is_finished


class TestOvershoot:
    def test_prefill_in_flight_overshoots_deadline(self):
        engine = make_engine()
        engine.submit(fixed_trace(count=1, prompt_len=16_384, max_new_tokens=4))
        start = engine.clock.now
        deadline = start + 1e-6  # far shorter than one prefill
        iterations = engine.run_until(deadline)
        assert iterations == 1
        assert engine.clock.now > deadline
        (prefill,) = engine.metrics.of_phase("prefill")
        assert prefill.start_time < deadline

    def test_fast_forwarded_stretch_respects_deadline_starts(self):
        engine = make_engine()
        engine.submit(fixed_trace(count=2, prompt_len=2_000, max_new_tokens=200))
        # Run the prefills, then a sliver of decode.
        engine.run_until(engine.clock.now + 1e-6)
        engine.run_until(engine.clock.now + 1e-6)
        mid = engine.clock.now + 0.25
        engine.run_until(mid)
        # Every recorded iteration (aggregated or not) started before
        # its deadline; the clock may overshoot by at most the decode
        # iteration in flight — far less than one full stretch.
        for record in engine.metrics.iterations:
            assert record.start_time < mid
        assert engine.clock.now >= mid
        last = engine.metrics.iterations[-1]
        overshoot = engine.clock.now - mid
        assert overshoot <= last.latency / max(last.iterations, 1) + 1e-12

    def test_idle_engine_never_advances(self):
        engine = make_engine()
        before = engine.clock.now
        assert engine.run_until(before + 100.0) == 0
        assert engine.clock.now == before

    def test_idle_engine_waits_for_future_arrival(self):
        engine = make_engine()
        now = engine.clock.now
        engine.submit(
            fixed_trace(
                count=1, prompt_len=500, max_new_tokens=4,
                arrivals=[now + 200.0],
            )
        )
        engine.run_until(now + 100.0)
        # The arrival is beyond the deadline: the clock must not run
        # ahead to it (requests dispatched later are not penalized).
        assert engine.clock.now == now


class TestPartialReportStart:
    def test_partial_report_uses_serve_start_not_zero(self):
        engine = make_engine()
        start = engine.clock.now  # device/manager init advanced the clock
        assert start > 0.0
        engine.submit(fixed_trace(count=1, prompt_len=500, max_new_tokens=4))
        engine.run_until(math.inf)
        report = engine.partial_report()
        assert report.start_time == start
        assert report.makespan == report.end_time - start
        # The old behaviour (start_time=0.0) inflated the makespan by
        # the engine's init latency and any pre-serving idle time.
        assert report.makespan < report.end_time

    def test_partial_report_of_never_served_engine_is_empty_window(self):
        engine = make_engine()
        report = engine.partial_report()
        assert report.start_time == report.end_time == engine.clock.now
        assert report.makespan == 0.0

    def test_nonzero_virtual_time_decode_tier_window(self):
        # A run_until-driven engine whose first work lands late (the
        # disaggregated decode-tier shape): the report window starts at
        # the first request's arrival — not at 0, and not at the stale
        # clock value the idle engine held before the work existed.
        engine = make_engine()
        engine.run_until(50.0)  # idle sweeps, as the cluster loop issues
        idle_clock = engine.clock.now
        arrival = idle_clock + 50.0
        (request,) = fixed_trace(
            count=1, prompt_len=500, max_new_tokens=4, arrivals=[arrival]
        )
        engine.submit([request])
        engine.run_until(math.inf)
        report = engine.partial_report()
        assert report.start_time == arrival
        assert report.end_time > arrival
        # The 50 idle seconds before the arrival are not in the window.
        assert report.makespan == report.end_time - arrival


class TestOutOfOrderSubmit:
    """Requests submitted across calls, later ones arriving earlier:
    the pending queue must stay in arrival order, so the engine serves
    them exactly as if they had been submitted in one call."""

    @staticmethod
    def timings(batches, fast_forward):
        engine = make_engine(fast_forward=fast_forward)
        for index, arrivals in enumerate(batches):
            engine.submit(
                fixed_trace(
                    count=len(arrivals),
                    prompt_len=1_000,
                    max_new_tokens=8,
                    name=f"batch{index}",
                    arrivals=arrivals,
                )
            )
        report = engine.run()
        return sorted(
            (r.arrival_time, repr(r.admitted_time), repr(r.ttft))
            for r in report.requests
        )

    @pytest.mark.parametrize("fast_forward", [True, False])
    def test_two_submits_match_one(self, fast_forward):
        split = self.timings([[5.0], [1.0, 3.0]], fast_forward)
        whole = self.timings([[5.0, 1.0, 3.0]], fast_forward)
        assert split == whole
        # The t=1 request is admitted on arrival, not behind t=5.
        assert split[0][1] == repr(1.0)

    def test_equal_arrivals_keep_submission_order(self):
        engine = make_engine()
        first = fixed_trace(
            count=2,
            prompt_len=64,
            max_new_tokens=2,
            name="first",
            arrivals=[2.0, 4.0],
        )
        second = fixed_trace(
            count=1,
            prompt_len=64,
            max_new_tokens=2,
            name="second",
            arrivals=[2.0],
        )
        engine.submit(first)
        engine.submit(second)
        assert list(engine._pending) == [first[0], second[0], first[1]]
