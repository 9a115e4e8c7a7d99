"""Request lifecycle state machine."""

import math

import pytest

from repro.errors import ConfigError, SchedulingError
from repro.serving.request import Request, RequestState


def make_request(**kwargs) -> Request:
    defaults = dict(request_id="r1", prompt_len=100, max_new_tokens=10)
    defaults.update(kwargs)
    return Request(**defaults)


class TestConstruction:
    def test_defaults(self):
        request = make_request()
        assert request.state is RequestState.QUEUED
        assert request.context_len == 100
        assert request.total_len == 110
        assert not request.is_finished

    def test_rejects_empty_prompt(self):
        with pytest.raises(ConfigError):
            make_request(prompt_len=0)

    def test_rejects_zero_decode(self):
        with pytest.raises(ConfigError):
            make_request(max_new_tokens=0)

    @pytest.mark.parametrize("arrival", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_arrival(self, arrival):
        # A NaN arrival never compares due, so the serve loop would spin
        # forever; an infinite one would drag the clock to inf.
        with pytest.raises(ConfigError):
            make_request(arrival_time=arrival)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -1.0])
    def test_rejects_bad_ttft_budget(self, budget):
        # A NaN deadline compares false both ways, so the SLA order
        # among requests would be arbitrary.
        with pytest.raises(ConfigError):
            make_request(ttft_budget=budget)

    def test_accepts_zero_ttft_budget(self):
        assert make_request(ttft_budget=0.0).ttft_budget == 0.0


class TestPrefill:
    def test_prefill_produces_first_token(self):
        request = make_request()
        request.state = RequestState.RUNNING
        request.record_prefill(now=2.0)
        assert request.prefill_done
        assert request.generated == 1
        assert request.first_token_time == 2.0
        assert request.ttft == pytest.approx(2.0)

    def test_prefill_requires_running(self):
        with pytest.raises(SchedulingError):
            make_request().record_prefill(now=1.0)

    def test_needs_prefill_flag(self):
        request = make_request()
        assert not request.needs_prefill  # queued
        request.state = RequestState.RUNNING
        assert request.needs_prefill
        request.record_prefill(now=0.0)
        assert not request.needs_prefill


class TestDecode:
    def test_decode_counts_tokens(self):
        request = make_request()
        request.state = RequestState.RUNNING
        request.record_prefill(now=0.0)
        request.record_decode_token(now=1.0)
        assert request.generated == 2
        assert request.context_len == 102

    def test_decode_before_prefill_rejected(self):
        request = make_request()
        request.state = RequestState.RUNNING
        with pytest.raises(SchedulingError):
            request.record_decode_token(now=0.0)


class TestPreemption:
    def test_preempt_recompute_semantics(self):
        request = make_request(prompt_len=100, max_new_tokens=10)
        request.state = RequestState.RUNNING
        request.record_prefill(now=0.0)
        request.record_decode_token(now=1.0)  # generated=2, ctx=102
        request.preempt()
        # vLLM recompute: generated tokens fold into the prompt.
        assert request.state is RequestState.PREEMPTED
        assert request.prompt_len == 102
        assert request.max_new_tokens == 8
        assert request.generated == 0
        assert not request.prefill_done
        assert request.total_len == 110  # invariant preserved
        assert request.preemptions == 1

    def test_preempt_requires_running(self):
        with pytest.raises(SchedulingError):
            make_request().preempt()


class TestCompletion:
    def test_finish_records_latency(self):
        request = make_request(arrival_time=5.0)
        request.state = RequestState.RUNNING
        request.record_prefill(now=7.0)
        request.finish(now=12.0)
        assert request.is_finished
        assert request.e2e_latency == pytest.approx(7.0)
        assert request.ttft == pytest.approx(2.0)

    def test_latency_before_finish_rejected(self):
        with pytest.raises(SchedulingError):
            make_request().e2e_latency

    def test_ttft_before_first_token_rejected(self):
        with pytest.raises(SchedulingError):
            make_request().ttft
