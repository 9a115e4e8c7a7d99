"""Simulated clock behaviour."""

import math

import pytest

from repro.gpu.clock import SimClock


class TestAdvance:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(start=5.0).now == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance(3.0) == pytest.approx(3.0)

    def test_advance_rejects_negative(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_zero_advance_is_noop(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now == 0.0

    @pytest.mark.parametrize("move", ["advance", "jump_to"])
    def test_rejects_nan(self, move):
        clock = SimClock(start=1.0)
        seen = []
        clock.subscribe(lambda old, new: seen.append(new))
        with pytest.raises(ValueError):
            getattr(clock, move)(math.nan)
        assert clock.now == 1.0
        assert seen == []


class TestAdvanceTo:
    def test_moves_forward(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_past_timestamp_is_noop(self):
        clock = SimClock(start=10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0


class TestObservers:
    def test_observer_sees_interval(self):
        clock = SimClock()
        seen = []
        clock.subscribe(lambda old, new: seen.append((old, new)))
        clock.advance(2.0)
        assert seen == [(0.0, 2.0)]

    def test_unsubscribe(self):
        clock = SimClock()
        seen = []
        observer = lambda old, new: seen.append(new)  # noqa: E731
        clock.subscribe(observer)
        clock.advance(1.0)
        clock.unsubscribe(observer)
        clock.advance(1.0)
        assert seen == [1.0]

    def test_multiple_observers(self):
        clock = SimClock()
        first, second = [], []
        clock.subscribe(lambda o, n: first.append(n))
        clock.subscribe(lambda o, n: second.append(n))
        clock.advance(1.0)
        assert first == [1.0] and second == [1.0]
