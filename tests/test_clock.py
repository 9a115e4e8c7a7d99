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
        with pytest.raises(ValueError):
            getattr(clock, move)(math.nan)
        assert clock.now == 1.0


class TestAdvanceTo:
    def test_moves_forward(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_past_timestamp_is_noop(self):
        clock = SimClock(start=10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0
