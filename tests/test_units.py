"""Unit and formatting helpers."""

import pytest

from repro.units import (
    GB,
    KB,
    MB,
    align_up,
    ceil_div,
    fmt_bytes,
    fmt_seconds,
    is_aligned,
    ms,
    to_us,
    us,
)


class TestConstants:
    def test_binary_units(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB

    def test_time_round_trip(self):
        assert to_us(us(40)) == pytest.approx(40)
        assert ms(5) == pytest.approx(0.005)

    def test_us_is_seconds(self):
        assert us(1_000_000) == pytest.approx(1.0)


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(8, 4) == 2

    def test_rounds_up(self):
        assert ceil_div(9, 4) == 3

    def test_zero_numerator(self):
        assert ceil_div(0, 4) == 0

    def test_rejects_nonpositive_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(4, 0)


class TestAlignment:
    def test_align_up_exact(self):
        assert align_up(4096, 4096) == 4096

    def test_align_up_rounds(self):
        assert align_up(4097, 4096) == 8192

    def test_is_aligned(self):
        assert is_aligned(2 * MB, 64 * KB)
        assert not is_aligned(2 * MB + 1, 64 * KB)

    def test_is_aligned_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_aligned(10, 0)


class TestFormatting:
    def test_fmt_bytes_mb(self):
        assert fmt_bytes(2 * MB) == "2.0MB"

    def test_fmt_bytes_small(self):
        assert fmt_bytes(512) == "512.0B"

    def test_fmt_bytes_tb(self):
        assert fmt_bytes(3 * 1024 * GB) == "3.0TB"

    def test_fmt_seconds_us(self):
        assert fmt_seconds(40e-6) == "40.0us"

    def test_fmt_seconds_ms(self):
        assert fmt_seconds(5e-3) == "5.0ms"

    def test_fmt_seconds_s(self):
        assert fmt_seconds(2.5) == "2.50s"
