"""Tests for unit conversions and clock conventions."""

import pytest
from hypothesis import given, strategies as st

from repro import units


class TestTimeConversions:
    def test_second_constant(self):
        assert units.SECOND == 1_000_000_000

    def test_microseconds(self):
        assert units.microseconds(1) == 1_000
        assert units.microseconds(160) == 160_000

    def test_milliseconds(self):
        assert units.milliseconds(200) == 200_000_000

    def test_seconds(self):
        assert units.seconds(1.5) == 1_500_000_000

    def test_fractional_rounding(self):
        assert units.microseconds(0.5) == 500
        assert units.nanoseconds(1.4) == 1

    def test_roundtrip(self):
        assert units.to_seconds(units.seconds(2.5)) == pytest.approx(2.5)
        assert units.to_microseconds(units.microseconds(37)) == pytest.approx(37)
        assert units.to_milliseconds(units.milliseconds(13)) == pytest.approx(13)


class TestParseDuration:
    @pytest.mark.parametrize("text, ticks", [
        ("200ms", 200_000_000),
        ("0.1s", 100_000_000),
        ("1.005us", 1005),  # the float product is 1004.9999999999999
        ("2µs", 2000),
        ("0.000001ms", 1),
        ("12", 12),
        (" 3 us", 3000),
        (7, 7),
    ])
    def test_a_whole_number_of_nanoseconds_is_read_exactly(self, text, ticks):
        assert units._parse_duration(text) == ticks

    @pytest.mark.parametrize("text", [
        "1.5ns", "2.5ns", "1.0001us", "1e-10s",  # once rounded to 2, 2, 1000, 0
        "1.0000000000000000000000000001s",  # past any float or default Decimal precision
        "1.5", "-1ms", "nans", "infs", "1e400s", "oops", "s", 1.5, True,
        "1e999999999999999999s",  # past the exact context's Emax: Overflow, not a traceback
    ])
    def test_anything_else_is_refused_never_rounded(self, text):
        with pytest.raises(ValueError, match="expected a non-negative duration"):
            units._parse_duration(text)


class TestRates:
    def test_gbps(self):
        assert units.gbps(10) == 10_000_000_000
        assert units.gbps(0.5) == 500_000_000

    def test_mbps(self):
        assert units.mbps(100) == 100_000_000


class TestSizes:
    def test_decimal_sizes(self):
        assert units.kilobytes(100) == 100_000
        assert units.megabytes(10) == 10_000_000
        assert units.gigabytes(1) == 1_000_000_000


class TestTransmissionTime:
    def test_basic(self):
        # 1500 bytes at 10 Gbps = 1.2 us.
        assert units.transmission_time(1500, units.gbps(10)) == 1200

    def test_rounds_up(self):
        # 1 byte at 10 Gbps = 0.8 ns -> 1 tick, never zero.
        assert units.transmission_time(1, units.gbps(10)) == 1

    def test_zero_bytes(self):
        assert units.transmission_time(0, units.gbps(10)) == 0

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            units.transmission_time(100, 0)
        with pytest.raises(ValueError):
            units.transmission_time(100, -5)

    @given(
        size=st.integers(min_value=0, max_value=10**9),
        rate=st.sampled_from([10**9, 10**10, 4 * 10**10, 10**11]),
    )
    def test_never_underestimates(self, size, rate):
        ticks = units.transmission_time(size, rate)
        assert ticks * rate >= size * 8 * units.SECOND - rate

    @given(
        size=st.integers(min_value=1, max_value=10**8),
        rate=st.sampled_from([10**9, 10**10, 4 * 10**10]),
    )
    def test_monotone_in_size(self, size, rate):
        assert units.transmission_time(size + 1, rate) >= units.transmission_time(
            size, rate
        )
