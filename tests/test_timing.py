import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from glitchsim.timing import ClockDomains, ticks_from_ns


class TestClockDomains:
    def test_tick_period(self):
        d = ClockDomains(oversampling=20, dut_period_ns=100)
        assert d.tick_period_ns == Fraction(5)

    def test_rejects_bad_oversampling(self):
        with pytest.raises(ValueError):
            ClockDomains(oversampling=0)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            ClockDomains(oversampling=1, dut_period_ns=0)

    def test_decimal_period_is_exact(self):
        d = ClockDomains(oversampling=10, dut_period_ns=100.1)
        assert d.dut_period_ns == Fraction("100.1")


class TestTicksFromNs:
    def test_basic(self):
        d = ClockDomains(oversampling=20, dut_period_ns=100)
        assert ticks_from_ns(d, 400) == 80

    def test_zero(self):
        d = ClockDomains(oversampling=1, dut_period_ns=10)
        assert ticks_from_ns(d, 0) == 0

    def test_rounding_half_up(self):
        d = ClockDomains(oversampling=20, dut_period_ns=100)  # 5 ns ticks
        assert ticks_from_ns(d, 102) == 20  # 20.4 rounds down
        assert ticks_from_ns(d, 103) == 21  # 20.6 rounds up
        assert ticks_from_ns(d, Fraction(105, 2)) == 11  # 10.5 rounds up

    def test_rounding_against_brute_oracle(self):
        d = ClockDomains(oversampling=20, dut_period_ns=100)
        for tenths in range(0, 2000):
            ns = Fraction(tenths, 10)
            exact = ns / d.tick_period_ns
            # Round half up, computed independently of the implementation.
            floor = exact.__floor__()
            expected = floor + (1 if exact - floor >= Fraction(1, 2) else 0)
            assert ticks_from_ns(d, ns) == expected

    def test_rejects_negative(self):
        d = ClockDomains(oversampling=1)
        with pytest.raises(ValueError):
            ticks_from_ns(d, -1)

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_monotone(self, a, b):
        d = ClockDomains(oversampling=20, dut_period_ns=100)
        lo, hi = sorted((a, b))
        assert ticks_from_ns(d, lo) <= ticks_from_ns(d, hi)

