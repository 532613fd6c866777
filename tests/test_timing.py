import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from glitchsim.errors import EmptySplit
from glitchsim.timing import ClockDomains, FaultSpec, split_fault, ticks_from_ns


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


class TestFaultSpec:
    def test_end(self):
        assert FaultSpec(10, 5).end == 15

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            FaultSpec(0, 0)

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            FaultSpec(-1, 1)


class TestSplitFault:
    def test_wide_fault_into_two(self):
        # 400 ns at 5 ns ticks split into 170 ns + 140 ns with a 100 ns gap.
        f = FaultSpec(0, 80)
        parts = split_fault(f, [34, 28], [20])
        assert [(p.offset, p.width) for p in parts] == [(0, 34), (54, 28)]

    def test_identity_split(self):
        f = FaultSpec(7, 5)
        assert [(p.offset, p.width) for p in split_fault(f, [5], [])] == [(7, 5)]

    def test_three_way(self):
        f = FaultSpec(10, 9)
        parts = split_fault(f, [3, 3, 3], [1, 1])
        assert [(p.offset, p.width) for p in parts] == [(10, 3), (14, 3), (18, 3)]

    def test_empty_widths(self):
        with pytest.raises(EmptySplit):
            split_fault(FaultSpec(0, 4), [], [])

    def test_gap_count_mismatch(self):
        with pytest.raises(ValueError):
            split_fault(FaultSpec(0, 4), [2, 2], [])

    @given(
        st.integers(0, 100),
        st.lists(st.integers(1, 20), min_size=1, max_size=5),
    )
    def test_zero_gap_split_covers_original(self, offset, widths):
        f = FaultSpec(offset, sum(widths))
        parts = split_fault(f, widths, [0] * (len(widths) - 1))
        covered = set()
        for p in parts:
            covered.update(range(p.offset, p.end))
        assert covered == set(range(f.offset, f.end))

    @given(
        st.integers(0, 100),
        st.lists(st.integers(1, 20), min_size=2, max_size=5),
        st.data(),
    )
    def test_subfaults_ordered_and_disjoint(self, offset, widths, data):
        gaps = data.draw(st.lists(st.integers(0, 10), min_size=len(widths) - 1,
                                  max_size=len(widths) - 1))
        parts = split_fault(FaultSpec(offset, 1), widths, gaps)
        for a, b in zip(parts, parts[1:]):
            assert a.end <= b.offset
