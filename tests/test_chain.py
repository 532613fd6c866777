import pytest
from hypothesis import given, strategies as st

from glitchsim.calibration import deterministic_model
from glitchsim.chain import (ChainConfig, merge_windows, simulate_chain,
                             simulate_chain_stepped)
from glitchsim.errors import EmptyChain
from glitchsim.scenarios import load_scenario
from glitchsim.search import SimContext, run_trials, translate_to_relative
from glitchsim.timing import ClockDomains


def windows_of(units, trigger=0):
    return simulate_chain(ChainConfig(tuple(units)), trigger)


class TestSimulateChain:
    def test_single_unit(self):
        assert windows_of([(10, 3)]) == ([(10, 13)], 13)

    def test_two_units_chained(self):
        # Second unit armed where the first window ends: 100+5+95 = 200.
        assert windows_of([(100, 5), (95, 7)]) == ([(100, 105), (200, 207)], 207)

    def test_back_to_back_merge(self):
        assert windows_of([(0, 4), (0, 4)], trigger=5) == ([(5, 13)], 13)

    def test_empty_chain(self):
        with pytest.raises(EmptyChain):
            simulate_chain(ChainConfig(()), 0)

    def test_negative_trigger(self):
        with pytest.raises(ValueError):
            simulate_chain(ChainConfig(((0, 1),)), -1)

    def test_done_after_trigger(self):
        windows, done = windows_of([(0, 1)], trigger=7)
        assert done > 7


class TestChainConfig:
    @pytest.mark.parametrize("unit", [(8.9, 1.7), (8, 1.0), (True, 1), (0, False)])
    def test_non_integer_unit_rejected(self, unit):
        with pytest.raises(TypeError, match="must be an integer"):
            ChainConfig(((1, 1), unit))
        ctx = SimContext(ClockDomains(1), deterministic_model())
        with pytest.raises(TypeError, match="must be an integer"):
            run_trials(load_scenario("dup_registers_7_43"), [unit], 1, ctx, "t", 0)


class TestMergeWindows:
    def test_disjoint_pass_through(self):
        assert merge_windows([(0, 2), (5, 7)]) == [(0, 2), (5, 7)]

    def test_touching_merge(self):
        assert merge_windows([(0, 2), (2, 4)]) == [(0, 4)]

    def test_overlapping_merge(self):
        assert merge_windows([(3, 9), (0, 5)]) == [(0, 9)]


units_strategy = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 15)), min_size=1, max_size=5
)


class TestSteppedCrossCheck:
    """The per-tick unit state machines must agree with the closed form."""

    @given(units_strategy, st.integers(0, 20))
    def test_equivalence(self, units, trigger):
        cfg = ChainConfig(tuple(units))
        assert simulate_chain_stepped(cfg, trigger) == simulate_chain(cfg, trigger)


class TestProperties:
    @given(units_strategy, st.integers(0, 20))
    def test_total_asserted_ticks(self, units, trigger):
        windows, _ = simulate_chain(ChainConfig(tuple(units)), trigger)
        asserted = sum(e - s for s, e in windows)
        if all(o > 0 for o, _ in units[1:]):  # disjoint windows
            assert asserted == sum(w for _, w in units)
        else:
            assert asserted <= sum(w for _, w in units)

    @given(
        st.lists(st.tuples(st.integers(0, 20), st.integers(1, 10)),
                 min_size=1, max_size=5)
    )
    def test_relative_translation_reproduces_absolute_windows(self, raw):
        # Build a disjoint, ordered absolute window list...
        absolute = []
        cursor = 0
        for gap, width in raw:
            start = cursor + gap
            absolute.append((start, width))
            cursor = start + width
        # ...then the translated chain must reproduce it exactly (when
        # windows are separated; touching ones merge at the crowbar).
        rel = translate_to_relative(absolute)
        windows, done = simulate_chain(ChainConfig(tuple(rel)), 0)
        assert windows == merge_windows([(a, a + w) for a, w in absolute])
        assert done == absolute[-1][0] + absolute[-1][1]
