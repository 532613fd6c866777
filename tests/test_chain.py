"""The chain closed form, checked against reference models: ``merge_windows``
(the crowbar's OR of absolute windows) and ``simulate_chain_stepped``
(per-tick single-fault-unit state machines)."""

from enum import Enum

import pytest
from hypothesis import given, strategies as st

from glitchsim.calibration import deterministic_model
from glitchsim.chain import Window, simulate_chain
from glitchsim.scenarios import load_scenario
from glitchsim.search import SimContext, run_trials, translate_to_relative
from glitchsim.timing import ClockDomains


def merge_windows(windows) -> list[Window]:
    """OR-combine windows into disjoint maximal intervals."""
    merged: list[list[int]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


class SfuPhase(Enum):
    IDLE = "idle"
    COUNTING_OFFSET = "counting_offset"
    ASSERTING = "asserting"
    DONE = "done"


class SingleFaultUnit:
    """Per-tick counter machine producing one fault window per trigger."""

    def __init__(self, offset: int, width: int):
        self.offset = offset
        self.width = width
        self.phase = SfuPhase.IDLE
        self.remaining = 0

    def step(self, trigger: bool) -> tuple[bool, bool]:
        """Advance one tick; returns (fault_out, done_pulse)."""
        if self.phase is SfuPhase.IDLE and trigger:
            self.phase = SfuPhase.COUNTING_OFFSET
            self.remaining = self.offset

        if self.phase is SfuPhase.COUNTING_OFFSET:
            if self.remaining > 0:
                self.remaining -= 1
                return False, False
            self.phase = SfuPhase.ASSERTING
            self.remaining = self.width

        if self.phase is SfuPhase.ASSERTING:
            self.remaining -= 1
            if self.remaining == 0:
                # Done pulses on the final asserting tick; the successor
                # arms on the next tick, giving zero-latency chaining.
                self.phase = SfuPhase.DONE
                return True, True
            return True, False

        return False, False


def simulate_chain_stepped(chain, trigger_tick: int) -> tuple[list[Window], int]:
    """Reference implementation driving real unit state machines, for a
    chain of at least one unit fired at a non-negative tick."""
    units = [SingleFaultUnit(o, w) for o, w in chain]
    horizon = trigger_tick + sum(o + w for o, w in chain) + 1

    windows = []
    open_start = None
    done_tick = trigger_tick
    pending_trigger = [False] * len(units)
    for tick in range(trigger_tick, horizon + 1):
        fault_now = False
        # Snapshot the done pulses from the previous tick so a successor
        # arms on the tick *after* its predecessor finishes.
        fired, pending_trigger = pending_trigger, [False] * len(units)
        for i, unit in enumerate(units):
            trig = (tick == trigger_tick) if i == 0 else fired[i]
            out, done = unit.step(trig)
            fault_now = fault_now or out
            if done:
                if i + 1 < len(units):
                    pending_trigger[i + 1] = True
                else:
                    done_tick = tick + 1  # window end tick (exclusive)
        if fault_now and open_start is None:
            open_start = tick
        elif not fault_now and open_start is not None:
            windows.append((open_start, tick))
            open_start = None
    if open_start is not None:
        windows.append((open_start, horizon + 1))
    return windows, done_tick


def windows_of(units, trigger=0):
    return simulate_chain(units, trigger)


class TestSimulateChain:
    def test_single_unit(self):
        assert windows_of([(10, 3)]) == ([(10, 13)], 13)

    def test_two_units_chained(self):
        # Second unit armed where the first window ends: 100+5+95 = 200.
        assert windows_of([(100, 5), (95, 7)]) == ([(100, 105), (200, 207)], 207)

    def test_back_to_back_merge(self):
        assert windows_of([(0, 4), (0, 4)], trigger=5) == ([(5, 13)], 13)

    def test_empty_chain(self):
        with pytest.raises(ValueError, match="at least one fault unit"):
            simulate_chain((), 0)

    def test_negative_trigger(self):
        with pytest.raises(ValueError):
            simulate_chain(((0, 1),), -1)

    def test_done_after_trigger(self):
        windows, done = windows_of([(0, 1)], trigger=7)
        assert done > 7


class TestChainConfig:
    """The checks ``simulate_chain`` makes on the units, called directly
    and through ``run_trials``."""

    @staticmethod
    def refused(unit, error, match):
        with pytest.raises(error, match=match):
            simulate_chain(((1, 1), unit), 0)
        ctx = SimContext(ClockDomains(1), deterministic_model())
        with pytest.raises(error, match=match):
            run_trials(load_scenario("dup_registers_7_43"), [unit], 1, ctx, "t", 0)

    @pytest.mark.parametrize("unit", [(8.9, 1.7), (8, 1.0), (True, 1), (0, False)])
    def test_non_integer_unit_rejected(self, unit):
        self.refused(unit, TypeError, "must be an integer")

    def test_zero_width_rejected(self):
        self.refused((1, 0), ValueError, "unit widths must be >= 1")

    def test_negative_offset_rejected(self):
        self.refused((-1, 1), ValueError, "unit offsets must be non-negative")


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
        assert simulate_chain_stepped(units, trigger) == simulate_chain(units, trigger)


class TestProperties:
    @given(units_strategy, st.integers(0, 20))
    def test_total_asserted_ticks(self, units, trigger):
        windows, _ = simulate_chain(units, trigger)
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
        windows, done = simulate_chain(rel, 0)
        assert windows == merge_windows([(a, a + w) for a, w in absolute])
        assert done == absolute[-1][0] + absolute[-1][1]
