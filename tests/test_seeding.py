"""The inlined draw pass and a trial's stalls against the one-slot rule
``slot``, and the lane kernel against the scalar passes and ``slot``."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from glitchsim.dut import STALL_SLOT0, stall_vector
from glitchsim.scenarios import load_scenario
from glitchsim.seeding import (LANES, MAX_SPAN, SLOT_ONE, _splitmix64, draw_key,
                               draw_key_column, mix64, seed_column, slot,
                               slot_offset, stall_column)

MAX = 2**64 - 1
# Window draws (2w, 2w+1), skip draws (2W + index) and stall draws.
SLOTS = (0, 1, 6, 7, 8, 8 + 13, 2 * 4 + 60, STALL_SLOT0, STALL_SLOT0 + 1,
         STALL_SLOT0 + 3)
# Seeds at both ends of the range, and seeds whose sum with a slot's
# offset lands on, just below or just past the wrap at 2**64.
SEEDS = (0, 1, MAX, MAX - 1) + tuple(
    (2**64 - slot_offset(k) + d) % 2**64 for k in (0, 7, STALL_SLOT0) for d in (-1, 0, 1))
# Probabilities next to 0 and next to 1; each threshold is p * SLOT_ONE.
PROBS = (5e-324, 2**-53, 1e-16, 2**-52, 0.5, 1 - 2**-53, math.nextafter(1.0, 0.0))


def _want_key(seed, pairs):
    return sum(1 << j for j, (k, p) in enumerate(pairs) if slot(seed, k) < p * SLOT_ONE)


class TestDrawKey:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_slot_and_threshold(self, seed):
        pairs = [(k, p) for k in SLOTS for p in PROBS]
        draws = [(slot_offset(k), p * SLOT_ONE) for k, p in pairs]
        assert draw_key(seed, draws) == _want_key(seed, pairs)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_threshold_at_the_slot_value_is_exclusive(self, seed):
        """p = m / 2**53 for the slot's own value m does not fire; the next
        representable step, (m + 1) / 2**53, does."""
        for k in SLOTS:
            m = slot(seed, k)
            assert draw_key(seed, [(slot_offset(k), (m / 2**53) * SLOT_ONE)]) == 0
            assert draw_key(seed, [(slot_offset(k), ((m + 1) / 2**53) * SLOT_ONE)]) == 1

    def test_no_draws_is_key_zero(self):
        assert draw_key(None, ()) == 0

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, MAX),
           pairs=st.lists(st.tuples(st.sampled_from(SLOTS) | st.integers(0, 2**33),
                                    st.sampled_from(PROBS) | st.floats(0.0, 1.0)),
                          max_size=12))
    def test_matches_slot(self, seed, pairs):
        draws = [(slot_offset(k), p * SLOT_ONE) for k, p in pairs]
        assert draw_key(seed, draws) == _want_key(seed, pairs)


def _want_stalls(seed, k, count, span):
    """(slot(k + d) * span) >> 53, a uniform integer in [0, span), for
    d = 0..count-1."""
    return tuple((slot(seed, k + d) * span) >> 53 for d in range(count))


class TestStallDraws:
    """A trial's stalls: the stall before delay point d of the trial at
    ``seed``, for stalls of 0..span-1, reads slot STALL_SLOT0 + d."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("span", [1, 2, 10, 2**20])
    def test_matches_slot(self, seed, span):
        scen = load_scenario("tzm_full_attack")  # four delay points
        assert stall_vector(scen, span - 1, seed) == _want_stalls(
            seed, STALL_SLOT0, 4, span)

    def test_no_points_no_stalls(self):
        assert stall_column(MAX, 0, 3, STALL_SLOT0, 0, 10) == [()] * 3


# Column lengths: empty, one lane, and either side of a full pass.
LENGTHS = (0, 1, LANES - 1, LANES, LANES + 1)
# Trial indices wrap mod 2**64: first indices on, below and past the wrap
# and past 2**65, so that a pass can cross it.
FIRSTS = (0, 7, 2**64 - 1, 2**64 - LANES // 2, 2**64, 2**64 + 3, 2**66 + 1,
          2**128 - 3, 2**200 + 5)
step_seeds = st.integers(-2**70, 2**70)
firsts = st.sampled_from(FIRSTS) | st.integers(0, 2**66)
lengths = st.sampled_from(LENGTHS) | st.integers(0, 2 * LANES + 2)


def _seeds(step_seed, first, n):
    return [mix64(step_seed, i) for i in range(first, first + n)]


def _edge_thresholds(m):
    """Thresholds whose ceiling is m or m + 1: integral floats, and the
    floats next to them."""
    out = {float(m), float(m + 1), math.nextafter(float(m), math.inf),
           math.nextafter(float(m + 1), 0.0)}
    if m:
        out.add(math.nextafter(float(m), 0.0))
    return sorted(t for t in out if 0.0 <= t <= SLOT_ONE)


class TestLanes:
    """The lane kernel against the scalar passes it stands for."""

    @settings(max_examples=40, deadline=None)
    @given(step_seed=step_seeds, first=firsts, n=lengths)
    @example(step_seed=-1, first=2**64 - LANES // 2, n=LANES + 1)
    def test_seed_column_is_mix64_of_the_index(self, step_seed, first, n):
        assert list(seed_column(step_seed, first, n)) == _seeds(step_seed, first, n)

    @settings(max_examples=40, deadline=None)
    @given(step_seed=step_seeds, first=firsts, n=st.sampled_from(LENGTHS),
           slots=st.lists(st.sampled_from(SLOTS) | st.integers(0, 2**33),
                          min_size=1, max_size=6),
           probs=st.lists(st.sampled_from(PROBS) | st.floats(0.0, 1.0), max_size=70),
           lane=st.integers(0, 2 * LANES))
    @example(step_seed=5, first=2**64 - 3, n=LANES + 1, slots=[0, 1, STALL_SLOT0],
             probs=[0.5, 2**-53, 0.9] * 24, lane=LANES)
    def test_draw_keys_match_draw_key(self, step_seed, first, n, slots, probs, lane):
        """Thresholds at the slot values of some lane put m at ceil(t) - 1
        and at ceil(t) there; past 64 draws a key spans two lane words."""
        seeds = _seeds(step_seed, first, n)
        draws = [(slot_offset(slots[j % len(slots)]), p * SLOT_ONE)
                 for j, p in enumerate(probs)]
        for d, k in enumerate(slots):
            m = slot(seeds[(lane + d) % n], k) if n else 0
            draws += [(slot_offset(k), t) for t in _edge_thresholds(m)]
        assert draw_key_column(step_seed, first, n, draws) == [
            draw_key(seed, draws) for seed in seeds]

    def test_threshold_next_to_the_whole_mixed_value(self):
        """A lane compares its whole 64-bit mixed value x = m·2**11 + r with
        c·2**11 for c = ceil(threshold): at r = 2**11 - 1 and c = m + 1,
        x is one below the bound and the draw still fires."""
        k, step_seed = 3, 11
        first = next(i for i in range(1 << 16) if _splitmix64(
            (mix64(step_seed, i) + k * 0x9E3779B97F4A7C15) % 2**64) & 0x7FF == 0x7FF)
        m = slot(mix64(step_seed, first), k)
        draws = [(slot_offset(k), float(m + 1)), (slot_offset(k), float(m))]
        assert draw_key_column(step_seed, first, 1, draws) == [1]
        assert draw_key(mix64(step_seed, first), draws) == 1

    def test_no_draws_are_key_zero(self):
        assert draw_key_column(3, 0, LANES + 1, ()) == [0] * (LANES + 1)

    @settings(max_examples=40, deadline=None)
    @given(step_seed=step_seeds, first=firsts, n=st.sampled_from(LENGTHS),
           k=st.sampled_from((0, 9, STALL_SLOT0)), count=st.integers(0, 3),
           span=st.sampled_from((1, 2, 10, MAX_SPAN)) | st.integers(1, MAX_SPAN))
    @example(step_seed=2**70, first=2**64 - 1, n=LANES + 1, k=STALL_SLOT0, count=3,
             span=MAX_SPAN)
    # ``>> 11`` brings lane 1's low bits down into lane 0's top.  Without
    # the lane mask after it, lane 0's product reaches into lane 1 and adds
    # less than the span to lane 1's, which changes lane 1's stall here.
    @example(step_seed=0, first=2074415, n=2, k=STALL_SLOT0, count=1,
             span=MAX_SPAN - 1)
    def test_stall_columns_match_slot(self, step_seed, first, n, k, count, span):
        assert stall_column(step_seed, first, n, k, count, span) == [
            _want_stalls(seed, k, count, span) for seed in _seeds(step_seed, first, n)]

    @pytest.mark.parametrize("span", [0, MAX_SPAN + 1])
    def test_span_outside_the_lanes_is_rejected(self, span):
        with pytest.raises(ValueError, match="stall span"):
            stall_column(1, 0, 4, STALL_SLOT0, 2, span)
