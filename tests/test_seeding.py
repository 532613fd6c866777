"""The inlined draw passes against the one-slot rule ``slot``."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from glitchsim.dut import STALL_SLOT0
from glitchsim.seeding import (SLOT_ONE, draw_key, slot, slot_offset,
                               stall_draws)

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


class TestStallDraws:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("span", [1, 2, 10, 2**20])
    def test_matches_slot(self, seed, span):
        for k in SLOTS:
            assert stall_draws(seed, k, 4, span) == tuple(
                (slot(seed, k + d) * span) >> 53 for d in range(4))

    def test_no_points_no_stalls(self):
        assert stall_draws(MAX, STALL_SLOT0, 0, 10) == ()
