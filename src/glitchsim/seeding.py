"""Deterministic seed derivation and the per-trial draws.

Every trial in a campaign gets its own 64-bit seed derived from the
master seed, a step identifier and the trial index.  The derivation is
pure integer arithmetic (splitmix64), so a trial's seed depends on its
index alone, never on the order trials run in.

A trial's random draws are counter-based: draw slot k of the trial at
seed s is the (k+1)-th output of a splitmix64 stream started at s, so
any slot can be read without the ones before it (Salmon et al., SC'11).
:func:`slot` states the rule, and a trial's stalls are read through it
(:func:`glitchsim.dut.stall_vector`); :func:`draw_key` makes a trial's
draws by it in one inlined pass.

No trial's draws depend on another's, so the trials of a block are
independent lanes.  :func:`seed_column`, :func:`draw_key_column` and
:func:`stall_column` run those lanes side by side in one Python int
(SIMD within a register, Fisher & Dietz, LCPC'98): value i of a column
sits in bits [128i, 128i + 64) and the 64 bits above it start at zero.
One big-int operation then does a splitmix64 step on every lane.  The
lanes cannot interfere: a 64-bit value plus, or times, a 64-bit
constant stays below 2**128, so no carry or product reaches the next
lane; and each lane is cut back to its low 64 bits after every step and
before every product, which clears what a right shift brings down from
the lane above.  A column is computed ``LANES`` values at a time, so no
int grows past 16 KiB.
"""

import math
from array import array

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15

# Version of the draw scheme recorded in every summary.json: 2 is the
# counter-based slots below (1 was a random.Random stream per trial).
RNG_SCHEME = 2

# A slot value m is uniform on [0, 2**53); m < p * SLOT_ONE is u < p for
# u = m / 2**53, exactly.
SLOT_ONE = float(1 << 53)


def _splitmix64(x: int) -> int:
    x = (x + _GAMMA) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def slot(seed: int, k: int) -> int:
    """Draw slot k of the trial at ``seed``: the top 53 bits of the
    splitmix64 output mix of (seed + (k+1)·γ) mod 2**64 (``_splitmix64``
    adds one γ itself)."""
    return _splitmix64((seed + k * _GAMMA) & _MASK) >> 11


def slot_offset(k: int) -> int:
    """What slot k adds to the seed: (k+1)·γ mod 2**64."""
    return ((k + 1) * _GAMMA) & _MASK


def draw_key(seed: int, draws) -> int:
    """Make every draw of ``draws``, (slot offset, threshold) pairs, for
    the trial at ``seed``: bit j of the key is set when draw j's slot value
    m is below its threshold.  A threshold p * SLOT_ONE makes the bit the
    draw u < p.  Same as ``slot``, without a call per draw."""
    key = 0
    bit = 1
    for offset, threshold in draws:
        x = (seed + offset) & _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        if (x ^ (x >> 31)) >> 11 < threshold:
            key |= bit
        bit <<= 1
    return key


def mix64(*parts: int) -> int:
    """Combine integers into one well-mixed 64-bit seed."""
    h = 0x243F6A8885A308D3
    for p in parts:
        h = _splitmix64((h ^ (p & _MASK)) & _MASK)
    return h


# ---------------------------------------------------------------------------
# Lanes: a column of 64-bit values in one int, 128 bits per value
# ---------------------------------------------------------------------------

LANES = 1024  # values per pass

# The largest stall span the lanes take: a slot value below 2**53 times
# the span stays within its lane, and a stall below the span fits a word.
MAX_SPAN = 1 << 32

# Full-pass lane constants; a shorter pass cuts them to its lanes.
_ONES = int.from_bytes((b"\1" + bytes(15)) * LANES, "little")  # 1 in every lane
_LOW = _MASK * _ONES  # 2**64 - 1 in every lane
_RAMP = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(LANES)),
                       "little")  # i in lane i


def _words(lanes: int, n: int) -> array:
    """The low 64 bits of each of lanes 0..n-1."""
    return array("Q", lanes.to_bytes(16 * n, "little"))[::2]


def _mix_lanes(x: int, low: int) -> int:
    """splitmix64's output mix of every lane of ``x``, each first cut to
    its low 64 bits (``low``: 2**64 - 1 in every lane)."""
    x &= low
    x = ((x ^ (x >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    x = ((x ^ (x >> 27)) & low) * 0x94D049BB133111EB & low
    return (x ^ (x >> 31)) & low


def _seed_lanes(step_seed: int, first: int, n: int):
    """(seed lanes, size, ones, low) of each pass over the trials
    first..first+n-1 of a step: lane i holds ``mix64(step_seed, i)``, the
    splitmix64 of ``mix64(step_seed) ^ (i mod 2**64)``."""
    h = mix64(step_seed)
    for start in range(0, n, LANES):
        size = min(LANES, n - start)
        cut = (1 << 128 * size) - 1
        ones, low = _ONES & cut, _LOW & cut
        index = (((first + start) & _MASK) * ones + (_RAMP & cut)) & low
        yield _mix_lanes((index ^ h * ones) + _GAMMA * ones, low), size, ones, low


def seed_column(step_seed: int, first: int, n: int) -> array:
    """``mix64(step_seed, i)`` for i = first..first+n-1, in lanes."""
    seeds = array("Q")
    for lanes, size, _, _ in _seed_lanes(step_seed, first, n):
        seeds += _words(lanes, size)
    return seeds


def draw_key_column(step_seed: int, first: int, n: int, draws) -> list[int]:
    """``draw_key(mix64(step_seed, i), draws)`` for i = first..first+n-1,
    in lanes, for thresholds in [0, SLOT_ONE].

    Slot values are integers, so m < threshold is m < c for
    c = ceil(threshold).  A mixed lane x holds m = x >> 11, so that is
    x < c·2**11: bit 64 of 2**64 - 1 + c·2**11 - x, a lane value in
    [0, 2**65) that borrows nothing from the next lane."""
    if len(draws) > 64:  # a lane's low word holds 64 outcome bits
        high = draw_key_column(step_seed, first, n, draws[64:])
        return [lo | hi << 64 for lo, hi in
                zip(draw_key_column(step_seed, first, n, draws[:64]), high)]
    keys = []
    for lanes, size, ones, low in _seed_lanes(step_seed, first, n):
        key, guards = 0, ones << 64
        for j, (offset, threshold) in enumerate(draws):
            x = _mix_lanes(lanes + offset * ones, low)
            bound = _MASK + (math.ceil(threshold) << 11)
            key |= ((bound * ones - x) & guards) >> (64 - j)
        keys += _words(key, size)
    return keys


def stall_column(step_seed: int, first: int, n: int, k: int, count: int,
                 span: int) -> list[tuple[int, ...]]:
    """``(slot(seed, k + d) * span) >> 53``, a uniform integer in [0, span),
    for d = 0..count-1, as one tuple per seed ``mix64(step_seed, i)`` for
    i = first..first+n-1, in lanes, for 1 <= span <= MAX_SPAN."""
    if not 1 <= span <= MAX_SPAN:
        raise ValueError(f"a stall span must be in [1, {MAX_SPAN}], got {span}")
    vectors = []
    for lanes, size, ones, low in _seed_lanes(step_seed, first, n):
        columns = [_words(((_mix_lanes(lanes + slot_offset(k + d) * ones, low) >> 11)
                           & low) * span >> 53, size) for d in range(count)]
        vectors += zip(*columns) if columns else [()] * size
    return vectors
