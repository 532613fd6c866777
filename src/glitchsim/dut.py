"""Device-under-test model: instruction stream and the probabilistic
response to voltage-fault windows.

A trial returns the set of skipped instructions and whether the device
locked up or the brown-out detector reset it; its outcome is decided
from the skipped set alone (``ScenarioSpec.hits``).

The fault effect is an instruction-skip model.  For every instruction
whose occupancy interval intersects a fault window the skip probability
is the per-effect override when one is configured, otherwise
``p_max_skip`` scaled by the covered fraction of the instruction's
cycle.  On top of that, each window can "burst" with probability
``p_window_burst`` and then skips everything it touches; this captures
the empirically higher joint skip rate of one wide fault over two
adjacent instructions.  Each window independently causes a lockup with
probability ``p_lockup_per_fault``.

Everything is deterministic given the trial seed.  Each draw reads its
own fixed slot of the seed (:func:`glitchsim.seeding.slot`, a 53-bit
integer m read as u = m / 2**53), so no draw moves another.  With W
windows, window w bursts when slot 2w gives u < ``p_window_burst`` and
locks up when slot 2w+1 gives u < ``p_lockup_per_fault``; a covered
instruction at stream position i is skipped when a bursting window
touches it or slot 2W+i gives u below its skip probability; the stall
before the d-th delay point is (m·(max+1)) >> 53 for slot
``STALL_SLOT0 + d``, read through ``slot`` (:func:`stall_vector`).  The
first window that locks up sets the lock tick; no instruction starting
at or after it is skipped.  A probability of 0 or 1 decides without
reading its slot.

A trial runs as plan → draw list → one draw pass → decode.
:func:`trial_plan` does the work no draw decides (the BOD verdict, the
window × instruction overlaps, each covered instruction's skip
probability) and decides, once, which probabilities draw: one strictly
between 0 and 1 becomes draw j, a (slot offset, threshold) pair, with
key mask bit j + 1 (each window's burst and lockup, then each skip); 1
gets bit 0 and 0 no bit.  :func:`glitchsim.seeding.draw_key` makes the
draws in one pass, and :func:`decode` tests each mask against their key
shifted up with bit 0 set; :func:`run_plan` is the two for one seed.  A
caller running many seeds makes their keys in lanes and decodes each
distinct key once.  A plan with no draws holds its result.
:func:`execute_trial` is plan and run in one call.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Sequence

from .seeding import SLOT_ONE, draw_key, slot, slot_offset, stall_column

# First stall slot: far past any window or skip slot, so the ranges are
# disjoint.
STALL_SLOT0 = 1 << 32


class Effect(Enum):
    """What an instruction does to the security state."""

    STORE_SAU_CTRL = "store_sau_ctrl"
    STORE_AHB_ORIGINAL = "store_ahb_original"
    STORE_AHB_DUPLICATE = "store_ahb_duplicate"
    CLEAR_LSB_SHIFT1 = "clear_lsb_shift1"  # LSRS half of the shift pair
    CLEAR_LSB_SHIFT2 = "clear_lsb_shift2"  # LSLS half of the shift pair
    BRANCH_NONSECURE = "branch_nonsecure"
    DELAY = "delay"
    PLAIN = "plain"


# Skipping a delay / filler instruction changes nothing observable, so
# no skip draw is spent on them.  BRANCH_NONSECURE is no target either,
# but it keeps its skip draw, which reads a slot of its own.
INERT_EFFECTS = frozenset({Effect.DELAY, Effect.PLAIN})


@dataclass(frozen=True)
class Instruction:
    """One instruction of a stream; its position there is its index."""

    cycle: int
    effect: Effect

    def __post_init__(self):
        if self.cycle < 0:
            raise ValueError("cycle must be non-negative")


@dataclass(frozen=True)
class FaultResponseModel:
    """Knobs of the probabilistic skip/lockup response.

    ``per_target_override`` maps an :class:`Effect` to a fixed skip
    probability used whenever a window touches an instruction of that
    kind (calibration hook for reproducing measured rates); an empty map
    is stored as None.
    """

    p_max_skip: float = 0.5
    p_lockup_per_fault: float = 0.05
    p_window_burst: float = 0.0
    per_target_override: Optional[Mapping[Effect, float]] = None

    def __post_init__(self):
        for name in ("p_max_skip", "p_lockup_per_fault", "p_window_burst"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not self.per_target_override:
            object.__setattr__(self, "per_target_override", None)
        else:
            for eff, p in self.per_target_override.items():
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"override for {eff} must be in [0, 1]")

    def skip_probability(self, effect: Effect, coverage: float) -> float:
        if coverage <= 0.0:
            return 0.0
        if self.per_target_override and effect in self.per_target_override:
            return self.per_target_override[effect]
        return self.p_max_skip * coverage


@dataclass(frozen=True)
class BodModel:
    """Sampling brown-out detector: the supply is probed every
    ``sample_period`` ticks starting at ``sample_phase``.  A sample
    landing inside any fault window trips the detector, whatever the
    window's width.
    """

    enabled: bool = False
    sample_period: int = 1
    sample_phase: int = 0

    def __post_init__(self):
        if self.sample_period < 1:
            raise ValueError("sample_period must be >= 1")
        if not 0 <= self.sample_phase < self.sample_period:
            raise ValueError("sample_phase must be in [0, sample_period)")

    def detects(self, windows: Sequence[tuple[int, int]]) -> bool:
        """True when any sample tick phase + i*period lands in a window."""
        if not self.enabled:
            return False
        period = self.sample_period
        phase = self.sample_phase
        for start, end in windows:
            # Smallest sample index whose tick is >= start.
            i = max(0, -(-(start - phase) // period))
            if phase + i * period < end:
                return True
        return False


@dataclass(frozen=True)
class RawTrialResult:
    """One firmware execution under a set of fault windows: the indices
    of the skipped instructions (up to the lock tick, if the device locked
    up) and whether the brown-out detector reset it (nothing skipped)."""

    skipped: frozenset[int]
    locked_up: bool = False
    bod_tripped: bool = False


@dataclass(slots=True)
class TrialPlan:
    """What no draw decides about a trial: one ``(start tick, burst mask,
    lockup mask)`` per window; one ``(index, start tick, window bitmask,
    skip mask)`` entry per effectful instruction a window touches, in
    stream order; ``draws``, the (slot offset, threshold) pair of each
    draw; and ``fixed``, the result when nothing can draw."""

    windows: tuple[tuple[int, int, int], ...]
    entries: tuple[tuple[int, int, int, int], ...]
    draws: tuple[tuple[int, float], ...] = ()
    fixed: Optional[RawTrialResult] = None


def _key_mask(draws: list, k: int, p: float) -> int:
    """The key mask of probability p at slot k: bit j + 1 if p becomes draw
    j, appended to ``draws``; else bit 0 if p is 1, no bit if p is 0."""
    if 0.0 < p < 1.0:
        draws.append((slot_offset(k), p * SLOT_ONE))
        return 1 << len(draws)
    return int(p >= 1.0)


def trial_plan(scenario, windows, domains, model: FaultResponseModel,
               bod: Optional[BodModel] = None,
               cycles: Optional[Iterable[int]] = None) -> TrialPlan:
    """Compile the (disjoint, ordered) windows against the scenario.

    ``windows`` are absolute ticks on the same timeline as instruction
    occupancy: instruction at cycle c occupies [c*K, (c+1)*K) with
    K = domains.oversampling.  ``cycles``, when given, replaces the start
    cycles of ``scenario.effectful_instructions``; they must ascend, as
    :func:`shift_by` keeps them, for the lock tick to end a trial.
    """
    if bod is not None and bod.detects(windows):
        return TrialPlan((), (), fixed=RawTrialResult(frozenset(), bod_tripped=True))

    K, W = domains.oversampling, len(windows)
    if cycles is None:
        cycles = scenario.effectful_cycles
    draws: list = []
    plan_windows = tuple((start, _key_mask(draws, 2 * w, model.p_window_burst),
                          _key_mask(draws, 2 * w + 1, model.p_lockup_per_fault))
                         for w, (start, _) in enumerate(windows))
    entries = []
    for (i, ins), cycle in zip(scenario.effectful_instructions, cycles):
        ins_start = cycle * K
        ins_end = ins_start + K
        mask, p_noskip = 0, 1.0
        for w, (start, end) in enumerate(windows):
            if start >= ins_end:
                break
            overlap = min(end, ins_end) - max(start, ins_start) if end > ins_start else 0
            if overlap > 0:
                mask |= 1 << w
                p_noskip *= 1.0 - model.skip_probability(ins.effect, overlap / K)
        if mask:
            entries.append((i, ins_start, mask,
                            _key_mask(draws, 2 * W + i, 1.0 - p_noskip)))

    plan = TrialPlan(plan_windows, tuple(entries), tuple(draws))
    if not draws:
        plan.fixed = decode(plan, 0)
    return plan


def decode(plan: TrialPlan, key: int) -> RawTrialResult:
    """The result of a trial of ``plan`` when bit j of ``key`` is the
    outcome of ``plan.draws[j]``: the windows that burst, the first lock
    tick, then each covered instruction before it that a bursting window
    touches or whose skip fires.  A probability fires when its mask meets
    ``key << 1 | 1``: always if it is 1, never if it is 0."""
    key = key << 1 | 1
    bursts, lock_tick = 0, None
    for w, (start, burst, lockup) in enumerate(plan.windows):
        if key & burst:
            bursts |= 1 << w
        if key & lockup and lock_tick is None:
            lock_tick = start

    skipped = []
    for index, start, mask, skip in plan.entries:
        if lock_tick is not None and start >= lock_tick:
            break  # device froze in an erroneous state
        if key & skip or mask & bursts:
            skipped.append(index)
    return RawTrialResult(frozenset(skipped), lock_tick is not None)


def run_plan(plan: TrialPlan, seed) -> RawTrialResult:
    """The trial of ``plan`` at ``seed``: its held result, or the decode of
    the seed's draw key."""
    if plan.fixed is not None:
        return plan.fixed
    return decode(plan, draw_key(seed, plan.draws))


def execute_trial(scenario, windows, domains, model: FaultResponseModel,
                  bod: Optional[BodModel] = None, *, seed: int,
                  cycles: Optional[Iterable[int]] = None) -> RawTrialResult:
    """Run the scenario once under the given windows with the trial's
    seed (see :func:`trial_plan`)."""
    return run_plan(trial_plan(scenario, windows, domains, model, bod, cycles), seed)


def stall_vector(scenario, max_delay_cycles: int, seed: int) -> tuple[int, ...]:
    """One stall of 0..max_delay_cycles per delay point: the stall before
    point d is (m·(max+1)) >> 53 of the trial seed's slot STALL_SLOT0 + d."""
    return tuple((slot(seed, STALL_SLOT0 + d) * (max_delay_cycles + 1)) >> 53
                 for d in range(len(scenario.delay_points)))


def stall_vectors(scenario, step_seed: int, first: int, n: int) -> list[tuple[int, ...]]:
    """:func:`stall_vector` of ``random_delay_max`` at ``mix64(step_seed, i)``
    for i = first..first+n-1, in lanes."""
    return stall_column(step_seed, first, n, STALL_SLOT0, len(scenario.delay_points),
                        scenario.random_delay_max + 1)


def shift_by(scenario, stalls: Sequence[int]):
    """The map from a cycle to its position under one stall per delay
    point.  A stall only moves cycles: instruction positions and target
    membership stay those of the undelayed scenario."""
    points = scenario.delay_points
    before = (0, *accumulate(stalls))  # before[d]: stall in front of a cycle past d points
    return lambda cycle: cycle + before[bisect_right(points, cycle)]


def stalled_cycles(scenario, stalls: Sequence[int]) -> tuple[int, ...]:
    """Start cycles of the effectful instructions under a stall vector."""
    if not stalls:
        return scenario.effectful_cycles
    return tuple(map(shift_by(scenario, stalls), scenario.effectful_cycles))


def apply_random_delays(scenario, max_delay_cycles: int, seed: int):
    """Insert a uniform-random stall of 0..max_delay_cycles DUT cycles
    before each fault target, drawn from the stall slots of the trial
    ``seed``, re-deriving all cycle positions.

    One independent draw per target, so every protected assignment moves
    on its own.  Returns a new scenario; max_delay_cycles = 0 returns
    the input unchanged.  Trials skip the rebuild: they run the scenario
    at its :func:`stalled_cycles`, which are the same.
    """
    if max_delay_cycles < 0:
        raise ValueError("max_delay_cycles must be >= 0")
    if max_delay_cycles == 0:
        return scenario

    shift = shift_by(scenario, stall_vector(scenario, max_delay_cycles, seed))
    new_instructions = tuple(
        Instruction(shift(ins.cycle), ins.effect)
        for ins in scenario.instructions
    )
    new_targets = tuple(
        replace(t, cycles=tuple(map(shift, t.cycles))) for t in scenario.targets
    )
    return replace(scenario, instructions=new_instructions, targets=new_targets)
