"""Device-under-test model: instruction stream and the probabilistic
response to voltage-fault windows.

A trial returns the set of skipped instructions and whether the device
locked up or the brown-out detector reset it; the firmware's return word
is a pure function of the skipped set (``ScenarioSpec.response``).

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
instruction with index i is skipped when a bursting window touches it or
slot 2W+i gives u below its skip probability; the stall before the d-th
delay point is (m·(max+1)) >> 53 for slot ``STALL_SLOT0 + d``.  The
first window that locks up sets the lock tick; no instruction starting
at or after it is skipped.  A probability of 0 or 1 decides without
reading its slot.

A trial runs in two steps.  :func:`trial_plan` does the work no draw
decides: the BOD verdict, the window × instruction overlaps and each
covered instruction's skip probability.  :func:`run_plan` makes only the
draws, so a plan compiled once can run many seeds; a plan with no
probability strictly between 0 and 1 holds its result.
:func:`execute_trial` is the two steps in one call.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .seeding import SLOT_ONE, slot

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
    index: int
    cycle: int
    effect: Effect

    def __post_init__(self):
        if self.index < 0 or self.cycle < 0:
            raise ValueError("index and cycle must be non-negative")


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
    """What no draw decides about a trial: one ``(index, start tick, window
    bitmask, p_skip)`` entry per effectful instruction a window touches, in
    stream order, and ``fixed``, the result when nothing can draw."""

    starts: tuple[int, ...]
    p_window_burst: float
    p_lockup_per_fault: float
    entries: tuple[tuple[int, int, int, float], ...]
    fixed: Optional[RawTrialResult] = None


def trial_plan(scenario, windows, domains, model: FaultResponseModel,
               bod: Optional[BodModel] = None,
               cycles: Optional[Iterable[int]] = None) -> TrialPlan:
    """Compile the (disjoint, ordered) windows against the scenario.

    ``windows`` are absolute ticks on the same timeline as instruction
    occupancy: instruction at cycle c occupies [c*K, (c+1)*K) with
    K = domains.oversampling.  ``cycles``, when given, replaces the start
    cycles of ``scenario.effectful_instructions``; they must ascend, as
    :func:`stall_shift` keeps them, for the lock tick to end a trial.
    """
    if bod is not None and bod.detects(windows):
        return TrialPlan((), 0.0, 0.0, (), RawTrialResult(frozenset(), bod_tripped=True))

    K = domains.oversampling
    if cycles is None:
        cycles = scenario.effectful_cycles
    draws = bool(windows) and (0.0 < model.p_window_burst < 1.0
                               or 0.0 < model.p_lockup_per_fault < 1.0)
    entries = []
    for ins, cycle in zip(scenario.effectful_instructions, cycles):
        ins_start = cycle * K
        ins_end = ins_start + K
        mask = 0
        p_noskip = 1.0
        for w, (start, end) in enumerate(windows):
            if start >= ins_end:
                break
            overlap = min(end, ins_end) - max(start, ins_start) if end > ins_start else 0
            if overlap > 0:
                mask |= 1 << w
                p_noskip *= 1.0 - model.skip_probability(ins.effect, overlap / K)
        if mask:
            p_skip = 1.0 - p_noskip
            draws = draws or 0.0 < p_skip < 1.0
            entries.append((ins.index, ins_start, mask, p_skip))

    plan = TrialPlan(tuple(start for start, _ in windows), model.p_window_burst,
                     model.p_lockup_per_fault, tuple(entries))
    if not draws:
        plan.fixed = run_plan(plan, None)
    return plan


def run_plan(plan: TrialPlan, seed) -> RawTrialResult:
    """Make the plan's draws for one trial seed: burst (slot 2w) and
    lockup (slot 2w+1) per window, then a skip draw (slot 2W + index) per
    covered instruction that no burst took, up to the first lock tick."""
    if plan.fixed is not None:
        return plan.fixed
    p_burst, p_lockup = plan.p_window_burst, plan.p_lockup_per_fault
    bursts = (1 << len(plan.starts)) - 1 if p_burst >= 1.0 else 0
    lock_tick = plan.starts[0] if p_lockup >= 1.0 and plan.starts else None
    if 0.0 < p_burst < 1.0 or 0.0 < p_lockup < 1.0:
        for w, start in enumerate(plan.starts):
            if 0.0 < p_burst < 1.0 and slot(seed, 2 * w) < p_burst * SLOT_ONE:
                bursts |= 1 << w
            if (0.0 < p_lockup < 1.0 and lock_tick is None
                    and slot(seed, 2 * w + 1) < p_lockup * SLOT_ONE):
                lock_tick = start

    skipped = []
    for index, start, mask, p_skip in plan.entries:
        if lock_tick is not None and start >= lock_tick:
            break  # device froze in an erroneous state
        if mask & bursts or p_skip >= 1.0:
            skipped.append(index)
        elif p_skip > 0.0 and slot(seed, 2 * len(plan.starts) + index) < p_skip * SLOT_ONE:
            skipped.append(index)
    return RawTrialResult(frozenset(skipped), lock_tick is not None)


def execute_trial(scenario, windows, domains, model: FaultResponseModel,
                  bod: Optional[BodModel] = None, *, seed: int,
                  cycles: Optional[Iterable[int]] = None) -> RawTrialResult:
    """Run the scenario once under the given windows with the trial's
    seed (see :func:`trial_plan`)."""
    return run_plan(trial_plan(scenario, windows, domains, model, bod, cycles), seed)


def stall_shift(scenario, max_delay_cycles: int, seed: int):
    """Draw one stall of 0..max_delay_cycles per delay point from the
    trial seed's stall slots; returns the map from a cycle to its delayed
    position.

    A stall only moves cycles: instruction indices, target membership and
    response encoding stay those of the undelayed scenario.
    """
    span = max_delay_cycles + 1
    points = scenario.delay_points
    total = 0
    before = [0]  # before[d]: total stall in front of a cycle past d points
    for d in range(len(points)):
        total += (slot(seed, STALL_SLOT0 + d) * span) >> 53
        before.append(total)
    return lambda cycle: cycle + before[bisect_right(points, cycle)]


def apply_random_delays(scenario, max_delay_cycles: int, seed: int):
    """Insert a uniform-random stall of 0..max_delay_cycles DUT cycles
    before each fault target, drawn from the stall slots of the trial
    ``seed``, re-deriving all cycle positions.

    One independent draw per target, so every protected assignment moves
    on its own.  Returns a new scenario; max_delay_cycles = 0 returns
    the input unchanged.  Trials skip the rebuild: they run the scenario
    at the cycles :func:`stall_shift` moves, which are the same.
    """
    if max_delay_cycles < 0:
        raise ValueError("max_delay_cycles must be >= 0")
    if max_delay_cycles == 0:
        return scenario

    shift = stall_shift(scenario, max_delay_cycles, seed)
    new_instructions = tuple(
        Instruction(ins.index, shift(ins.cycle), ins.effect)
        for ins in scenario.instructions
    )
    new_targets = tuple(
        replace(t, cycles=tuple(map(shift, t.cycles))) for t in scenario.targets
    )
    return replace(scenario, instructions=new_instructions, targets=new_targets)
