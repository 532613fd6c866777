"""Device-under-test model: instruction stream, security state and the
probabilistic response to voltage-fault windows.

The fault effect is an instruction-skip model.  For every instruction
whose occupancy interval intersects a fault window the skip probability
is the per-effect override when one is configured, otherwise
``p_max_skip`` scaled by the covered fraction of the instruction's
cycle.  On top of that, each window can "burst" with probability
``p_window_burst`` and then skips everything it touches; this captures
the empirically higher joint skip rate of one wide fault over two
adjacent instructions.  Each window independently causes a lockup with
probability ``p_lockup_per_fault``.

Everything is deterministic given the trial seed.  The draw order is
fixed: first burst then lockup per window (in window order), then a
skip draw for every effectful instruction a window touches, in stream
order; draws with probability 0 or 1 never consume randomness.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence


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
# no skip draw is spent on them.
INERT_EFFECTS = frozenset({Effect.DELAY, Effect.PLAIN})


@dataclass(frozen=True)
class Instruction:
    index: int
    cycle: int
    effect: Effect

    def __post_init__(self):
        if self.cycle < 0:
            raise ValueError("cycle must be non-negative")


@dataclass
class SecurityState:
    sau_active: bool = False
    ahb_original: bool = False
    ahb_duplicate: bool = False
    lsb_cleared: bool = False
    locked_up: bool = False


@dataclass(frozen=True)
class FaultResponseModel:
    """Knobs of the probabilistic skip/lockup response.

    ``per_target_override`` maps an :class:`Effect` to a fixed skip
    probability used whenever a window touches an instruction of that
    kind (calibration hook for reproducing measured rates).
    """

    p_max_skip: float = 0.5
    p_lockup_per_fault: float = 0.05
    p_window_burst: float = 0.0
    per_target_override: Optional[Mapping[Effect, float]] = None
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("p_max_skip", "p_lockup_per_fault", "p_window_burst"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.per_target_override:
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
    ``sample_period`` ticks starting at ``sample_phase``.

    ``detect_width_threshold`` is kept for config compatibility but does
    not gate detection; a sample landing inside any fault window trips
    the detector regardless of the window's width.
    """

    enabled: bool = False
    sample_period: int = 1
    sample_phase: int = 0
    detect_width_threshold: int = 1

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
    """Outcome of one firmware execution under a set of fault windows."""

    state: SecurityState
    skipped: frozenset[int]  # instruction indices skipped by faults
    response: Optional[int]
    locked_up: bool = False
    bod_tripped: bool = False


def execute_trial(scenario, windows, domains, model: FaultResponseModel,
                  bod: Optional[BodModel] = None,
                  seed: Optional[int] = None,
                  cycles: Optional[Iterable[int]] = None) -> RawTrialResult:
    """Run the scenario once under the given (disjoint, ordered) windows.

    ``windows`` are absolute ticks on the same timeline as instruction
    occupancy: instruction at cycle c occupies [c*K, (c+1)*K) with
    K = domains.oversampling.  ``cycles``, when given, replaces the start
    cycles of ``scenario.effectful_instructions`` (see :func:`stall_shift`).
    """
    if bod is not None and bod.enabled and bod.detects(windows):
        return RawTrialResult(state=SecurityState(), skipped=frozenset(),
                              response=None, bod_tripped=True)

    rng = None
    if seed is None:
        seed = model.rng_seed

    def draw(p: float) -> bool:
        nonlocal rng
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        if rng is None:
            rng = random.Random(seed)
        return rng.random() < p

    # Per-window burst and lockup draws, in window order.
    bursts = []
    lock_tick = None
    for start, end in windows:
        bursts.append(draw(model.p_window_burst))
        if draw(model.p_lockup_per_fault) and lock_tick is None:
            lock_tick = start
    locked = lock_tick is not None

    K = domains.oversampling
    skipped = set()
    shift1_seen = shift2_seen = False
    shift1_skipped = shift2_skipped = False
    state = SecurityState()
    if cycles is None:
        cycles = scenario.effectful_cycles

    for ins, cycle in zip(scenario.effectful_instructions, cycles):
        ins_start = cycle * K
        if locked and ins_start >= lock_tick:
            break  # device froze in an erroneous state
        ins_end = ins_start + K

        covered = 0
        burst_hit = False
        p_noskip = 1.0
        for w, (start, end) in enumerate(windows):
            if start >= ins_end:
                break
            overlap = min(end, ins_end) - max(start, ins_start)
            if overlap <= 0:
                continue
            covered += overlap
            if bursts[w]:
                burst_hit = True
            else:
                p_noskip *= 1.0 - model.skip_probability(ins.effect, overlap / K)

        if burst_hit:
            is_skipped = True
        elif covered == 0:
            is_skipped = False
        else:
            is_skipped = draw(1.0 - p_noskip)

        if is_skipped:
            skipped.add(ins.index)

        effect = ins.effect
        if effect is Effect.CLEAR_LSB_SHIFT1:
            shift1_seen = True
            shift1_skipped = is_skipped
        elif effect is Effect.CLEAR_LSB_SHIFT2:
            shift2_seen = True
            shift2_skipped = is_skipped
        elif not is_skipped:
            if effect is Effect.STORE_SAU_CTRL:
                state.sau_active = True
            elif effect is Effect.STORE_AHB_ORIGINAL:
                state.ahb_original = True
            elif effect is Effect.STORE_AHB_DUPLICATE:
                state.ahb_duplicate = True

    # The LSB of the branch destination stays set only when the whole
    # shift-out-shift-in pair was skipped.
    if shift1_seen and shift2_seen:
        state.lsb_cleared = not (shift1_skipped and shift2_skipped)

    skipped = frozenset(skipped)
    if locked:
        state.locked_up = True
        return RawTrialResult(state=state, skipped=skipped,
                              response=None, locked_up=True)

    response = scenario.encode_response(state, skipped)
    return RawTrialResult(state=state, skipped=skipped, response=response)


def stall_shift(scenario, max_delay_cycles: int, seed: int):
    """Draw one stall of 0..max_delay_cycles per delay point, in time
    order; returns the map from a cycle to its delayed position.

    A stall only moves cycles: instruction indices, target membership and
    response encoding stay those of the undelayed scenario.
    """
    rng = random.Random(seed)
    points = scenario.delay_points
    total = 0
    before = [0]  # before[k]: total stall in front of a cycle past k points
    for _ in points:
        total += rng.randint(0, max_delay_cycles)
        before.append(total)
    return lambda cycle: cycle + before[bisect_right(points, cycle)]


def apply_random_delays(scenario, max_delay_cycles: int, seed: int):
    """Insert a uniform-random stall of 0..max_delay_cycles DUT cycles
    before each fault target, re-deriving all cycle positions.

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
