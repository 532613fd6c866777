"""Catalog of executable firmware scenarios and their success functions.

A scenario is a linear instruction stream with labeled fault targets.
A target is *hit* when all of its instructions were skipped in one
execution.  The success function (SF) is true iff every target was hit
at once; per-target partial success functions (PSFs) are only
observable in cooperative scenarios.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

from .dut import Effect, INERT_EFFECTS, Instruction, RawTrialResult, SecurityState

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Target:
    """One fault target: the instruction(s) the adversary aims to skip."""

    label: str
    effect: Effect
    cycles: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(self.cycles))
        if not self.cycles:
            raise ValueError("a target needs at least one cycle")


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    name: str
    instructions: tuple[Instruction, ...]
    targets: tuple[Target, ...]
    cooperative: bool
    trigger_cycle: int = 0
    response_kind: str = "state_bits"
    random_delay_max: int = 0  # per-trial stall countermeasure, in cycles
    meta: Optional[dict] = None

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "targets", tuple(self.targets))
        cycles = [ins.cycle for ins in self.instructions]
        if sorted(cycles) != cycles or len(set(cycles)) != len(cycles):
            raise ValueError("instruction cycles must be strictly increasing")
        if self.response_kind not in RESPONSE_ENCODERS:
            raise ValueError(f"unknown response_kind {self.response_kind!r}")

    @cached_property
    def effectful_instructions(self) -> tuple[Instruction, ...]:
        return tuple(i for i in self.instructions if i.effect not in INERT_EFFECTS)

    @cached_property
    def effectful_cycles(self) -> tuple[int, ...]:
        return tuple(i.cycle for i in self.effectful_instructions)

    @cached_property
    def delay_points(self) -> tuple[int, ...]:
        """Random-delay insertion points: each target's first cycle, in time order."""
        return tuple(sorted(min(t.cycles) for t in self.targets))

    @cached_property
    def target_indices(self) -> dict[str, frozenset[int]]:
        """Instruction indices belonging to each target label.

        Matching is by cycle; the target's effect field is the anchor of
        its first instruction (and the calibration-override key).
        """
        out = {}
        for t in self.targets:
            idx = frozenset(
                i.index for i in self.effectful_instructions if i.cycle in t.cycles
            )
            if len(idx) != len(t.cycles):
                raise ValueError(f"target {t.label} does not match the stream")
            out[t.label] = idx
        return out

    @cached_property
    def _effect_index(self) -> dict[Effect, int]:
        return {i.effect: i.index for i in self.effectful_instructions}

    def target_hit(self, label: str, raw: RawTrialResult) -> bool:
        return self.target_indices[label] <= raw.skipped

    def hit_labels(self, raw: RawTrialResult) -> frozenset[str]:
        return frozenset(t.label for t in self.targets if self.target_hit(t.label, raw))

    def sf(self, raw: RawTrialResult) -> bool:
        """Overall success function: every fault target hit at once."""
        return all(self.target_hit(t.label, raw) for t in self.targets)

    def psf(self, label: str) -> Callable[[RawTrialResult], bool]:
        """Partial success function for one target (cooperative only)."""
        if not self.cooperative:
            raise ValueError(f"{self.name}: no PSFs definable in a non-cooperative setup")
        return lambda raw: self.target_hit(label, raw)

    def encode_response(self, state: SecurityState, skipped: frozenset[int]) -> int:
        return RESPONSE_ENCODERS[self.response_kind](self, state, skipped)


# ---------------------------------------------------------------------------
# Response-word encoders
# ---------------------------------------------------------------------------

def _encode_dup_ladder(scenario, state, skipped) -> int:
    """Duplicate-register experiment ladder: FAILURE/FIRST/SECOND/SUCCESS."""
    first, second = scenario.targets[0], scenario.targets[1]
    f = scenario.target_indices[first.label] <= skipped
    s = scenario.target_indices[second.label] <= skipped
    if f and s:
        return 3  # SUCCESS
    if f:
        return 1  # FIRST
    if s:
        return 2  # SECOND
    return 0  # FAILURE


# Observed return words of the shift-pair firmware, keyed by which of
# the (LSRS, LSLS) pair got skipped.
_SHIFT_RESPONSES = {
    (False, False): 0x12,  # both executed, LSB cleared
    (True, True): 0x13,    # both skipped, value untouched
    (False, True): 0x9,    # only LSLS skipped
    (True, False): 0x38,   # only LSRS skipped
}


def _encode_shift_value(scenario, state, skipped) -> int:
    i1 = scenario._effect_index[Effect.CLEAR_LSB_SHIFT1]
    i2 = scenario._effect_index[Effect.CLEAR_LSB_SHIFT2]
    return _SHIFT_RESPONSES[(i1 in skipped, i2 in skipped)]


def _encode_state_bits(scenario, state, skipped) -> int:
    """Security flags packed into one word (documented in the schema)."""
    return (
        (state.sau_active << 0)
        | (state.ahb_original << 1)
        | (state.ahb_duplicate << 2)
        | (state.lsb_cleared << 3)
        | (state.locked_up << 4)
    )


RESPONSE_ENCODERS = {
    "dup_ladder": _encode_dup_ladder,
    "shift_value": _encode_shift_value,
    "state_bits": _encode_state_bits,
}


# ---------------------------------------------------------------------------
# Outcome taxonomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Outcome:
    kind: str  # failure | partial_hit | success | invalid | no_response | bod_reset
    labels: frozenset[str] = frozenset()

    KINDS = ("failure", "partial_hit", "success", "invalid", "no_response", "bod_reset")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown outcome kind {self.kind!r}")
        object.__setattr__(self, "labels", frozenset(self.labels))

    @property
    def is_success(self) -> bool:
        return self.kind == "success"

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.labels:
            d["labels"] = sorted(self.labels)
        return d


FAILURE = Outcome("failure")
SUCCESS = Outcome("success")
INVALID = Outcome("invalid")
NO_RESPONSE = Outcome("no_response")
BOD_RESET = Outcome("bod_reset")


def classify(scenario: ScenarioSpec, raw: RawTrialResult) -> Outcome:
    """Map one raw trial onto exactly one outcome class.

    PartialHit is only reachable in cooperative scenarios, where PSFs
    exist to tell individual targets apart.
    """
    if raw.bod_tripped:
        return BOD_RESET
    if raw.locked_up:
        return INVALID
    if raw.response is None:
        return NO_RESPONSE
    if scenario.sf(raw):
        return SUCCESS
    if scenario.cooperative:
        labels = scenario.hit_labels(raw)
        if labels:
            return Outcome("partial_hit", labels)
    return FAILURE


# ---------------------------------------------------------------------------
# Builtin scenario factories
# ---------------------------------------------------------------------------

def _stream(entries) -> tuple[Instruction, ...]:
    return tuple(Instruction(i, cycle, effect) for i, (cycle, effect) in enumerate(entries))


def _filled(effect_at: dict[int, Effect], last_cycle: int) -> tuple[Instruction, ...]:
    """Dense one-instruction-per-cycle stream, Delay everywhere else."""
    entries = [(c, effect_at.get(c, Effect.DELAY)) for c in range(last_cycle + 1)]
    return _stream(entries)


def dup_registers(delay1: int, delay2: int, cooperative: bool = True,
                  boot_cycles: int = 0, name: Optional[str] = None) -> ScenarioSpec:
    """Shadow-register countermeasure mock: two sequential stores to a
    protected register and its duplicate, separated by fixed delays.

    Compile-time delays fix the target positions for a whole experiment;
    the classification code at the end of the stream is deliberately
    outside the faultable region (plain trailing delays).
    """
    b = boot_cycles
    store1 = b + delay1 + 1
    store2 = store1 + delay2 + 1
    instructions = _filled(
        {
            b: Effect.PLAIN,  # trigger assertion point
            store1: Effect.STORE_AHB_ORIGINAL,
            store2: Effect.STORE_AHB_DUPLICATE,
        },
        store2 + 3,
    )
    targets = (
        Target("FIRST", Effect.STORE_AHB_ORIGINAL, (store1,)),
        Target("SECOND", Effect.STORE_AHB_DUPLICATE, (store2,)),
    )
    if name is None:
        kind = "coop" if cooperative else "noncoop"
        name = f"dup_registers_{kind}_{delay1}_{delay2}"
    return ScenarioSpec(
        name=name,
        instructions=instructions,
        targets=targets,
        cooperative=cooperative,
        trigger_cycle=0,
        response_kind="dup_ladder",
        meta={"delays": [delay1, delay2], "boot_cycles": b},
    )


def dup_registers_from_seed(seed: int, cooperative: bool = True,
                            max_delay: int = 60) -> ScenarioSpec:
    """Dup-register scenario with seed-derived compile-time delays, so
    parameters found for one build are very unlikely to fit another."""
    rng = random.Random(seed)
    d1 = rng.randint(1, max_delay)
    d2 = rng.randint(1, max_delay)
    spec = dup_registers(d1, d2, cooperative=cooperative,
                         name=f"dup_registers_seed_{seed}")
    spec.meta["seed"] = seed
    return spec


def successive_shifts(lead_cycles: int = 5) -> ScenarioSpec:
    """Privilege-escalation mock: the back-to-back LSRS/LSLS pair that
    clears the LSB of the non-secure branch destination."""
    s1 = lead_cycles
    instructions = _filled(
        {
            0: Effect.PLAIN,  # trigger
            s1: Effect.CLEAR_LSB_SHIFT1,
            s1 + 1: Effect.CLEAR_LSB_SHIFT2,
        },
        s1 + 4,
    )
    targets = (
        Target("LSRS", Effect.CLEAR_LSB_SHIFT1, (s1,)),
        Target("LSLS", Effect.CLEAR_LSB_SHIFT2, (s1 + 1,)),
    )
    return ScenarioSpec(
        name="successive_shifts",
        instructions=instructions,
        targets=targets,
        cooperative=True,
        trigger_cycle=0,
        response_kind="shift_value",
    )


def tzm_attack(cooperative: bool = True, boot_cycles: int = 0,
               randomized: bool = False, name: Optional[str] = None) -> ScenarioSpec:
    """Four-target TrustZone-M setup-plus-handover stream.

    Targets in reporting order: SAU activation, secure bus-controller
    activation (original register), its duplicate register, and the
    privilege-escalation shift pair.  The duplicate store precedes the
    original store in time, mirroring the vendor setup routine.
    """
    b = boot_cycles
    sau = b + 6
    dupl = b + 13
    ahb = b + 16
    pe1 = b + 26
    instructions = _filled(
        {
            b: Effect.PLAIN,  # trigger
            sau: Effect.STORE_SAU_CTRL,
            dupl: Effect.STORE_AHB_DUPLICATE,
            ahb: Effect.STORE_AHB_ORIGINAL,
            pe1: Effect.CLEAR_LSB_SHIFT1,
            pe1 + 1: Effect.CLEAR_LSB_SHIFT2,
            b + 29: Effect.BRANCH_NONSECURE,
        },
        b + 31,
    )
    targets = (
        Target("SAU", Effect.STORE_SAU_CTRL, (sau,)),
        Target("AHB_CTRL", Effect.STORE_AHB_ORIGINAL, (ahb,)),
        Target("DUPL", Effect.STORE_AHB_DUPLICATE, (dupl,)),
        # PE is the whole shift pair; hitting it means skipping both.
        Target("PE", Effect.CLEAR_LSB_SHIFT1, (pe1, pe1 + 1)),
    )
    if name is None:
        name = "tzm_full_attack" if not randomized else "tzm_randomized"
        if not cooperative:
            name += "_noncoop"
    return ScenarioSpec(
        name=name,
        instructions=instructions,
        targets=targets,
        cooperative=cooperative,
        trigger_cycle=0,
        response_kind="state_bits",
        random_delay_max=9 if randomized else 0,
        meta={"boot_cycles": b},
    )


def bod_region(width_cycles: int = 4) -> ScenarioSpec:
    """Single critical region used by the brown-out-detector studies."""
    region = tuple(range(1, width_cycles + 1))
    entries = [(0, Effect.PLAIN)]
    entries += [(c, Effect.STORE_AHB_ORIGINAL) for c in region]
    entries += [(region[-1] + 1, Effect.DELAY), (region[-1] + 2, Effect.DELAY)]
    instructions = _stream(entries)
    targets = (Target("REGION", Effect.STORE_AHB_ORIGINAL, region),)
    return ScenarioSpec(
        name="bod_scenario",
        instructions=instructions,
        targets=targets,
        cooperative=True,
        trigger_cycle=0,
        response_kind="state_bits",
    )


SCENARIO_PRESETS: dict[str, Callable[[], ScenarioSpec]] = {
    "dup_registers_coop": lambda: dup_registers(7, 43, name="dup_registers_coop"),
    "dup_registers_noncoop": lambda: dup_registers(
        7, 43, cooperative=False, boot_cycles=25, name="dup_registers_noncoop"),
    "dup_registers_7_43": lambda: dup_registers(7, 43),
    "dup_registers_33_19": lambda: dup_registers(33, 19),
    "dup_registers_4_50": lambda: dup_registers(4, 50),
    "dup_registers_22_1": lambda: dup_registers(22, 1),
    "successive_shifts": successive_shifts,
    "tzm_full_attack": tzm_attack,
    "tzm_full_attack_noncoop": lambda: tzm_attack(cooperative=False, boot_cycles=20),
    "tzm_randomized": lambda: tzm_attack(randomized=True),
    "bod_scenario": bod_region,
}


def builtin_scenarios() -> list[ScenarioSpec]:
    return [factory() for factory in SCENARIO_PRESETS.values()]


# ---------------------------------------------------------------------------
# Scenario definition files (JSON, schema_version 1)
# ---------------------------------------------------------------------------

def scenario_to_dict(spec: ScenarioSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": spec.name,
        "cooperative": spec.cooperative,
        "trigger_cycle": spec.trigger_cycle,
        "response_kind": spec.response_kind,
        "random_delay_max": spec.random_delay_max,
        "instructions": [
            {"cycle": i.cycle, "effect": i.effect.value} for i in spec.instructions
        ],
        "targets": [
            {"label": t.label, "effect": t.effect.value, "cycles": list(t.cycles)}
            for t in spec.targets
        ],
        "meta": spec.meta or {},
    }


def scenario_from_dict(data: dict) -> ScenarioSpec:
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported scenario schema_version {version!r}")
    instructions = tuple(
        Instruction(i, entry["cycle"], Effect(entry["effect"]))
        for i, entry in enumerate(data["instructions"])
    )
    targets = tuple(
        Target(t["label"], Effect(t["effect"]), tuple(t["cycles"]))
        for t in data["targets"]
    )
    return ScenarioSpec(
        name=data["name"],
        instructions=instructions,
        targets=targets,
        cooperative=bool(data["cooperative"]),
        trigger_cycle=int(data.get("trigger_cycle", 0)),
        response_kind=data.get("response_kind", "state_bits"),
        random_delay_max=int(data.get("random_delay_max", 0)),
        meta=data.get("meta") or None,
    )


def save_scenario(spec: ScenarioSpec, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(spec), indent=2, sort_keys=True))


def load_scenario(name_or_path) -> ScenarioSpec:
    """Resolve a builtin preset name or a scenario JSON file path."""
    key = str(name_or_path)
    if key in SCENARIO_PRESETS:
        return SCENARIO_PRESETS[key]()
    path = Path(key)
    if path.exists():
        return scenario_from_dict(json.loads(path.read_text()))
    raise ValueError(f"unknown scenario {key!r} (not a preset, not a file)")
