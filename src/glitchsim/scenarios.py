"""Catalog of executable firmware scenarios and their success functions.

A scenario is a linear instruction stream with labeled fault targets.
A target is *hit* when all of its instructions were skipped in one
execution.  The success function (SF) is true iff every target was hit
at once; per-target partial success functions (PSFs) are only
observable in cooperative scenarios.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

from .dut import Effect, INERT_EFFECTS, Instruction, RawTrialResult
from .errors import check_type

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Target:
    """One fault target: the instruction(s) the adversary aims to skip,
    named by their cycles."""

    label: str
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

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "targets", tuple(self.targets))
        cycles = [ins.cycle for ins in self.instructions]
        if sorted(cycles) != cycles or len(set(cycles)) != len(cycles):
            raise ValueError("instruction cycles must be strictly increasing")
        for name in ("trigger_cycle", "random_delay_max"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.response_kind not in RESPONSE_ENCODERS:
            raise ValueError(f"unknown response_kind {self.response_kind!r}")
        self.target_indices  # every target must name instructions of the stream
        if any(c < self.trigger_cycle for t in self.targets for c in t.cycles):
            raise ValueError("every target cycle must lie at or after trigger_cycle")

    @cached_property
    def effectful_instructions(self) -> tuple[Instruction, ...]:
        return tuple(i for i in self.instructions if i.effect not in INERT_EFFECTS)

    @cached_property
    def effectful_cycles(self) -> tuple[int, ...]:
        return tuple(i.cycle for i in self.effectful_instructions)

    @cached_property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """(first cycle after the trigger, cycles spanned) of every target,
        in time order: where a fault must land to cover it."""
        return tuple(sorted((min(t.cycles) - self.trigger_cycle,
                             max(t.cycles) - min(t.cycles) + 1)
                            for t in self.targets))

    @cached_property
    def delay_points(self) -> tuple[int, ...]:
        """Random-delay insertion points: each target's first cycle, in time order."""
        return tuple(self.trigger_cycle + first for first, _ in self.spans)

    @cached_property
    def target_indices(self) -> dict[str, frozenset[int]]:
        """Instruction indices belonging to each target label, matched by
        cycle."""
        out = {}
        for t in self.targets:
            idx = frozenset(
                i.index for i in self.effectful_instructions if i.cycle in t.cycles
            )
            if len(idx) != len(t.cycles):
                raise ValueError(f"target {t.label} does not match the stream: "
                                 f"no effectful instruction at some of the "
                                 f"cycles {list(t.cycles)}")
            out[t.label] = idx
        if not out or len(out) != len(self.targets):
            raise ValueError("a scenario needs one or more targets with distinct labels")
        return out

    def hits(self, skipped: frozenset[int]) -> tuple[bool, ...]:
        """Whether each target, in target order, had all its instructions
        skipped."""
        return tuple(self.target_indices[t.label] <= skipped for t in self.targets)

    @cached_property
    def _effect_index(self) -> dict[Effect, int]:
        return {i.effect: i.index for i in self.effectful_instructions}

    def response(self, skipped: frozenset[int]) -> int:
        """Return word of a trial that neither locked up nor reset."""
        return RESPONSE_ENCODERS[self.response_kind](self, skipped)


# ---------------------------------------------------------------------------
# Response-word encoders
# ---------------------------------------------------------------------------

def _encode_dup_ladder(scenario, skipped) -> int:
    """Duplicate-register experiment ladder: FAILURE (0), FIRST (1),
    SECOND (2) or SUCCESS (3), by which of the first two targets were hit."""
    first, second = scenario.hits(skipped)[:2]
    return first | second << 1


# Observed return words of the shift-pair firmware, keyed by which of
# the (LSRS, LSLS) pair got skipped.
_SHIFT_RESPONSES = {
    (False, False): 0x12,  # both executed, LSB cleared
    (True, True): 0x13,    # both skipped, value untouched
    (False, True): 0x9,    # only LSLS skipped
    (True, False): 0x38,   # only LSRS skipped
}


def _encode_shift_value(scenario, skipped) -> int:
    i1 = scenario._effect_index[Effect.CLEAR_LSB_SHIFT1]
    i2 = scenario._effect_index[Effect.CLEAR_LSB_SHIFT2]
    return _SHIFT_RESPONSES[(i1 in skipped, i2 in skipped)]


def _encode_state_bits(scenario, skipped) -> int:
    """Security flags packed into one word (documented in the schema).

    A store sets its flag unless every instance of it was skipped; the
    shift pair clears the LSB unless both halves were skipped.  Bit 4
    (locked up) never shows: a locked-up trial has no word.
    """
    ran = {i.effect for i in scenario.effectful_instructions
           if i.index not in skipped}
    shifts = {scenario._effect_index.get(e)
              for e in (Effect.CLEAR_LSB_SHIFT1, Effect.CLEAR_LSB_SHIFT2)}
    lsb_cleared = None not in shifts and not shifts <= skipped
    return ((Effect.STORE_SAU_CTRL in ran)
            | (Effect.STORE_AHB_ORIGINAL in ran) << 1
            | (Effect.STORE_AHB_DUPLICATE in ran) << 2
            | lsb_cleared << 3)


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
    kind: str  # failure | partial_hit | success | invalid | bod_reset
    labels: frozenset[str] = frozenset()

    KINDS = ("failure", "partial_hit", "success", "invalid", "bod_reset")

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

    @classmethod
    def from_dict(cls, d: dict) -> "Outcome":
        labels = d.get("labels", [])
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ValueError(f"outcome labels must be a list of strings, got {labels!r}")
        return cls(d["kind"], labels)


FAILURE = Outcome("failure")
SUCCESS = Outcome("success")
INVALID = Outcome("invalid")
BOD_RESET = Outcome("bod_reset")


def classify(scenario: ScenarioSpec, raw: RawTrialResult) -> Outcome:
    """Map one raw trial onto exactly one outcome class.

    Success is the SF: every target hit at once.  PartialHit is only
    reachable in cooperative scenarios, where PSFs exist to tell
    individual targets apart.  Each target is checked once.
    """
    if raw.bod_tripped:
        return BOD_RESET
    if raw.locked_up:
        return INVALID
    hits = scenario.hits(raw.skipped)
    if all(hits):
        return SUCCESS
    if any(hits) and scenario.cooperative:
        labels = [t.label for t, hit in zip(scenario.targets, hits) if hit]
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
        Target("FIRST", (store1,)),
        Target("SECOND", (store2,)),
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
    )


def successive_shifts() -> ScenarioSpec:
    """Privilege-escalation mock: the back-to-back LSRS/LSLS pair that
    clears the LSB of the non-secure branch destination."""
    s1 = 5
    instructions = _filled(
        {
            0: Effect.PLAIN,  # trigger
            s1: Effect.CLEAR_LSB_SHIFT1,
            s1 + 1: Effect.CLEAR_LSB_SHIFT2,
        },
        s1 + 4,
    )
    targets = (
        Target("LSRS", (s1,)),
        Target("LSLS", (s1 + 1,)),
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
               randomized: bool = False) -> ScenarioSpec:
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
        Target("SAU", (sau,)),
        Target("AHB_CTRL", (ahb,)),
        Target("DUPL", (dupl,)),
        # PE is the whole shift pair; hitting it means skipping both.
        Target("PE", (pe1, pe1 + 1)),
    )
    name = "tzm_randomized" if randomized else "tzm_full_attack"
    return ScenarioSpec(
        name=name if cooperative else name + "_noncoop",
        instructions=instructions,
        targets=targets,
        cooperative=cooperative,
        trigger_cycle=0,
        response_kind="state_bits",
        random_delay_max=9 if randomized else 0,
    )


def bod_region() -> ScenarioSpec:
    """Single critical region used by the brown-out-detector studies."""
    region = (1, 2, 3, 4)
    entries = [(0, Effect.PLAIN)]
    entries += [(c, Effect.STORE_AHB_ORIGINAL) for c in region]
    entries += [(region[-1] + 1, Effect.DELAY), (region[-1] + 2, Effect.DELAY)]
    instructions = _stream(entries)
    targets = (Target("REGION", region),)
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
            {"label": t.label, "cycles": list(t.cycles)} for t in spec.targets
        ],
    }


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """The scenario a JSON object describes; a value of the wrong type
    raises TypeError, for no field is coerced.  The ``effect`` of a target
    and a ``meta`` object, which older files carry, are not read."""
    version = check_type(dict, "a scenario", data).get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported scenario schema_version {version!r}")
    instructions = tuple(
        Instruction(i, check_type(int, "instruction cycle", entry["cycle"]),
                    Effect(entry["effect"]))
        for i, entry in enumerate(data["instructions"])
    )
    targets = tuple(
        Target(check_type(str, "target label", t["label"]),
               tuple(check_type(int, "target cycle", c) for c in t["cycles"]))
        for t in data["targets"]
    )
    return ScenarioSpec(
        name=check_type(str, "name", data["name"]),
        instructions=instructions,
        targets=targets,
        cooperative=check_type(bool, "cooperative", data["cooperative"]),
        trigger_cycle=check_type(int, "trigger_cycle", data.get("trigger_cycle", 0)),
        response_kind=data.get("response_kind", "state_bits"),
        random_delay_max=check_type(int, "random_delay_max",
                                    data.get("random_delay_max", 0)),
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
        try:
            return scenario_from_dict(json.loads(path.read_text()))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad scenario file {path}: "
                             f"{type(exc).__name__}: {exc}") from exc
    raise ValueError(f"unknown scenario {key!r} (not a preset, not a file)")
