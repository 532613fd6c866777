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
from .errors import echo, parse
from .seeding import MAX_SPAN

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
        if self.random_delay_max >= MAX_SPAN:  # stalls are drawn from 0..max
            raise ValueError(f"random_delay_max must be <= {MAX_SPAN - 1}")
        self.target_indices  # every target must name instructions of the stream
        if any(c < self.trigger_cycle for t in self.targets for c in t.cycles):
            raise ValueError("every target cycle must lie at or after trigger_cycle")

    @cached_property
    def effectful_instructions(self) -> tuple[tuple[int, Instruction], ...]:
        """(index, instruction) of each effectful instruction, in stream
        order; an instruction's index is its position in the stream."""
        return tuple((i, ins) for i, ins in enumerate(self.instructions)
                     if ins.effect not in INERT_EFFECTS)

    @cached_property
    def effectful_cycles(self) -> tuple[int, ...]:
        return tuple(ins.cycle for _, ins in self.effectful_instructions)

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
                i for i, ins in self.effectful_instructions if ins.cycle in t.cycles
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


FAILURE = Outcome("failure")
SUCCESS = Outcome("success")
INVALID = Outcome("invalid")
BOD_RESET = Outcome("bod_reset")


Verdict = tuple[Outcome, tuple[bool, ...]]  # (outcome, hits) of a trial


def classify(scenario: ScenarioSpec, raw: RawTrialResult) -> Verdict:
    """The verdict of one raw trial: exactly one outcome class, and
    whether each target, in target order, was hit.

    Success is the SF: every target hit at once.  PartialHit is only
    reachable in cooperative scenarios, where PSFs exist to tell
    individual targets apart.  Each target is checked once.
    """
    hits = scenario.hits(raw.skipped)
    if raw.bod_tripped:
        return BOD_RESET, hits
    if raw.locked_up:
        return INVALID, hits
    if all(hits):
        return SUCCESS, hits
    if any(hits) and scenario.cooperative:
        labels = [t.label for t, hit in zip(scenario.targets, hits) if hit]
        return Outcome("partial_hit", labels), hits
    return FAILURE, hits


# ---------------------------------------------------------------------------
# Builtin scenario factories
# ---------------------------------------------------------------------------

def _filled(effect_at: dict[int, Effect], last_cycle: int) -> tuple[Instruction, ...]:
    """Dense one-instruction-per-cycle stream, Delay everywhere else."""
    return tuple(Instruction(c, effect_at.get(c, Effect.DELAY))
                 for c in range(last_cycle + 1))


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
        random_delay_max=9 if randomized else 0,
    )


def bod_region() -> ScenarioSpec:
    """Single critical region used by the brown-out-detector studies."""
    region = (1, 2, 3, 4)
    instructions = _filled(
        {0: Effect.PLAIN, **dict.fromkeys(region, Effect.STORE_AHB_ORIGINAL)}, region[-1] + 2)
    return ScenarioSpec(name="bod_scenario", instructions=instructions,
                        targets=(Target("REGION", region),), cooperative=True)


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


# ---------------------------------------------------------------------------
# Scenario definition files (JSON, schema_version 1)
# ---------------------------------------------------------------------------

def scenario_to_dict(spec: ScenarioSpec) -> dict:
    return {"schema_version": SCHEMA_VERSION, **echo(spec)}


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """The scenario a JSON object describes, read by ``parse``: a value of
    the wrong type raises TypeError, for no field is coerced, and an
    unknown key ValueError.  The ``effect`` of a target, a ``meta`` object
    and a ``response_kind``, which older files carry, are not read."""
    if isinstance(data, dict) and data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported scenario schema_version "
                         f"{data.get('schema_version')!r}")
    return parse(ScenarioSpec, data, "", {
        ScenarioSpec: ("meta", "response_kind", "schema_version"), Target: ("effect",)})


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
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"bad scenario file {path}: "
                             f"{type(exc).__name__}: {exc}") from exc
    raise ValueError(f"unknown scenario {key!r} (not a preset, not a file)")
