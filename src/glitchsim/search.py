"""Multi-fault parameter search: exhaustive baseline, PSF-guided
sweeping, absolute-to-relative translation, fuzzyfication, integration
and repeatability ranking, plus cooperative-to-non-cooperative transfer.

All offsets are ticks.  Absolute offsets are measured from the trigger
tick; relative offsets from the end of the predecessor fault, which is
exactly what the chained glitcher consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .chain import ChainConfig, chain_windows, simulate_chain
# apply_random_delays and execute_trial stay bound for bench/run.py, which
# traces the trial layers here by name; trials run on the plan instead.
from .dut import (BodModel, FaultResponseModel, TrialPlan, apply_random_delays,
                  execute_trial, run_plan, stall_shift, trial_plan)
from .errors import (IncompleteSweep, NoIntegratedSuccess, NotFound,
                     OverlapError, TransferInvalid)
from .scenarios import Outcome, ScenarioSpec, classify
from .seeding import _splitmix64, mix64
from .timing import ClockDomains

RelSpec = tuple[int, int]  # (relative offset, width) in ticks


@dataclass(frozen=True)
class SimContext:
    """Everything besides the scenario needed to run one trial."""

    domains: ClockDomains
    model: FaultResponseModel
    bod: Optional[BodModel] = None


@dataclass(frozen=True)
class SearchSpace:
    """Offset/width grid swept by the searches (ticks).  Offsets are never
    negative and widths at least 1, so every combo is a valid chain."""

    offset_min: int
    offset_max: int  # exclusive
    width_set: tuple[int, ...]
    stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "width_set", tuple(self.width_set))
        if self.offset_min < 0:
            raise ValueError("offset_min must be >= 0")
        if self.offset_max <= self.offset_min:
            raise ValueError("offset_max must exceed offset_min")
        if not self.width_set:
            raise ValueError("width_set must be non-empty")
        if min(self.width_set) < 1:
            raise ValueError("widths must be >= 1")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")

    @property
    def offsets(self) -> range:
        return range(self.offset_min, self.offset_max, self.stride)

    @property
    def grid(self) -> list[RelSpec]:
        return [(o, w) for o in self.offsets for w in self.width_set]


@dataclass(frozen=True)
class FuzzyInterval:
    """A relative offset widened to +-psi ticks (clipped at zero)."""

    center: int
    psi: int
    width: int

    @property
    def lo(self) -> int:
        return max(0, self.center - self.psi)

    @property
    def hi(self) -> int:
        return self.center + self.psi


@dataclass(frozen=True)
class RankedCombo:
    """One multi-fault parameter combination and its measured quality."""

    specs: tuple[RelSpec, ...]
    trials_run: int = 0
    successes: int = 0
    # Per-prefix success counts over the scenario's target order
    # (prefix k = targets[0..k] all hit in one trial).
    prefix_success_counts: Optional[tuple[int, ...]] = None

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials_run if self.trials_run else 0.0

    def to_dict(self) -> dict:
        d = {
            "specs": [list(s) for s in self.specs],
            "trials_run": self.trials_run,
            "successes": self.successes,
            "success_rate": self.success_rate,
        }
        if self.prefix_success_counts is not None:
            d["prefix_success_counts"] = list(self.prefix_success_counts)
        return d


@dataclass(frozen=True)
class AbsoluteParamSet:
    """Per-target sets of absolute (offset, width) parameters."""

    entries: dict[str, tuple[RelSpec, ...]]

    def pick(self, label: str) -> RelSpec:
        """Deterministic representative: narrowest, then earliest."""
        return min(self.entries[label], key=lambda ow: (ow[1], ow[0]))

    def to_dict(self) -> dict:
        return {label: [list(s) for s in specs] for label, specs in self.entries.items()}


@dataclass(frozen=True)
class TrialRecord:
    """One persisted trial; its number is its position in the records."""

    step: str
    combo: tuple[RelSpec, ...]
    outcome: Outcome
    hits: tuple[bool, ...]
    seed: int

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "combo": [list(s) for s in self.combo],
            "outcome": self.outcome.to_dict(),
            "hits": list(self.hits),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrialRecord":
        """Inverse of to_dict; ``trial`` must be an integer and is dropped.
        A field of the wrong type raises ValueError."""
        rec = cls(d["step"], tuple(tuple(s) for s in d["combo"]),
                  Outcome.from_dict(d["outcome"]), tuple(d["hits"]), d["seed"])
        ints = (d["trial"], rec.seed, *itertools.chain.from_iterable(rec.combo))
        if (not isinstance(rec.step, str) or any(len(s) != 2 for s in rec.combo)
                or not all(isinstance(v, int) for v in ints)
                or not all(isinstance(h, bool) for h in rec.hits)):
            raise ValueError(f"a field of {d!r} has the wrong type")
        return rec


@dataclass
class SweepResult:
    params: AbsoluteParamSet
    trials_used: int
    records: list[TrialRecord] = field(default_factory=list)


@dataclass
class ExhaustiveResult:
    combos: list[RankedCombo]
    trials_used: int


@dataclass
class IntegrateResult:
    combos: list[RankedCombo]
    trials_used: int
    records: list[TrialRecord] = field(default_factory=list)


@dataclass
class RepeatabilityResult:
    best: RankedCombo
    ranking: list[RankedCombo]
    trials_used: int
    records: list[TrialRecord] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------

def _cycles(scenario: ScenarioSpec, seed: int) -> tuple[int, ...]:
    """Start cycles of the effectful instructions in the trial at ``seed``:
    random stalls, drawn from the seed's stall slots, only move cycles."""
    if not scenario.random_delay_max:
        return scenario.effectful_cycles
    shift = stall_shift(scenario, scenario.random_delay_max, seed)
    return tuple(map(shift, scenario.effectful_cycles))


def _judge(scenario: ScenarioSpec, raw, verdicts: dict):
    """(outcome, hits) of a raw result, memoised in the caller's dict."""
    verdict = verdicts.get(raw)
    if verdict is None:
        verdict = verdicts[raw] = (classify(scenario, raw), scenario.hits(raw.skipped))
    return verdict


def _windows(scenario: ScenarioSpec, rel_specs: Sequence[RelSpec], ctx: SimContext):
    trigger_tick = scenario.trigger_cycle * ctx.domains.oversampling
    windows, _ = simulate_chain(ChainConfig(tuple(rel_specs)), trigger_tick)
    return windows


def run_chain_trial(scenario: ScenarioSpec, rel_specs: Sequence[RelSpec],
                    ctx: SimContext, seed: int):
    """Fire the whole chain once; returns (raw, outcome, hits).  Random
    stalls, if any, are ``apply_random_delays``' draws for ``seed``."""
    plan = trial_plan(scenario, _windows(scenario, rel_specs, ctx), ctx.domains,
                      ctx.model, ctx.bod, _cycles(scenario, seed))
    raw = run_plan(plan, seed)
    return (raw, *_judge(scenario, raw, {}))


def run_trials(scenario: ScenarioSpec, combo: Sequence[RelSpec], n: int,
               ctx: SimContext, step: str, step_seed: int,
               first: int = 0) -> list[TrialRecord]:
    """Run n identically-parameterized trials with indices first..first+n-1;
    trial i is seeded mix64(step_seed, i).  The windows are the same in
    every trial, so they are compiled once per stall vector and each
    trial only makes its draws."""
    combo = tuple(combo)
    windows = _windows(scenario, combo, ctx)
    plans: dict[tuple[int, ...], TrialPlan] = {}
    verdicts: dict = {}
    records = []
    step_hash = mix64(step_seed)  # mix64(a, i) == _splitmix64(mix64(a) ^ i)
    for index in range(first, first + n):
        seed = _splitmix64(step_hash ^ index)
        cycles = _cycles(scenario, seed)
        plan = plans.get(cycles)
        if plan is None:
            plan = plans[cycles] = trial_plan(scenario, windows, ctx.domains,
                                              ctx.model, ctx.bod, cycles)
        outcome, hits = _judge(scenario, run_plan(plan, seed), verdicts)
        records.append(TrialRecord(step, combo, outcome, hits, seed))
    return records


# ---------------------------------------------------------------------------
# Step 3: sweeping (single fault, PSF-guided)
# ---------------------------------------------------------------------------

def sweep(scenario: ScenarioSpec, space: SearchSpace, ctx: SimContext,
          seed: int = 0, pass_budget: int = 10) -> SweepResult:
    """Locate every target's absolute parameters with one fault per trial.

    Only the PSFs are consulted; the overall SF plays no role here.
    Passes over the grid repeat until every target has at least one
    recorded (offset, width) entry or the pass budget runs out.  Trial i
    is ``run_trials`` trial i of the i-th grid point of the passes.
    """
    if not scenario.cooperative:
        raise ValueError("sweeping needs a cooperative scenario (PSFs required)")

    labels = [t.label for t in scenario.targets]
    entries: dict[str, set[RelSpec]] = {label: set() for label in labels}
    records: list[TrialRecord] = []
    passes = itertools.chain.from_iterable(itertools.repeat(space.grid, pass_budget))
    for index, spec in enumerate(passes):
        (rec,) = run_trials(scenario, (spec,), 1, ctx, "sweep", seed, first=index)
        records.append(rec)
        if rec.outcome.kind in ("partial_hit", "success"):
            for label, hit in zip(labels, rec.hits):
                if hit:
                    entries[label].add(spec)
            if all(entries.values()):
                break

    missing = [label for label in labels if not entries[label]]
    if missing:
        raise IncompleteSweep(missing, len(records))

    params = AbsoluteParamSet({lbl: tuple(sorted(vals)) for lbl, vals in entries.items()})
    return SweepResult(params=params, trials_used=len(records), records=records)


# ---------------------------------------------------------------------------
# Steps 4-5: translation and fuzzyfication
# ---------------------------------------------------------------------------

def translate_to_relative(absolute: Sequence[RelSpec]) -> list[RelSpec]:
    """Absolute (A, W) list -> chain-ready relative (R, W) list.

    R_0 = A_0 and R_n = A_n - (A_{n-1} + W_{n-1}); widths carry over.
    """
    out: list[RelSpec] = []
    prev_end = None
    for a, w in absolute:
        if prev_end is None:
            out.append((a, w))
        else:
            r = a - prev_end
            if r < 0:
                raise OverlapError(f"window at {a} overlaps its predecessor (ends {prev_end})")
            out.append((r, w))
        prev_end = a + w
    return out


def accumulate_relative(relative: Sequence[RelSpec]) -> list[RelSpec]:
    """Inverse of translate_to_relative: relative -> absolute."""
    out: list[RelSpec] = []
    cursor = 0
    for r, w in relative:
        start = cursor + r
        out.append((start, w))
        cursor = start + w
    return out


def fuzzyfy(relative: Sequence[RelSpec], psi: int) -> list[FuzzyInterval]:
    """Widen every relative offset to +-psi ticks; widths untouched."""
    if psi < 0:
        raise ValueError("psi must be non-negative")
    return [FuzzyInterval(center=r, psi=psi, width=w) for r, w in relative]


# ---------------------------------------------------------------------------
# Step 6: integration (multi-fault exhaustive over the fuzzy intervals)
# ---------------------------------------------------------------------------

def integrate(scenario: ScenarioSpec, fuzzy: Sequence[FuzzyInterval],
              trials_per_combo: int, ctx: SimContext, seed: int = 0,
              stride: int = 1) -> IntegrateResult:
    """Exhaustively fire all faults at once over the fuzzyfied offsets,
    judged by the overall SF.  Keeps every combo with >= 1 success."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if trials_per_combo < 1:
        raise ValueError("trials_per_combo must be >= 1")
    axes = [
        [(o, f.width) for o in range(f.lo, f.hi + 1, stride)]
        for f in fuzzy
    ]
    records: list[TrialRecord] = []
    combos: list[RankedCombo] = []
    for combo in itertools.product(*axes):
        recs = run_trials(scenario, combo, trials_per_combo, ctx, "integrate",
                          seed, first=len(records))
        records.extend(recs)
        successes = sum(r.outcome.is_success for r in recs)
        if successes:
            combos.append(RankedCombo(specs=tuple(combo), trials_run=trials_per_combo,
                                      successes=successes))
    if not combos:
        raise NoIntegratedSuccess(len(records))
    return IntegrateResult(combos=combos, trials_used=len(records), records=records)


# ---------------------------------------------------------------------------
# Exhaustive baseline (the conventional grid search)
# ---------------------------------------------------------------------------

def exhaustive_search(scenario: ScenarioSpec, space: SearchSpace, n_faults: int,
                      budget: int, ctx: SimContext, seed: int = 0,
                      max_successes: Optional[int] = None) -> ExhaustiveResult:
    """Conventional baseline: enumerate the Cartesian product of
    per-fault (offset, width) grids in lexicographic order, judging each
    combination by the overall SF only.  Trial i is ``run_chain_trial``
    of the i-th combo at seed ``mix64(seed, i)``.
    """
    if n_faults < 1:
        raise ValueError("n_faults must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    # Budgets reach 1e7 trials.  The space only holds valid chains, so
    # the closed form runs without a ChainConfig per combo, and a trial
    # seed is derived only when something can draw from it: a fixed plan
    # ignores its seed, and mixing would dominate the loop otherwise.
    stalled = scenario.random_delay_max > 0
    trigger_tick = scenario.trigger_cycle * ctx.domains.oversampling
    verdicts: dict = {}

    successes: list[RankedCombo] = []
    trials_used = 0
    for combo in itertools.product(space.grid, repeat=n_faults):
        if trials_used >= budget:
            break
        windows, _ = chain_windows(combo, trigger_tick)
        trial_seed = mix64(seed, trials_used) if stalled else None
        plan = trial_plan(scenario, windows, ctx.domains, ctx.model, ctx.bod,
                          _cycles(scenario, trial_seed))
        if plan.fixed is None and trial_seed is None:
            trial_seed = mix64(seed, trials_used)
        won = _judge(scenario, run_plan(plan, trial_seed), verdicts)[0].is_success
        trials_used += 1
        if won:
            successes.append(RankedCombo(specs=tuple(combo), trials_run=1, successes=1))
            if max_successes is not None and len(successes) >= max_successes:
                break
    if not successes:
        raise NotFound(trials_used)
    return ExhaustiveResult(combos=successes, trials_used=trials_used)


# ---------------------------------------------------------------------------
# Step 7: repeatability ranking
# ---------------------------------------------------------------------------

def evaluate_repeatability(scenario: ScenarioSpec, combos: Sequence[RankedCombo],
                           n_rank: int, n_final: int, ctx: SimContext,
                           seed: int = 0) -> RepeatabilityResult:
    """Rank combos by success rate over n_rank trials each, then requalify
    the winner over n_final trials.  Ties break by enumeration order."""
    if not combos:
        raise ValueError("need at least one combo to evaluate")
    if n_rank < 1 or n_final < 1:
        raise ValueError("n_rank and n_final must be >= 1")

    records: list[TrialRecord] = []
    ranking: list[RankedCombo] = []
    for c_idx, combo in enumerate(combos):
        recs = run_trials(scenario, combo.specs, n_rank, ctx, "rank",
                          mix64(seed, 1, c_idx))
        records.extend(recs)
        wins = sum(1 for r in recs if r.outcome.is_success)
        ranking.append(RankedCombo(specs=combo.specs, trials_run=n_rank, successes=wins))

    best_idx = max(range(len(ranking)), key=lambda i: (ranking[i].success_rate, -i))
    winner = ranking[best_idx]

    final_recs = run_trials(scenario, winner.specs, n_final, ctx, "final",
                            mix64(seed, 2))
    records.extend(final_recs)
    return RepeatabilityResult(best=final_combo(winner.specs, final_recs),
                               ranking=ranking, trials_used=len(records),
                               records=records)


def final_combo(specs: tuple[RelSpec, ...], records: Sequence[TrialRecord]) -> RankedCombo:
    """One combo's success count and its per-prefix success counts
    (prefix k: the first k+1 targets all hit in one trial)."""
    prefix_counts = [0] * len(records[0].hits) if records else []
    wins = 0
    for rec in records:
        wins += rec.outcome.is_success
        for k, hit in enumerate(rec.hits):
            if not hit:
                break
            prefix_counts[k] += 1
    return RankedCombo(specs=specs, trials_run=len(records), successes=wins,
                       prefix_success_counts=tuple(prefix_counts))


# ---------------------------------------------------------------------------
# Cooperative -> non-cooperative transfer
# ---------------------------------------------------------------------------

def transfer_parameters(source: ScenarioSpec, combo: RankedCombo,
                        target: ScenarioSpec, domains: ClockDomains) -> RankedCombo:
    """Rebase a cooperative scenario's winning combo onto a scenario with
    a different trigger position but identical inter-target spacing.

    Only the first relative offset changes (by the trigger shift); every
    later fault is timed off its predecessor and carries over verbatim.
    """
    src = [first for first, _ in source.spans]
    dst = [first for first, _ in target.spans]
    if [t.label for t in source.targets] != [t.label for t in target.targets]:
        raise TransferInvalid("target labels or ordering differ between scenarios")
    src_gaps = [b - a for a, b in zip(src, src[1:])]
    dst_gaps = [b - a for a, b in zip(dst, dst[1:])]
    if src_gaps != dst_gaps:
        raise TransferInvalid(
            f"inter-target distances differ: {src_gaps} vs {dst_gaps}")

    shift = (dst[0] - src[0]) * domains.oversampling
    first_r, first_w = combo.specs[0]
    new_first = first_r + shift
    if new_first < 0:
        raise TransferInvalid("transfer would move the first fault before the trigger")
    specs = ((new_first, first_w),) + tuple(combo.specs[1:])
    return RankedCombo(specs=specs)
