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

from .chain import ChainConfig, simulate_chain
# apply_random_delays stays bound here with the other trial layers, which
# bench/run.py traces by name; trials use stall_shift, with the same draws.
from .dut import (BodModel, FaultResponseModel, apply_random_delays,
                  execute_trial, stall_shift)
from .errors import (IncompleteSweep, NoIntegratedSuccess, NotFound,
                     OverlapError, TransferInvalid)
from .scenarios import Outcome, ScenarioSpec, classify
from .seeding import mix64
from .timing import ClockDomains

RelSpec = tuple[int, int]  # (relative offset, width) in ticks

_DELAY_SEED_SALT = 0x5EED


@dataclass(frozen=True)
class SimContext:
    """Everything besides the scenario needed to run one trial.  ``jobs``
    is ignored: under the GIL, one serial loop beats a thread pool."""

    domains: ClockDomains
    model: FaultResponseModel
    bod: Optional[BodModel] = None
    jobs: int = 1


@dataclass(frozen=True)
class SearchSpace:
    """Offset/width grid swept by the searches (ticks)."""

    offset_min: int
    offset_max: int  # exclusive
    width_set: tuple[int, ...]
    stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "width_set", tuple(self.width_set))
        if self.offset_max <= self.offset_min:
            raise ValueError("offset_max must exceed offset_min")
        if not self.width_set:
            raise ValueError("width_set must be non-empty")
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
    """One persisted trial."""

    index: int
    step: str
    combo: tuple[RelSpec, ...]
    outcome: Outcome
    hits: tuple[bool, ...]
    seed: int

    def to_dict(self) -> dict:
        return {
            "trial": self.index,
            "step": self.step,
            "combo": [list(s) for s in self.combo],
            "outcome": self.outcome.to_dict(),
            "hits": list(self.hits),
            "seed": self.seed,
        }


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

def _model_consumes_rng(model: FaultResponseModel, oversampling: int) -> bool:
    probs = [model.p_max_skip, model.p_lockup_per_fault, model.p_window_burst]
    if model.per_target_override:
        probs.extend(model.per_target_override.values())
    # p_max_skip is scaled by the covered fraction of a cycle, which lies
    # strictly between 0 and 1 when a window covers part of an instruction.
    return (any(0.0 < p < 1.0 for p in probs)
            or (model.p_max_skip > 0.0 and oversampling > 1))


def _trial(scenario: ScenarioSpec, windows, ctx: SimContext, seed: int):
    cycles = None
    if scenario.random_delay_max:
        shift = stall_shift(scenario, scenario.random_delay_max,
                            mix64(seed, _DELAY_SEED_SALT))
        cycles = map(shift, scenario.effectful_cycles)
    raw = execute_trial(scenario, windows, ctx.domains, ctx.model, ctx.bod,
                        seed, cycles)
    hits = tuple(scenario.target_hit(t.label, raw) for t in scenario.targets)
    return raw, classify(scenario, raw), hits


def _windows(scenario: ScenarioSpec, rel_specs: Sequence[RelSpec], ctx: SimContext):
    trigger_tick = scenario.trigger_cycle * ctx.domains.oversampling
    windows, _ = simulate_chain(ChainConfig(tuple(rel_specs)), trigger_tick)
    return windows


def run_chain_trial(scenario: ScenarioSpec, rel_specs: Sequence[RelSpec],
                    ctx: SimContext, seed: int):
    """Fire the whole chain once; returns (raw, outcome, hits).  Random
    stalls, if any, come from ``apply_random_delays``' draws for seed
    ``mix64(seed, 0x5EED)``."""
    return _trial(scenario, _windows(scenario, rel_specs, ctx), ctx, seed)


def run_trials(scenario: ScenarioSpec, combo: Sequence[RelSpec], n: int,
               ctx: SimContext, step: str, step_seed: int,
               first: int = 0) -> list[TrialRecord]:
    """Run n identically-parameterized trials with indices first..first+n-1;
    trial i is seeded mix64(step_seed, i).  The chain fires the same
    windows in every trial, so they are computed once."""
    combo = tuple(combo)
    windows = _windows(scenario, combo, ctx)
    records = []
    for index in range(first, first + n):
        seed = mix64(step_seed, index)
        _, outcome, hits = _trial(scenario, windows, ctx, seed)
        records.append(TrialRecord(index, step, combo, outcome, hits, seed))
    return records


# ---------------------------------------------------------------------------
# Step 3: sweeping (single fault, PSF-guided)
# ---------------------------------------------------------------------------

def sweep(scenario: ScenarioSpec, space: SearchSpace, ctx: SimContext,
          seed: int = 0, pass_budget: int = 10,
          stop_when_complete: bool = True) -> SweepResult:
    """Locate every target's absolute parameters with one fault per trial.

    Only the PSFs are consulted; the overall SF plays no role here.
    Passes over the grid repeat until every target has at least one
    recorded (offset, width) entry or the pass budget runs out.
    """
    if not scenario.cooperative:
        raise ValueError("sweeping needs a cooperative scenario (PSFs required)")

    labels = [t.label for t in scenario.targets]
    entries: dict[str, set[RelSpec]] = {label: set() for label in labels}
    records: list[TrialRecord] = []
    grid = space.grid

    index = 0
    for _ in range(pass_budget):
        for spec in grid:
            seed_t = mix64(seed, index)
            _, outcome, hits = run_chain_trial(scenario, (spec,), ctx, seed_t)
            records.append(TrialRecord(index, "sweep", (spec,), outcome, hits, seed_t))
            index += 1
            if outcome.kind in ("partial_hit", "success"):
                hit_labels = (outcome.labels if outcome.kind == "partial_hit"
                              else frozenset(labels))
                for label in hit_labels:
                    entries[label].add(spec)
            if stop_when_complete and all(entries[label] for label in labels):
                break
        if all(entries[label] for label in labels):
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

def exhaustive_grid_size(space: SearchSpace, n_faults: int) -> int:
    return len(space.grid) ** n_faults


def exhaustive_search(scenario: ScenarioSpec, space: SearchSpace, n_faults: int,
                      budget: int, ctx: SimContext, seed: int = 0,
                      max_successes: Optional[int] = None,
                      count_only: bool = False) -> ExhaustiveResult:
    """Conventional baseline: enumerate the Cartesian product of
    per-fault (offset, width) grids in lexicographic order, judging each
    combination by the overall SF only.

    ``count_only`` performs the trial accounting without touching the
    DUT model (for cost comparisons on grids too large to execute).
    """
    if n_faults < 1:
        raise ValueError("n_faults must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    grid = space.grid
    total = len(grid) ** n_faults
    if count_only:
        return ExhaustiveResult(combos=[], trials_used=min(total, budget))

    # Seed derivation is skipped for fully deterministic models; no draw
    # would consume it and mixing dominates the hot loop otherwise.
    needs_rng = _model_consumes_rng(ctx.model, ctx.domains.oversampling)
    # Budgets routinely reach 1e7 trials, so the window construction is
    # inlined here instead of going through ChainConfig per combination.
    inline = scenario.random_delay_max == 0
    trigger_tick = scenario.trigger_cycle * ctx.domains.oversampling
    sf = scenario.sf

    successes: list[RankedCombo] = []
    trials_used = 0
    for combo in itertools.product(grid, repeat=n_faults):
        if trials_used >= budget:
            break
        seed_t = mix64(seed, trials_used) if needs_rng else 0
        if inline:
            windows = []
            cursor = trigger_tick
            for o, w in combo:
                start = cursor + o
                windows.append((start, start + w))
                cursor = start + w
            raw = execute_trial(scenario, windows, ctx.domains, ctx.model,
                                ctx.bod, seed_t)
            won = (not raw.locked_up and not raw.bod_tripped
                   and raw.response is not None and sf(raw))
        else:
            _, outcome, _ = run_chain_trial(scenario, combo, ctx, seed_t)
            won = outcome.is_success
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

def _target_cycle_layout(scenario: ScenarioSpec) -> list[int]:
    return sorted(min(t.cycles) for t in scenario.targets)


def transfer_parameters(source: ScenarioSpec, combo: RankedCombo,
                        target: ScenarioSpec, domains: ClockDomains) -> RankedCombo:
    """Rebase a cooperative scenario's winning combo onto a scenario with
    a different trigger position but identical inter-target spacing.

    Only the first relative offset changes (by the trigger shift); every
    later fault is timed off its predecessor and carries over verbatim.
    """
    src = _target_cycle_layout(source)
    dst = _target_cycle_layout(target)
    if [t.label for t in source.targets] != [t.label for t in target.targets]:
        raise TransferInvalid("target labels or ordering differ between scenarios")
    src_gaps = [b - a for a, b in zip(src, src[1:])]
    dst_gaps = [b - a for a, b in zip(dst, dst[1:])]
    if src_gaps != dst_gaps:
        raise TransferInvalid(
            f"inter-target distances differ: {src_gaps} vs {dst_gaps}")

    delta_cycles = (dst[0] - target.trigger_cycle) - (src[0] - source.trigger_cycle)
    shift = delta_cycles * domains.oversampling
    first_r, first_w = combo.specs[0]
    new_first = first_r + shift
    if new_first < 0:
        raise TransferInvalid("transfer would move the first fault before the trigger")
    specs = ((new_first, first_w),) + tuple(combo.specs[1:])
    return RankedCombo(specs=specs)
