"""Multi-fault parameter search: exhaustive baseline, PSF-guided
sweeping, absolute-to-relative translation, fuzzyfication, integration
and repeatability ranking, plus cooperative-to-non-cooperative transfer.

All offsets are ticks.  Absolute offsets are measured from the trigger
tick; relative offsets from the end of the predecessor fault, which is
exactly what the chained glitcher consumes.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from .chain import chain_windows, simulate_chain
# apply_random_delays and execute_trial stay bound for bench/run.py, which
# traces the trial layers here by name; trials run on the plan instead.
from .dut import (BodModel, FaultResponseModel, RawTrialResult, apply_random_delays,
                  decode, execute_trial, run_plan, shift_by, stall_vector,
                  stall_vectors, stalled_cycles, trial_plan)
from .errors import (ConfigError, IncompleteSweep, NoIntegratedSuccess,
                     NotFound, SearchFailed)
from .scenarios import Outcome, ScenarioSpec, Verdict, classify
from .seeding import LANES, draw_key, draw_key_column, mix64, seed_column
from .timing import ClockDomains

RelSpec = tuple[int, int]  # (relative offset, width) in ticks


@dataclass(frozen=True)
class SimContext:
    """Everything besides the scenario needed to run one trial."""

    domains: ClockDomains
    model: FaultResponseModel
    bod: Optional[BodModel] = None


# Most faults in one exhaustive combo: the walk recurses once per fault,
# so this stays far below Python's recursion limit of 1000.
MAX_FAULTS = 64


@dataclass(frozen=True)
class SearchConfig:
    """The offset/width grid of the searches and each step's budget (all
    times in ticks).  Offsets are never negative and widths at least 1,
    so every combo of the grid is a valid chain."""

    offset_min: int = 0
    offset_max: int = 1  # exclusive
    stride: int = 1
    width_set: tuple[int, ...] = (1,)
    psi: int = 2
    fuzzy_stride: int = 1
    pass_budget: int = 10
    integrate_trials: int = 1
    n_rank: int = 1000
    n_final: int = 100000
    exhaustive_budget: int = 10_000_000
    n_faults: Optional[int] = None  # exhaustive baseline; default = #targets

    def __post_init__(self):
        object.__setattr__(self, "width_set", tuple(self.width_set))
        lows = {"offset_min": 0, "offset_max": self.offset_min + 1, "psi": 0,
                **dict.fromkeys(("stride", "fuzzy_stride", "pass_budget",
                                 "integrate_trials", "n_rank", "n_final",
                                 "exhaustive_budget", "n_faults"), 1)}
        for name, low in lows.items():
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(f"search {name} must be >= {low}, got {value}")
        if min(self.width_set, default=0) < 1:
            raise ConfigError(f"search widths must be >= 1, got {list(self.width_set)}")
        if self.n_faults:
            self.fault_count(None)

    @property
    def grid(self) -> list[RelSpec]:
        """Every (offset, width) point, offset-major: offsets ascend."""
        return [(o, w) for o in range(self.offset_min, self.offset_max, self.stride)
                for w in self.width_set]

    def fault_count(self, scenario: Optional[ScenarioSpec]) -> int:
        """The exhaustive baseline's faults per combo: ``n_faults``, by
        default one per target of ``scenario``.  At most ``MAX_FAULTS``."""
        n = self.n_faults or len(scenario.targets)
        if n > MAX_FAULTS:
            raise ConfigError(f"search n_faults must be <= {MAX_FAULTS}, got {n}")
        return n


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
class TrialRecord:
    """One trial of a block, as iterating the block yields it."""

    step: str
    combo: tuple[RelSpec, ...]
    outcome: Outcome
    hits: tuple[bool, ...]
    seed: int


def _code_array(codes, size: int) -> array:
    """``codes`` as an array holding ``size - 1``: itself if it does, else the narrowest."""
    if isinstance(codes, array) and size <= 256 ** codes.itemsize:
        return codes
    return (array("B", bytes(codes)) if size <= 1 << 8  # bytes() converts at C speed
            else array("H" if size <= 1 << 16 else "Q", codes))


@dataclass(eq=False)
class TrialBlock:
    """Trials of one combo in one step, stored as columns.

    Trial ``first + k`` has the verdict ``table[codes[k]]`` and the seed
    ``mix64(step_seed, first + k)``, derived in lanes when first read, or
    as read from a file.  ``codes``, one per trial, is an array of the
    narrowest typecode that holds ``len(table) - 1``: a byte for up to
    256 verdicts.  Iterating a block yields its trials as records.
    """

    step: str
    combo: tuple[RelSpec, ...]
    step_seed: int
    first: int
    table: list[Verdict]
    codes: array
    _seeds: Optional[array] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.codes)

    def seeds(self) -> array:
        """The seed of every trial, in order."""
        if self._seeds is None:
            self._seeds = seed_column(self.step_seed, self.first, len(self.codes))
        return self._seeds

    @cached_property
    def counts(self) -> dict[Verdict, int]:
        """The number of trials of each verdict that occurs."""
        if len(self.table) == 1 and self.codes:  # every trial has code 0
            return {self.table[0]: len(self.codes)}
        return {self.table[code]: k for code, k in Counter(self.codes).items()}

    @property
    def successes(self) -> int:
        return sum(k for (outcome, _), k in self.counts.items() if outcome.is_success)

    @property
    def prefix_successes(self) -> tuple[int, ...]:
        """The number of trials that hit each prefix of the targets
        (prefix k: the first k+1 targets all hit in one trial)."""
        counts = [0] * len(self.table[0][1]) if self.counts else []
        for (_, hits), n in self.counts.items():
            for k, hit in enumerate(hits):
                if not hit:
                    break
                counts[k] += n
        return tuple(counts)

    def __iter__(self):
        for seed, code in zip(self.seeds(), self.codes):
            yield TrialRecord(self.step, self.combo, *self.table[code], seed)


class _Trials:
    """A step result whose trials are kept as blocks, in run order."""

    blocks: list[TrialBlock]

    @property
    def trials_used(self) -> int:
        """The number of trials the step ran."""
        return sum(map(len, self.blocks))

    @property
    def records(self) -> list[TrialRecord]:
        """The trials as records, in run order."""
        return [rec for block in self.blocks for rec in block]


@dataclass
class SweepResult(_Trials):
    entries: dict[str, tuple[RelSpec, ...]]  # label -> sorted absolute (offset, width)s
    blocks: list[TrialBlock]

    def pick(self, label: str) -> RelSpec:
        """The target's representative entry: narrowest, then earliest."""
        return min(self.entries[label], key=lambda ow: (ow[1], ow[0]))


@dataclass
class ExhaustiveResult:
    combo: tuple[RelSpec, ...]  # the first success
    trials_used: int


@dataclass
class IntegrateResult(_Trials):
    blocks: list[TrialBlock]

    @property
    def combos(self) -> list[TrialBlock]:  # the blocks with a success
        return [block for block in self.blocks if block.successes]


@dataclass
class RepeatabilityResult(_Trials):
    blocks: list[TrialBlock]  # the rank blocks, then the final block

    @property
    def ranking(self) -> list[TrialBlock]:
        return self.blocks[:-1]

    @property
    def best(self) -> TrialBlock:
        return self.blocks[-1]


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------

def _windows(scenario: ScenarioSpec, rel_specs: Sequence[RelSpec], ctx: SimContext):
    trigger_tick = scenario.trigger_cycle * ctx.domains.oversampling
    windows, _ = simulate_chain(rel_specs, trigger_tick)
    return windows


def _run_trial(scenario: ScenarioSpec, windows, ctx: SimContext, seed: int) -> RawTrialResult:
    """The trial of ``windows`` at ``seed``: random stalls, drawn from the
    seed's stall slots, only move the cycles of the effectful instructions."""
    cycles = (stalled_cycles(scenario, stall_vector(scenario, scenario.random_delay_max, seed))
              if scenario.random_delay_max else scenario.effectful_cycles)
    plan = trial_plan(scenario, windows, ctx.domains, ctx.model, ctx.bod, cycles)
    return run_plan(plan, seed)


def run_chain_trial(scenario: ScenarioSpec, rel_specs: Sequence[RelSpec],
                    ctx: SimContext, seed: int):
    """Fire the whole chain once; returns (raw, outcome, hits).  Random
    stalls, if any, are ``apply_random_delays``' draws for ``seed``."""
    raw = _run_trial(scenario, _windows(scenario, rel_specs, ctx), ctx, seed)
    return (raw, *classify(scenario, raw))


def run_trials(scenario: ScenarioSpec, combo: Sequence[RelSpec], n: int,
               ctx: SimContext, step: str, step_seed: int,
               first: int = 0) -> TrialBlock:
    """Run n identically-parameterized trials with indices first..first+n-1;
    trial i is seeded mix64(step_seed, i).

    The windows are the same in every trial, so they are compiled once
    per stall vector.  Without stalls, a plan that holds its result makes
    the block one repeated code and runs no trial; otherwise the block's
    draw keys are made in lanes, and as a trial's result is a function of
    its key, ``decode`` runs once per distinct key.  With stalls, the
    stall vectors are made in lanes, ``LANES`` trials at a time; a vector
    whose plan holds its result has one code, and a trial whose vector's
    plan draws makes its own draw key.  No seed is kept: the block
    derives them when they are read.
    """
    combo = tuple(combo)
    windows = _windows(scenario, combo, ctx)
    verdicts: dict[Verdict, int] = {}  # verdict -> code; its keys are the table

    def code_of(raw) -> int:
        return verdicts.setdefault(classify(scenario, raw), len(verdicts))

    def entry(stalls):
        """The code of the stall vector's plan if it holds its result,
        else the plan and its draw key -> code memo."""
        plan = trial_plan(scenario, windows, ctx.domains, ctx.model, ctx.bod,
                          stalled_cycles(scenario, stalls))
        return (plan, {}) if plan.fixed is None else code_of(plan.fixed)

    def learn(plan, memo: dict, keys):
        """Decode each key of ``keys`` that ``memo`` lacks into it."""
        for key in set(keys) - memo.keys():
            memo[key] = code_of(decode(plan, key))

    if not scenario.random_delay_max:
        fixed = entry(())
        if isinstance(fixed, int):
            codes = _code_array((fixed,), len(verdicts)) * n
        else:
            plan, memo = fixed
            keys = draw_key_column(step_seed, first, n, plan.draws)
            learn(plan, memo, keys)
            codes = _code_array(map(memo.__getitem__, keys), len(verdicts))
    else:
        by_stalls: dict = {}  # stall vector -> entry(stall vector)
        codes = array("B")
        for start in range(first, first + n, LANES):
            size = min(LANES, first + n - start)
            vectors = stall_vectors(scenario, step_seed, start, size)
            distinct = set(vectors)
            for stalls in distinct - by_stalls.keys():
                by_stalls[stalls] = entry(stalls)
            column = list(map(by_stalls.__getitem__, vectors))
            if not all(isinstance(by_stalls[stalls], int) for stalls in distinct):
                seeds = seed_column(step_seed, start, size)
                for i, (code, seed) in enumerate(zip(column, seeds)):
                    if not isinstance(code, int):
                        plan, memo = code
                        key = draw_key(seed, plan.draws)
                        learn(plan, memo, (key,))
                        column[i] = memo[key]
            codes = _code_array(codes, len(verdicts))
            codes += _code_array(column, len(verdicts))
    return TrialBlock(step, combo, step_seed, first, list(verdicts), codes)


# ---------------------------------------------------------------------------
# Step 3: sweeping (single fault, PSF-guided)
# ---------------------------------------------------------------------------

def sweep(scenario: ScenarioSpec, config: SearchConfig, ctx: SimContext,
          seed: int = 0) -> SweepResult:
    """Locate every target's absolute parameters with one fault per trial.

    Only the PSFs are consulted; the overall SF plays no role here.
    Passes over the grid repeat until every target has at least one
    recorded (offset, width) entry or ``pass_budget`` passes have run.
    Trial i is ``run_trials`` trial i of the i-th grid point of the passes.
    """
    if not scenario.cooperative:
        raise ConfigError(f"scenario {scenario.name!r} is non-cooperative; "
                          "sweeping needs its partial success functions")

    labels = [t.label for t in scenario.targets]
    entries: dict[str, set[RelSpec]] = {label: set() for label in labels}
    blocks: list[TrialBlock] = []
    passes = itertools.chain.from_iterable(itertools.repeat(config.grid, config.pass_budget))
    for index, spec in enumerate(passes):
        block = run_trials(scenario, (spec,), 1, ctx, "sweep", seed, first=index)
        blocks.append(block)
        ((outcome, hits),) = block.counts  # one trial, one verdict
        if outcome.kind in ("partial_hit", "success"):
            for label, hit in zip(labels, hits):
                if hit:
                    entries[label].add(spec)
            if all(entries.values()):
                break

    missing = [label for label in labels if not entries[label]]
    if missing:
        raise IncompleteSweep(missing, len(blocks))

    return SweepResult({lbl: tuple(sorted(vals)) for lbl, vals in entries.items()}, blocks)


# ---------------------------------------------------------------------------
# Steps 4-5: translation and fuzzyfication
# ---------------------------------------------------------------------------

def translate_to_relative(absolute: Sequence[RelSpec]) -> list[RelSpec]:
    """Absolute (A, W) list -> chain-ready relative (R, W) list.

    R_0 = A_0 and R_n = A_n - (A_{n-1} + W_{n-1}); widths carry over.
    ValueError if a window starts before its predecessor ends.
    """
    out: list[RelSpec] = []
    prev_end = None
    for a, w in absolute:
        if prev_end is None:
            out.append((a, w))
        else:
            r = a - prev_end
            if r < 0:
                raise ValueError(f"window at {a} overlaps its predecessor (ends {prev_end})")
            out.append((r, w))
        prev_end = a + w
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
              config: SearchConfig, ctx: SimContext, seed: int = 0) -> IntegrateResult:
    """Exhaustively fire all faults at once over the fuzzyfied offsets,
    every ``fuzzy_stride`` ticks, ``integrate_trials`` trials per combo,
    judged by the overall SF.  Keeps every combo with >= 1 success."""
    n = config.integrate_trials
    axes = [
        [(o, f.width) for o in range(f.lo, f.hi + 1, config.fuzzy_stride)]
        for f in fuzzy
    ]
    result = IntegrateResult([
        run_trials(scenario, combo, n, ctx, "integrate", seed, first=i * n)
        for i, combo in enumerate(itertools.product(*axes))])
    if not result.combos:
        raise NoIntegratedSuccess(result.trials_used)
    return result


# ---------------------------------------------------------------------------
# Exhaustive baseline (the conventional grid search)
# ---------------------------------------------------------------------------

def exhaustive_search(scenario: ScenarioSpec, config: SearchConfig, ctx: SimContext,
                      seed: int = 0) -> ExhaustiveResult:
    """Conventional baseline: walk the product of ``fault_count`` grids
    depth first in lexicographic order up to the first success, judging
    each combination by the overall SF only.  A combo that runs is trial
    i, ``run_chain_trial``'s trial step on the i-th combo at seed
    ``mix64(seed, i)``; the first success at trial i has used i + 1
    trials.  With none in ``exhaustive_budget`` trials, raises ``NotFound``.

    A target instruction's reach is every tick it can occupy: stalls
    only delay, so it runs from the start of its cycle to the end of its
    cycle under the longest stall at every delay point (without stalls,
    its cycle).  Only a touching window skips an instruction, so a combo
    that leaves a reach untouched cannot succeed under any stall vector.
    The walk (branch and bound) prunes a prefix when a reach ends at or
    before its done tick untouched, since later windows start at or
    after that tick, or when the reaches it leaves untouched need more
    windows than it has faults left.  So a combo runs only when its
    windows touch every reach; the rest are charged to the trials used
    (up to the budget) but never run.
    """
    n_faults, budget = config.fault_count(scenario), config.exhaustive_budget
    # The grid only holds valid chains, so the walk runs the closed form
    # without checking the units of each combo.
    K = ctx.domains.oversampling
    trigger_tick = scenario.trigger_cycle * K
    # The [start, end) ticks of each target instruction's reach.
    latest = shift_by(scenario, [scenario.random_delay_max] * len(scenario.delay_points))
    target_ticks = tuple((c * K, (latest(c) + 1) * K)
                         for t in scenario.targets for c in t.cycles)
    grid = config.grid
    # Few raw results recur over many leaves: without this memo CI's stalled
    # walk (tzm_randomized) ran 12 % slower on a 2-core x86-64, Python 3.11.
    succeeds: dict = {}  # raw result -> whether it is a success
    for index, combo, windows in _live_combos(grid, n_faults, budget, trigger_tick,
                                              target_ticks):
        success = succeeds.get(raw := _run_trial(scenario, windows, ctx, mix64(seed, index)))
        if success is None:
            success = succeeds[raw] = classify(scenario, raw)[0].is_success
        if success:
            return ExhaustiveResult(combo, index + 1)
    raise NotFound(min(budget, len(grid) ** n_faults))


def _live_combos(grid: Sequence[RelSpec], n_faults: int, budget: int,
                 trigger_tick: int, target_ticks: Sequence[tuple[int, int]]):
    """(i, combo, windows) for each combo i < budget of ``grid ** n_faults``,
    in lexicographic order, whose windows touch every target: one
    [start, end) of ``target_ticks``, a target instruction's reach.

    A live prefix with done tick c has touched every target that starts
    before c; the walk keeps the others sorted by end.  Its child (o, w)
    adds a window from c + o, and is doomed, its combos skipped, when
    - an untouched target ends at or before c + o: only the children
      with o < e - c, for the earliest untouched end e, are tried, a
      prefix of ``grid``, whose offsets must ascend;
    - or the targets it leaves untouched, those that start at or after
      its done tick, need more windows than it has faults left.  Windows
      of the widest width at free starts touch at least what the chain's
      faults touch (a merged window is tiled by its faults), and the
      greedy count, a window at e - 1 for the earliest end e not yet
      touched and so on, is the fewest of them.
    So a leaf, with no fault left, runs only when it touches every target."""
    offsets = [o for o, _ in grid]
    widest = max(w for _, w in grid)

    def windows_needed(targets):  # targets sorted by end
        n, reach = 0, float("-inf")  # reach: the first start the last window misses
        for start, end in targets:
            if start >= reach:
                n, reach = n + 1, end - 1 + widest
        return n

    def walk(prefix, cursor, targets, first, size):  # size: combos below each child
        live = bisect_left(offsets, targets[0][1] - cursor if targets else float("inf"))
        left = n_faults - len(prefix) - 1  # faults after each child
        for spec in grid[:live]:
            if first >= budget:
                return
            child = prefix + (spec,)
            windows, done = chain_windows(child, trigger_tick)
            untouched = [(s, e) for s, e in targets if s >= done]
            if windows_needed(untouched) <= left:
                if left:
                    yield from walk(child, done, untouched, first, size // len(grid))
                else:
                    yield first, child, windows
            first += size
    return walk((), trigger_tick, sorted(target_ticks, key=lambda t: t[1]), 0,
                len(grid) ** (n_faults - 1))


# ---------------------------------------------------------------------------
# Step 7: repeatability ranking
# ---------------------------------------------------------------------------

def evaluate_repeatability(scenario: ScenarioSpec,
                           combos: Sequence[Sequence[RelSpec]],
                           config: SearchConfig, ctx: SimContext,
                           seed: int = 0) -> RepeatabilityResult:
    """Rank combos by success rate over ``n_rank`` trials each, then
    requalify the winner over ``n_final`` trials.  Ties break by
    enumeration order."""
    if not combos:
        raise ValueError("need at least one combo to evaluate")

    ranking = [run_trials(scenario, combo, config.n_rank, ctx, "rank",
                          mix64(seed, 1, c_idx))
               for c_idx, combo in enumerate(combos)]
    # Every rank block holds n_rank trials: more successes, a higher rate.
    best_idx = max(range(len(ranking)), key=lambda i: (ranking[i].successes, -i))
    final = run_trials(scenario, ranking[best_idx].combo, config.n_final, ctx, "final",
                       mix64(seed, 2))
    return RepeatabilityResult([*ranking, final])


# ---------------------------------------------------------------------------
# Cooperative -> non-cooperative transfer
# ---------------------------------------------------------------------------

def check_transfer(source: ScenarioSpec, target: ScenarioSpec) -> None:
    """Raise ConfigError unless both scenarios have the same target
    labels, in the same order, and the same inter-target distances."""
    where = f"transfer source {source.name!r} does not match {target.name!r}"
    if [t.label for t in source.targets] != [t.label for t in target.targets]:
        raise ConfigError(f"{where}: target labels or ordering differ")
    src_gaps, dst_gaps = ([b[0] - a[0] for a, b in zip(s.spans, s.spans[1:])]
                          for s in (source, target))
    if src_gaps != dst_gaps:
        raise ConfigError(f"{where}: inter-target distances differ: "
                          f"{src_gaps} vs {dst_gaps}")


def transfer_parameters(source: ScenarioSpec, combo: Sequence[RelSpec],
                        target: ScenarioSpec,
                        domains: ClockDomains) -> tuple[RelSpec, ...]:
    """Rebase a cooperative scenario's winning combo onto a scenario with
    a different trigger position but identical inter-target spacing.

    Only the first relative offset changes (by the trigger shift); every
    later fault is timed off its predecessor and carries over verbatim.
    A first fault rebased before the trigger raises ``SearchFailed``.
    """
    check_transfer(source, target)
    shift = (target.spans[0][0] - source.spans[0][0]) * domains.oversampling
    first_r, first_w = combo[0]
    new_first = first_r + shift
    if new_first < 0:
        raise SearchFailed("transfer_before_trigger", "transfer would move the "
                           "first fault before the trigger", 0)
    return ((new_first, first_w), *combo[1:])
