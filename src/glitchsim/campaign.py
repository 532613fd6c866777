"""Campaign orchestration: end-to-end experiment flows, deterministic
seed management, trial persistence and report emission.

Every campaign runs in one frame, ``_campaign``, that builds its summary
and persists it into the run directory, if one is given.  ``flow``,
``sweep``, ``wide-vs-narrow`` and ``countermeasure`` keep their trials
and write the three files below; ``exhaustive``, ``compare`` and ``bod``
write ``summary.json`` alone.  A failed search step persists too: the
trial files hold the trials of the steps before it, and ``summary.json``
carries the error, with the failed step's own trials counted only in
``total_trials``.  A refused input writes nothing.

Artifacts written per run directory:

- ``results.jsonl``: one JSON object per trial, keys sorted:
  ``{"combo": [[r, w], ...], "hits": [bool, ...], "outcome": {"kind":
  k, "labels": [...]}, "seed": s, "step": name, "trial": i}``, where
  ``labels`` (sorted) appears only for a partial hit and ``trial`` is the
  line's position in execution order.  This module alone writes and
  reads that line; the file is read back as trial blocks.
- ``summary.json``: step trial counts, ranking table, cascade rates and
  a full config echo (``schema_version`` 1); no timestamps, so repeated
  runs are byte-identical.
- ``report.csv``: the same trials flattened for external plotting.
"""

from __future__ import annotations

import csv
import io
import json
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain, count, groupby
from operator import itemgetter
from pathlib import Path
from typing import Optional

from . import calibration
from .chain import simulate_chain
from .dut import BodModel, FaultResponseModel
from .errors import ConfigError, SearchFailed, echo, parse
from .scenarios import Outcome, ScenarioSpec, load_scenario
from .search import (RelSpec, SearchConfig, SimContext, TrialBlock, _code_array,
                     check_transfer, evaluate_repeatability, exhaustive_search,
                     fuzzyfy, integrate, run_trials, sweep, transfer_parameters,
                     translate_to_relative)
from .seeding import RNG_SCHEME, mix64
from .timing import ClockDomains, ticks_from_ns

SUMMARY_SCHEMA_VERSION = 1

# Step identifiers feeding the per-step seed derivation; stable across
# releases so persisted campaigns replay exactly.
STEP_SWEEP = 1
STEP_INTEGRATE = 2
STEP_EVALUATE = 3
STEP_EXHAUSTIVE = 4
STEP_WIDE = 5
STEP_NARROW = 6
STEP_COUNTERMEASURE = 7
STEP_TRANSFER_FINAL = 8

MODEL_PRESETS = {
    "default": FaultResponseModel,
    "deterministic": calibration.deterministic_model,
    "dup_register": calibration.dup_register_model,
    "tzm": calibration.tzm_model,
    "shift": calibration.shift_model,
}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignConfig:
    """One reproducible experiment: everything a re-run needs."""

    scenario: str
    oversampling: int = 20
    dut_period_ns: float = 100
    model: FaultResponseModel = field(default_factory=FaultResponseModel)
    bod: Optional[BodModel] = None
    search: SearchConfig = field(default_factory=SearchConfig)
    master_seed: int = 0
    jobs: int = 1  # accepted and echoed, ignored: trials run serially
    trials: int = 10000  # generic trial count for the evaluation campaigns
    transfer_source: Optional[str] = None  # cooperative twin for non-coop flows

    def __post_init__(self):
        # Checked here, not in from_dict: the CLI applies --seed and
        # --trials to a loaded config with dataclasses.replace.
        for name in ("trials", "jobs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        try:
            self.domains
        except ValueError as exc:
            raise ConfigError(f"bad clock domains: {exc}") from exc

    @property
    def domains(self) -> ClockDomains:
        return ClockDomains(oversampling=self.oversampling,
                            dut_period_ns=self.dut_period_ns)

    def context(self) -> SimContext:
        return SimContext(domains=self.domains, model=self.model, bod=self.bod)

    def load_scenario(self, name: Optional[str] = None) -> ScenarioSpec:
        """The scenario ``name`` (default: the config's own scenario)."""
        try:
            return load_scenario(self.scenario if name is None else name)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return echo(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        """The config a JSON object describes, read by ``parse``.  A model
        ``{"preset": name}`` stands for the preset's fields; a BOD's
        ``detect_width_threshold``, a retired knob that never gated
        detection, is not read."""
        model = data.get("model")
        if isinstance(model, dict) and "preset" in model:
            preset = model["preset"]
            if type(preset) is not str or preset not in MODEL_PRESETS:
                raise ConfigError(f"unknown model preset {preset!r}")
            if len(model) > 1:
                raise ConfigError("model preset cannot be combined with explicit fields")
            data = {**data, "model": echo(MODEL_PRESETS[preset]())}
        try:
            return parse(cls, data, "", {BodModel: ("detect_width_threshold",)})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad campaign config: {exc}") from exc


def load_config(path) -> CampaignConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} does not hold a JSON object")
    return CampaignConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# Lines per write: a block's text is joined one slice at a time, never
# whole, so a large block adds no more than a slice of text to the heap.
_LINES = 1024


def _runs(blocks: list[TrialBlock], build):
    """Yield the (trial, seed, text) of each trial of ``blocks`` in runs
    of at most _LINES, where ``text`` is build(step, combo, outcome,
    hits), all a line or row holds besides its seed and position
    ``trial``: ``build`` runs once per verdict of a block's table."""
    trial = 0
    for block in blocks:
        values = [build(block.step, block.combo, *verdict) for verdict in block.table]
        seeds, codes = block.seeds(), block.codes
        for start in range(0, len(codes), _LINES):
            run = seeds[start:start + _LINES]
            yield zip(count(trial), run, map(values.__getitem__, codes[start:start + _LINES]))
            trial += len(run)


def _line_parts(step, combo, outcome, hits) -> tuple[str, str]:
    """The JSON line of a trial split around its seed and trial values.

    With sorted keys, "seed", "step" and "trial" come after "combo",
    "hits" and "outcome", so everything up to the seed value and between
    it and the trial value depends on (step, combo, outcome, hits) alone.
    """
    judged = {"kind": outcome.kind}
    if outcome.labels:
        judged["labels"] = sorted(outcome.labels)
    head = json.dumps({"combo": [list(s) for s in combo], "hits": list(hits),
                       "outcome": judged}, sort_keys=True)
    return f'{head[:-1]}, "seed": ', f', "step": {json.dumps(step)}, "trial": '


def write_results(blocks: list[TrialBlock], path) -> None:
    """Append-order line-delimited JSON of the trials of ``blocks``; a
    trial's ``trial`` is its position."""
    with open(path, "w") as fh:
        for run in _runs(blocks, _line_parts):
            fh.write("".join([f"{head}{seed}{middle}{i}}}\n"
                              for i, seed, (head, middle) in run]))


def _hits_fit(kind: str, hits: list, labels: list) -> bool:
    """Whether ``classify`` gives some outcome of ``kind`` with ``hits``
    (one per target) and, on a partial hit, ``labels`` (one per hit)."""
    n, k = len(hits), sum(hits)
    return n > 0 and {"success": k == n, "failure": k < n, "bod_reset": k == 0,
                      "partial_hit": 0 < k < n and len(labels) == k}.get(kind, True)


def _trial(line: dict, position: int):
    """The ((step, combo), verdict, seed) of the parsed line at ``position``
    among a file's trials.  A missing or unknown key, a wrong type, a trial
    that is not the position, a seed outside [0, 2**64) or a line that
    write_results never writes raises: the combo is a non-empty list of
    [offset >= 0, width >= 1] pairs, the hits fit the outcome (_hits_fit),
    and labels, strictly ascending, come with a partial hit alone."""
    step, outcome, hits, seed = line["step"], line["outcome"], line["hits"], line["seed"]
    combo, partial, trial = line["combo"], outcome["kind"] == "partial_hit", line["trial"]
    labels = outcome["labels"] if partial else []
    ints = (trial, seed, *chain.from_iterable(combo))
    if (len(line) != 6 or len(outcome) != 1 + partial  # a key write_results never writes
            or not isinstance(step, str) or not combo or any(len(s) != 2 for s in combo)
            or not all(type(v) is int for v in ints)  # JSON true is no int
            or any(o < 0 or w < 1 for o, w in combo)
            or not isinstance(hits, list) or not all(isinstance(h, bool) for h in hits)
            or not _hits_fit(outcome["kind"], hits, labels)
            or not all(isinstance(x, str) for x in labels)
            or labels != sorted(set(labels))  # a list, strictly ascending
            or trial != position or seed >> 64):
        raise ValueError(f"a field of {line!r} has a wrong type or value")
    verdict = Outcome(outcome["kind"], labels), tuple(hits)
    return (step, tuple(map(tuple, combo))), verdict, seed


def _trials(path):
    """The _trial of each non-blank line of a results.jsonl; a line that
    is no trial record raises ConfigError naming the file and the line."""
    try:
        fh = open(path, "rb")  # bytes: a bad encoding fails on its own line
    except OSError as exc:
        raise ConfigError(f"cannot read results file {path}: {exc}") from exc
    with fh:
        position = 0  # among the non-blank lines
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                trial = _trial(json.loads(line), position)
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                raise ConfigError(f"{path} line {lineno} is not a trial "
                                  f"record: {exc!r}") from exc
            position += 1
            yield trial


def read_results(path) -> list[TrialBlock]:
    """The trials of a results.jsonl (the inverse of write_results), one
    block per run of consecutive lines with the same step and combo,
    holding the seeds it read; ConfigError names a bad file or line."""
    blocks = []
    for (step, combo), run in groupby(_trials(path), itemgetter(0)):
        verdicts, codes, seeds = {}, array("B"), array("Q")
        for _, verdict, seed in run:
            if (code := verdicts.get(verdict)) is None:
                code = verdicts[verdict] = len(verdicts)
                codes = _code_array(codes, len(verdicts))
            codes.append(code)
            seeds.append(seed)
        blocks.append(TrialBlock(step, combo, 0, 0, list(verdicts), codes, seeds))
    return blocks


def write_summary(summary: dict, path) -> None:
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


REPORT_COLUMNS = ["trial", "step", "outcome", "success", "hits", "combo", "seed"]


def _report_cells(step, combo, outcome, hits) -> str:
    """The CSV text of a trial's row between its trial and seed values,
    which are integers and never quoted."""
    kind = outcome.kind
    text = io.StringIO()
    csv.writer(text).writerow((step, kind, int(kind == "success"),
                               "|".join("1" if h else "0" for h in hits),
                               ";".join(f"{r}+{w}" for r, w in combo)))
    return text.getvalue()[:-2]  # the "\r\n" line end


def results_to_report(blocks: list[TrialBlock], csv_path) -> int:
    """Flatten the trials of ``blocks`` into report.csv, one row per
    trial with the same dense ``trial`` as results.jsonl; returns the row
    count."""
    with open(csv_path, "w", newline="") as dst:
        csv.writer(dst).writerow(REPORT_COLUMNS)
        for run in _runs(blocks, _report_cells):
            dst.write("".join([f"{i},{text},{seed}\r\n" for i, seed, text in run]))
    return sum(map(len, blocks))


def _persist(out_dir, blocks: Optional[list[TrialBlock]], summary: dict) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if blocks is not None:
        write_results(blocks, out / "results.jsonl")
        results_to_report(blocks, out / "report.csv")
    write_summary(summary, out / "summary.json")


def _combo_entry(combo: tuple[RelSpec, ...], trials: int, successes: int) -> dict:
    """A combo's entry in summary.json: its specs, trials and successes."""
    return {"specs": echo(combo), "trials_run": trials, "successes": successes,
            "success_rate": successes / trials}


@contextmanager
def _campaign(cfg: CampaignConfig, operation: str, scenario: Optional[ScenarioSpec],
              out_dir, blocks: Optional[list[TrialBlock]]):
    """The frame of every campaign: yields its base summary and ``blocks``,
    the list its steps fill, or None for a campaign that keeps no trials.
    On exit it sets ``total_trials`` from the blocks, if any, and persists.
    A failed search step persists the trials so far and its error, with its
    own trials in ``total_trials``, and re-raises; any other error writes
    nothing."""
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "operation": operation,
        "master_seed": cfg.master_seed,
        "rng_scheme": RNG_SCHEME,
        "config": cfg.to_dict(),
    }
    if scenario is not None:
        summary["scenario"] = scenario.name
    try:
        yield summary, blocks
    except SearchFailed as exc:
        summary["error"] = exc.summary
        summary["total_trials"] = sum(map(len, blocks or ())) + exc.trials_used
        _persist(out_dir, blocks, summary)
        raise
    if blocks is not None:
        summary["total_trials"] = sum(map(len, blocks))
    _persist(out_dir, blocks, summary)


# ---------------------------------------------------------------------------
# Search steps, each with its fixed per-step seed
# ---------------------------------------------------------------------------

def _sweep(scenario: ScenarioSpec, cfg: CampaignConfig, ctx: SimContext):
    return sweep(scenario, cfg.search, ctx, seed=mix64(cfg.master_seed, STEP_SWEEP))


def _exhaustive(scenario: ScenarioSpec, cfg: CampaignConfig, ctx: SimContext):
    """The grid search up to its first success."""
    return exhaustive_search(scenario, cfg.search, ctx,
                             seed=mix64(cfg.master_seed, STEP_EXHAUSTIVE))


def _locate(scenario: ScenarioSpec, cfg: CampaignConfig, ctx: SimContext,
            blocks: list[TrialBlock]):
    """Sweep -> pick -> translate -> fuzzyfy -> integrate.  Appends each
    step's trial blocks to ``blocks`` as soon as the step succeeds;
    returns (sweep result, relative combo, fuzzy intervals, integrate
    result).  Overlapping picks raise a SearchFailed that used no trials."""
    swept = _sweep(scenario, cfg, ctx)
    blocks.extend(swept.blocks)
    picked = sorted((swept.pick(t.label) for t in scenario.targets),
                    key=lambda ow: ow[0])
    try:
        relative = translate_to_relative(picked)
    except ValueError as exc:
        raise SearchFailed("overlapping_picks", str(exc), 0) from exc
    fuzzy = fuzzyfy(relative, cfg.search.psi)
    integ = integrate(scenario, fuzzy, cfg.search, ctx,
                      seed=mix64(cfg.master_seed, STEP_INTEGRATE))
    blocks.extend(integ.blocks)
    return swept, relative, fuzzy, integ


# ---------------------------------------------------------------------------
# Attack flow (sweep -> translate -> fuzzyfy -> integrate -> evaluate)
# ---------------------------------------------------------------------------

def nominal_combo(scenario: ScenarioSpec, domains: ClockDomains) -> list[tuple[int, int]]:
    """The relative combo that exactly covers every target's occupancy
    (the ground-truth parameters, useful for calibrated evaluations);
    ConfigError if two targets overlap in time."""
    K = domains.oversampling
    try:
        return translate_to_relative([(first * K, n * K) for first, n in scenario.spans])
    except ValueError as exc:
        raise ConfigError(f"the targets of {scenario.name!r} overlap in time: {exc}") from exc


def run_attack_flow(cfg: CampaignConfig, out_dir=None) -> dict:
    """Execute the full search flow and persist every trial.

    Cooperative scenarios run sweep -> translate -> fuzzyfy -> integrate
    -> evaluate directly.  A non-cooperative scenario needs a
    cooperative ``transfer_source`` twin: the flow runs on the twin, the
    winning combo is rebased onto the non-cooperative trigger, and only
    the final repeatability evaluation runs on the real scenario.
    """
    scenario = cfg.load_scenario()
    flow_scenario = scenario
    if not scenario.cooperative:
        if cfg.transfer_source is None:
            raise ConfigError(
                f"scenario {scenario.name!r} is non-cooperative; "
                "a cooperative 'transfer_source' is required")
        flow_scenario = cfg.load_scenario(cfg.transfer_source)
        check_transfer(flow_scenario, scenario)

    ctx = cfg.context()
    transfer_trials = 0
    with _campaign(cfg, "flow", scenario, out_dir, []) as (summary, blocks):
        swept, relative, fuzzy, integ = _locate(flow_scenario, cfg, ctx, blocks)
        evaluation = evaluate_repeatability(flow_scenario,
                                            [block.combo for block in integ.combos],
                                            cfg.search, ctx,
                                            seed=mix64(cfg.master_seed, STEP_EVALUATE))
        blocks.extend(evaluation.blocks)
        best = evaluation.best
        if flow_scenario is not scenario:
            combo = transfer_parameters(flow_scenario, best.combo, scenario, cfg.domains)
            best = run_trials(scenario, combo, cfg.search.n_final, ctx, "transfer_final",
                              mix64(cfg.master_seed, STEP_TRANSFER_FINAL))
            blocks.append(best)
            transfer_trials = len(best)

        prefixes = best.prefix_successes
        summary.update({
            "steps": {
                "sweep": {"trials_used": swept.trials_used},
                "integrate": {"trials_used": integ.trials_used,
                              "combos_found": len(integ.combos)},
                "evaluate": {"trials_used": evaluation.trials_used},
                "transfer_final": {"trials_used": transfer_trials},
            },
            "absolute_params": echo(swept.entries),
            "relative_combo": echo(relative),
            "fuzzy_intervals": echo(fuzzy),
            "ranking": [_combo_entry(block.combo, len(block), block.successes)
                        for block in evaluation.ranking],
            "best": {**_combo_entry(best.combo, len(best), best.successes),
                     "prefix_success_counts": echo(prefixes)},
            "cascade_rates": [c / len(best) for c in prefixes],
            "target_order": [t.label for t in scenario.targets],
        })
    return summary


# ---------------------------------------------------------------------------
# Exhaustive-vs-flow comparison
# ---------------------------------------------------------------------------

def run_sweep_only(cfg: CampaignConfig, out_dir=None) -> dict:
    """Just the sweeping step; summary carries the absolute sets."""
    scenario = cfg.load_scenario()
    with _campaign(cfg, "sweep", scenario, out_dir, []) as (summary, blocks):
        result = _sweep(scenario, cfg, cfg.context())
        blocks.extend(result.blocks)
        summary["absolute_params"] = echo(result.entries)
    return summary


def run_exhaustive(cfg: CampaignConfig, out_dir=None) -> dict:
    """The conventional grid-search baseline as a standalone campaign."""
    scenario = cfg.load_scenario()
    with _campaign(cfg, "exhaustive", scenario, out_dir, None) as (summary, _):
        result = _exhaustive(scenario, cfg, cfg.context())
        summary["combos"] = [_combo_entry(result.combo, 1, 1)]
        summary["total_trials"] = result.trials_used
    return summary


def run_comparison(cfg: CampaignConfig, out_dir=None) -> dict:
    """Trial-count comparison of the exhaustive baseline against the
    sweep + integrate flow on an identical scenario and seed.  A side
    that fails still reports every trial it spent, and its error."""
    scenario = cfg.load_scenario()
    n_faults = cfg.search.fault_count(scenario)  # bounded before any trial runs
    ctx = cfg.context()
    with _campaign(cfg, "compare", scenario, out_dir, None) as (summary, _):
        flow_blocks: list[TrialBlock] = []
        try:
            _locate(scenario, cfg, ctx, flow_blocks)
            flow = {"trials_used": sum(map(len, flow_blocks)), "found": True}
        except SearchFailed as exc:
            flow = {"trials_used": sum(map(len, flow_blocks)) + exc.trials_used,
                    "found": False, "error": exc.summary}
        try:
            exhaustive = {"trials_used": _exhaustive(scenario, cfg, ctx).trials_used,
                          "found": True}
        except SearchFailed as exc:
            exhaustive = {"trials_used": exc.trials_used, "found": False,
                          "error": exc.summary}

        ratio = None
        if exhaustive["found"] and flow["found"] and flow["trials_used"]:
            ratio = exhaustive["trials_used"] / flow["trials_used"]
        summary.update({
            "n_faults": n_faults,
            "exhaustive": exhaustive,
            "flow": flow,
            "ratio": ratio,
            "total_trials": exhaustive["trials_used"] + flow["trials_used"],
        })
    return summary


# ---------------------------------------------------------------------------
# Wide-vs-narrow shift-pair evaluation
# ---------------------------------------------------------------------------

DISTRIBUTION_COLUMNS = ("none", "only_lsls", "only_lsrs", "both", "invalid")


def _shift_column(outcome, earlier: str) -> str:
    """The column of one trial; ``earlier`` labels the target that runs
    first (the LSRS of the shift pair)."""
    if outcome.kind in ("invalid", "bod_reset"):
        return "invalid"
    if outcome.kind == "success":
        return "both"
    if outcome.kind == "partial_hit":
        return "only_lsrs" if earlier in outcome.labels else "only_lsls"
    return "none"


def _distribution(block: TrialBlock, earlier: str) -> dict[str, int]:
    """The block's trial count in each of DISTRIBUTION_COLUMNS."""
    counts = dict.fromkeys(DISTRIBUTION_COLUMNS, 0)
    for (outcome, _), n in block.counts.items():
        counts[_shift_column(outcome, earlier)] += n
    return counts


def run_wide_vs_narrow(cfg: CampaignConfig, out_dir=None) -> dict:
    """One wide fault spanning both shift instructions vs two narrow
    back-to-back faults; emits the five-column outcome distributions.
    The scenario needs PSFs and two one-cycle targets on consecutive cycles."""
    scenario = cfg.load_scenario()
    if not scenario.cooperative:
        raise ConfigError(f"scenario {scenario.name!r} is non-cooperative; "
                          "wide-vs-narrow needs its partial success functions")
    spans = scenario.spans
    if len(spans) != 2 or spans[0][1] != 1 or spans[1] != (spans[0][0] + 1, 1):
        raise ConfigError("wide-vs-narrow needs two one-cycle targets on "
                          f"consecutive cycles, unlike {scenario.name!r}")
    ctx = cfg.context()
    K = cfg.domains.oversampling
    if K < 2:
        raise ConfigError("wide-vs-narrow needs oversampling >= 2 so the two "
                          "narrow faults stay electrically separate")
    first_cycle = spans[0][0]
    earlier = min(scenario.targets, key=lambda t: t.cycles).label
    wide_combo = [(first_cycle * K, 2 * K)]
    # Two chained faults with zero inter-fault gap would OR-merge into
    # one wide window at the crowbar; a one-tick gap keeps them distinct
    # while each still covers (almost all of) its own instruction cycle.
    narrow_combo = [(first_cycle * K, K - 1), (1, K - 1)]

    with _campaign(cfg, "wide-vs-narrow", scenario, out_dir, []) as (summary, blocks):
        table: dict[str, dict[str, float]] = {}
        for row, combo, step_id in (("wide", wide_combo, STEP_WIDE),
                                    ("narrow", narrow_combo, STEP_NARROW)):
            block = run_trials(scenario, combo, cfg.trials, ctx, row,
                               mix64(cfg.master_seed, step_id))
            blocks.append(block)
            counts = _distribution(block, earlier)
            table[row] = {col: counts[col] / cfg.trials for col in DISTRIBUTION_COLUMNS}
        summary.update({
            "columns": list(DISTRIBUTION_COLUMNS),
            "distributions": table,
            "combos": echo({"wide": wide_combo, "narrow": narrow_combo}),
            "trials_per_row": cfg.trials,
        })
    return summary


# ---------------------------------------------------------------------------
# Random-delay countermeasure evaluation
# ---------------------------------------------------------------------------

def run_countermeasure_eval(cfg: CampaignConfig, max_delay_cycles: int,
                            out_dir=None) -> dict:
    """Success-rate degradation caused by per-trial random stalls.

    The same nominal combo, trial count and seeds are used with the
    countermeasure off and on; the factor is rate_off / rate_on.
    """
    scenario = cfg.load_scenario()
    ctx = cfg.context()
    combo = nominal_combo(scenario, cfg.domains)
    step_seed = mix64(cfg.master_seed, STEP_COUNTERMEASURE)

    baseline_scenario = replace(scenario, random_delay_max=0)
    try:
        delayed_scenario = replace(scenario, random_delay_max=max_delay_cycles)
    except ValueError as exc:  # a stall bound the scenario refuses
        raise ConfigError(str(exc)) from exc

    with _campaign(cfg, "countermeasure", scenario, out_dir, []) as (summary, blocks):
        base = run_trials(baseline_scenario, combo, cfg.trials, ctx, "baseline", step_seed)
        delayed = run_trials(delayed_scenario, combo, cfg.trials, ctx, "delayed", step_seed)
        blocks += base, delayed

        rate_base = base.successes / cfg.trials
        rate_delayed = delayed.successes / cfg.trials
        summary.update({
            "combo": echo(combo),
            "max_delay_cycles": max_delay_cycles,
            "trials_per_arm": cfg.trials,
            "baseline_rate": rate_base,
            "delayed_rate": rate_delayed,
            "degradation_factor": rate_base / rate_delayed if rate_delayed else None,
        })
    return summary


# ---------------------------------------------------------------------------
# Brown-out-detector evasion study
# ---------------------------------------------------------------------------

# The paper's detector-evading split, as chain units in ns (offset after
# the predecessor's end, width): a 400 ns fault at the trigger becomes
# 170 ns + 140 ns with a 100 ns gap.
BOD_WIDE_NS = ((0, 400),)
BOD_SPLIT_NS = ((0, 170), (100, 140))


def run_bod_eval(cfg: CampaignConfig, out_dir=None) -> dict:
    """Detection of one wide fault vs its split counterpart, swept over
    every sampling phase of the configured detector period."""
    cfg.load_scenario()  # validated like every campaign's, though not run
    if cfg.bod is None:
        raise ConfigError("bod evaluation needs a 'bod' section in the config")
    domains = cfg.domains

    def fire(shape, units):  # chain units in ns -> crowbar windows in ticks from 0
        ticks = tuple((ticks_from_ns(domains, o), ticks_from_ns(domains, w))
                      for o, w in units)
        for (_, ns), (_, width) in zip(units, ticks):
            if width < 1:  # a tick so coarse that the width rounds to 0
                raise ConfigError(
                    f"bod fault shapes do not fit the tick: the {shape} shape's {ns} ns "
                    f"fault rounds to 0 ticks of {float(domains.tick_period_ns):g} ns")
        return simulate_chain(ticks, 0)[0]

    wide_windows, split_windows = fire("wide", BOD_WIDE_NS), fire("split", BOD_SPLIT_NS)

    period = cfg.bod.sample_period
    with _campaign(cfg, "bod", None, out_dir, None) as (summary, _):
        phases = []
        for phase in range(period):
            bod = replace(cfg.bod, sample_phase=phase)
            phases.append({
                "phase": phase,
                "wide_detected": bod.detects(wide_windows),
                "split_detected": bod.detects(split_windows),
            })
        summary.update({
            "sample_period": period,
            "enabled": cfg.bod.enabled,
            "wide_windows": echo(wide_windows),
            "split_windows": echo(split_windows),
            "phases": phases,
            "wide_detection_rate": sum(p["wide_detected"] for p in phases) / period,
            "split_detection_rate": sum(p["split_detected"] for p in phases) / period,
            "split_evading_phases": [p["phase"] for p in phases
                                     if not p["split_detected"]],
        })
    return summary
