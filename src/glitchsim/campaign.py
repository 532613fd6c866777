"""Campaign orchestration: end-to-end experiment flows, deterministic
seed management, trial persistence and report emission.

Artifacts written per run directory:

- ``results.jsonl``: one JSON object per trial
  ``{trial, step, combo: [[r, w], ...], outcome, hits, seed}``,
  dense trial indices, append-order = execution order.
- ``summary.json``: step trial counts, ranking table, cascade rates and
  a full config echo (``schema_version`` 1); no timestamps, so repeated
  runs are byte-identical.
- ``report.csv``: the same trials flattened for external plotting.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Optional

from . import calibration
from .dut import BodModel, Effect, FaultResponseModel
from .errors import ConfigError, SearchFailed, check_type
from .scenarios import ScenarioSpec, load_scenario
from .search import (SearchSpace, SimContext, TrialRecord,
                     evaluate_repeatability, exhaustive_search, final_combo,
                     fuzzyfy, integrate, run_trials, sweep,
                     transfer_parameters, translate_to_relative)
from .seeding import RNG_SCHEME, mix64
from .timing import ClockDomains, FaultSpec, split_fault, ticks_from_ns

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

def _echo(value):
    """The JSON echo of a config value: a dataclass becomes an object of
    its non-None fields, an enum its value and a tuple a list."""
    if is_dataclass(value):
        return {f.name: _echo(getattr(value, f.name)) for f in fields(value)
                if getattr(value, f.name) is not None}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    if isinstance(value, dict):
        return {_echo(k): _echo(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the parameter-search flow (all times in ticks)."""

    offset_min: int = 0
    offset_max: int = 1
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
        for name, value in asdict(self).items():
            if name != "n_faults" or value is not None:  # unset: one per target
                for v in value if name == "width_set" else (value,):
                    check_type(int, f"search {name}", v)
        lows = {**dict.fromkeys(("stride", "fuzzy_stride", "pass_budget",
                                 "integrate_trials", "n_rank", "n_final",
                                 "exhaustive_budget", "n_faults"), 1), "psi": 0}
        for name, low in lows.items():
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(f"search {name} must be >= {low}, got {value}")
        try:
            self.space()
        except ValueError as exc:
            raise ConfigError(f"bad search space: {exc}") from exc

    def space(self) -> SearchSpace:
        return SearchSpace(offset_min=self.offset_min, offset_max=self.offset_max,
                           width_set=self.width_set, stride=self.stride)

    @classmethod
    def from_dict(cls, data: dict) -> "SearchConfig":
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"bad search config: {exc}") from exc


def model_from_dict(data: dict) -> FaultResponseModel:
    data = dict(data)
    preset = data.pop("preset", None)
    if preset is not None:
        if type(preset) is not str or preset not in MODEL_PRESETS:
            raise ConfigError(f"unknown model preset {preset!r}")
        if data:
            raise ConfigError("model preset cannot be combined with explicit fields")
        return MODEL_PRESETS[preset]()
    try:
        for key, value in data.items():
            check_type(dict if key == "per_target_override" else float,
                       f"model {key}", value)
        if "per_target_override" in data:
            data["per_target_override"] = {
                Effect(k): check_type(float, f"model override {k}", v)
                for k, v in data["per_target_override"].items()}
        return FaultResponseModel(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad fault-response model: {exc}") from exc


def bod_from_dict(data: dict) -> BodModel:
    data = dict(data)
    # Retired knob that never gated detection; older configs still carry it.
    data.pop("detect_width_threshold", None)
    try:
        for key, value in data.items():
            check_type(bool if key == "enabled" else int, f"bod {key}", value)
        return BodModel(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad BOD model: {exc}") from exc


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
        for name in ("oversampling", "master_seed", "trials", "jobs"):
            check_type(int, name, getattr(self, name))
        check_type(float, "dut_period_ns", self.dut_period_ns)
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
        return _echo(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        data = dict(data)
        if "scenario" not in data:
            raise ConfigError("config needs a 'scenario' entry")
        for key, parse in (("model", model_from_dict), ("bod", bod_from_dict),
                           ("search", SearchConfig.from_dict)):
            if key in data:
                if not isinstance(data[key], dict):
                    raise ConfigError(f"config entry {key!r} must be a JSON object")
                data[key] = parse(data[key])
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad campaign config: {exc}") from exc


def load_config(path) -> CampaignConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} does not hold a JSON object")
    return CampaignConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _by_key(records: list[TrialRecord], build):
    """Yield (position, record, build(record)), calling ``build`` once per
    (step, combo, outcome, hits): all a persisted line or row holds
    besides its seed and position."""
    built = {}
    for i, rec in enumerate(records):
        key = (rec.step, rec.combo, rec.outcome, rec.hits)
        value = built.get(key)
        if value is None:
            value = built[key] = build(rec)
        yield i, rec, value


def _line_parts(rec: TrialRecord) -> tuple[str, str]:
    """The JSON line of ``rec`` split around its seed and trial values.

    With sorted keys, "seed", "step" and "trial" come after "combo",
    "hits" and "outcome", so everything up to the seed value and between
    it and the trial value depends on the record key alone.  A quote
    inside a string is escaped, so only the key matches '"seed": 0'.
    """
    text = json.dumps(rec.to_dict() | {"seed": 0, "trial": 0}, sort_keys=True)
    cut = text.index('"seed": 0') + len('"seed": ')
    return text[:cut], text[cut + 1:-2]


def write_results(records: list[TrialRecord], path) -> None:
    """Append-order line-delimited JSON; a record's ``trial`` is its position."""
    with open(path, "w") as fh:
        for i, rec, (head, middle) in _by_key(records, _line_parts):
            fh.write(f"{head}{rec.seed}{middle}{i}}}\n")


def read_results(path) -> list[TrialRecord]:
    """The records of a results.jsonl (the inverse of write_results).  A
    missing file or a line that is not a trial record raises ConfigError
    naming the file and the line."""
    try:
        fh = open(path, "rb")  # bytes: a bad encoding fails on its own line
    except OSError as exc:
        raise ConfigError(f"cannot read results file {path}: {exc}") from exc
    records = []
    with fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(TrialRecord.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ConfigError(f"{path} line {lineno} is not a trial "
                                  f"record: {exc!r}") from exc
    return records


def write_summary(summary: dict, path) -> None:
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


REPORT_COLUMNS = ["trial", "step", "outcome", "success", "hits", "combo", "seed"]


def _report_cells(rec: TrialRecord) -> tuple:
    kind = rec.outcome.kind
    return (rec.step, kind, int(kind == "success"),
            "|".join("1" if h else "0" for h in rec.hits),
            ";".join(f"{r}+{w}" for r, w in rec.combo))


def results_to_report(records: list[TrialRecord], csv_path) -> int:
    """Flatten the records into report.csv, one row per trial with the
    same dense ``trial`` as results.jsonl; returns the row count."""
    with open(csv_path, "w", newline="") as dst:
        writer = csv.writer(dst)
        writer.writerow(REPORT_COLUMNS)
        for i, rec, cells in _by_key(records, _report_cells):
            writer.writerow((i, *cells, rec.seed))
    return len(records)


def _persist(out_dir, records: Optional[list[TrialRecord]], summary: dict) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if records is not None:
        write_results(records, out / "results.jsonl")
        results_to_report(records, out / "report.csv")
    write_summary(summary, out / "summary.json")


def _base_summary(cfg: CampaignConfig, operation: str,
                  scenario: Optional[ScenarioSpec] = None) -> dict:
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "operation": operation,
        "master_seed": cfg.master_seed,
        "rng_scheme": RNG_SCHEME,
        "config": cfg.to_dict(),
    }
    if scenario is not None:
        summary["scenario"] = scenario.name
    return summary


@contextmanager
def _persist_on_failure(out_dir, records: Optional[list[TrialRecord]],
                        summary: dict):
    """On a failed search step, persist the trials recorded so far and a
    summary carrying the error; ``total_trials`` adds the failed step's
    trials to them.  The error propagates."""
    try:
        yield
    except SearchFailed as exc:
        summary["error"] = exc.summary
        summary["total_trials"] = len(records or ()) + exc.trials_used
        _persist(out_dir, records, summary)
        raise


# ---------------------------------------------------------------------------
# Search steps, each with its fixed per-step seed
# ---------------------------------------------------------------------------

def _sweep(scenario: ScenarioSpec, cfg: CampaignConfig, ctx: SimContext):
    if not scenario.cooperative:
        raise ConfigError(f"scenario {scenario.name!r} is non-cooperative; "
                          "sweeping needs its partial success functions")
    return sweep(scenario, cfg.search.space(), ctx,
                 seed=mix64(cfg.master_seed, STEP_SWEEP),
                 pass_budget=cfg.search.pass_budget)


def _exhaustive(scenario: ScenarioSpec, cfg: CampaignConfig, ctx: SimContext):
    """The grid search up to its first success."""
    n_faults = cfg.search.n_faults or len(scenario.targets)
    return exhaustive_search(scenario, cfg.search.space(), n_faults,
                             cfg.search.exhaustive_budget, ctx,
                             seed=mix64(cfg.master_seed, STEP_EXHAUSTIVE),
                             max_successes=1)


def _locate(scenario: ScenarioSpec, cfg: CampaignConfig, ctx: SimContext,
            records: list[TrialRecord]):
    """Sweep -> pick -> translate -> fuzzyfy -> integrate.  Appends each
    step's trials to ``records`` as soon as the step succeeds; returns
    (sweep result, relative combo, fuzzy intervals, integrate result)."""
    sc = cfg.search
    swept = _sweep(scenario, cfg, ctx)
    records.extend(swept.records)
    picked = sorted((swept.params.pick(t.label) for t in scenario.targets),
                    key=lambda ow: ow[0])
    relative = translate_to_relative(picked)
    fuzzy = fuzzyfy(relative, sc.psi)
    integ = integrate(scenario, fuzzy, sc.integrate_trials, ctx,
                      seed=mix64(cfg.master_seed, STEP_INTEGRATE),
                      stride=sc.fuzzy_stride)
    records.extend(integ.records)
    return swept, relative, fuzzy, integ


# ---------------------------------------------------------------------------
# Attack flow (sweep -> translate -> fuzzyfy -> integrate -> evaluate)
# ---------------------------------------------------------------------------

def nominal_combo(scenario: ScenarioSpec, domains: ClockDomains) -> list[tuple[int, int]]:
    """The relative combo that exactly covers every target's occupancy
    (the ground-truth parameters, useful for calibrated evaluations)."""
    K = domains.oversampling
    return translate_to_relative([(first * K, n * K) for first, n in scenario.spans])


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
        if not flow_scenario.cooperative:
            raise ConfigError("transfer_source must be a cooperative scenario")

    ctx = cfg.context()
    sc = cfg.search
    summary = _base_summary(cfg, "flow", scenario)
    records: list[TrialRecord] = []

    with _persist_on_failure(out_dir, records, summary):
        swept, relative, fuzzy, integ = _locate(flow_scenario, cfg, ctx, records)

    evaluation = evaluate_repeatability(flow_scenario, integ.combos, sc.n_rank,
                                        sc.n_final, ctx,
                                        seed=mix64(cfg.master_seed, STEP_EVALUATE))
    records.extend(evaluation.records)
    best = evaluation.best
    transfer_trials = 0

    if flow_scenario is not scenario:
        transferred = transfer_parameters(flow_scenario, best, scenario, cfg.domains)
        final = run_trials(scenario, transferred.specs, sc.n_final, ctx,
                           "transfer_final",
                           mix64(cfg.master_seed, STEP_TRANSFER_FINAL))
        records.extend(final)
        transfer_trials = len(final)
        best = final_combo(transferred.specs, final)

    cascade = [c / best.trials_run for c in (best.prefix_success_counts or ())]
    summary.update({
        "steps": {
            "sweep": {"trials_used": swept.trials_used},
            "integrate": {"trials_used": integ.trials_used,
                          "combos_found": len(integ.combos)},
            "evaluate": {"trials_used": evaluation.trials_used},
            "transfer_final": {"trials_used": transfer_trials},
        },
        "absolute_params": swept.params.to_dict(),
        "relative_combo": [list(s) for s in relative],
        "fuzzy_intervals": [
            {"center": f.center, "psi": f.psi, "width": f.width} for f in fuzzy
        ],
        "ranking": [c.to_dict() for c in evaluation.ranking],
        "best": best.to_dict(),
        "cascade_rates": cascade,
        "target_order": [t.label for t in scenario.targets],
        "total_trials": len(records),
    })
    _persist(out_dir, records, summary)
    return summary


# ---------------------------------------------------------------------------
# Exhaustive-vs-flow comparison
# ---------------------------------------------------------------------------

def run_sweep_only(cfg: CampaignConfig, out_dir=None) -> dict:
    """Just the sweeping step; summary carries the absolute sets."""
    scenario = cfg.load_scenario()
    summary = _base_summary(cfg, "sweep", scenario)
    with _persist_on_failure(out_dir, [], summary):
        result = _sweep(scenario, cfg, cfg.context())
    summary["absolute_params"] = result.params.to_dict()
    summary["total_trials"] = result.trials_used
    _persist(out_dir, result.records, summary)
    return summary


def run_exhaustive(cfg: CampaignConfig, out_dir=None) -> dict:
    """The conventional grid-search baseline as a standalone campaign."""
    scenario = cfg.load_scenario()
    summary = _base_summary(cfg, "exhaustive", scenario)
    with _persist_on_failure(out_dir, None, summary):
        result = _exhaustive(scenario, cfg, cfg.context())
    summary["combos"] = [c.to_dict() for c in result.combos]
    summary["total_trials"] = result.trials_used
    _persist(out_dir, None, summary)
    return summary


def run_comparison(cfg: CampaignConfig, out_dir=None) -> dict:
    """Trial-count comparison of the exhaustive baseline against the
    sweep + integrate flow on an identical scenario and seed.  A side
    that fails still reports every trial it spent."""
    scenario = cfg.load_scenario()
    ctx = cfg.context()
    summary = _base_summary(cfg, "compare", scenario)

    flow_records: list[TrialRecord] = []
    try:
        _locate(scenario, cfg, ctx, flow_records)
        failed_step_trials = 0
        flow_found = True
    except SearchFailed as exc:
        failed_step_trials = exc.trials_used
        flow_found = False
    flow_trials = len(flow_records) + failed_step_trials

    try:
        exhaustive_trials = _exhaustive(scenario, cfg, ctx).trials_used
        exhaustive_found = True
    except SearchFailed as exc:
        exhaustive_trials = exc.trials_used
        exhaustive_found = False

    ratio = None
    if exhaustive_found and flow_found and flow_trials:
        ratio = exhaustive_trials / flow_trials
    summary.update({
        "n_faults": cfg.search.n_faults or len(scenario.targets),
        "exhaustive": {"trials_used": exhaustive_trials, "found": exhaustive_found},
        "flow": {"trials_used": flow_trials, "found": flow_found},
        "ratio": ratio,
        "total_trials": exhaustive_trials + flow_trials,
    })
    _persist(out_dir, None, summary)
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

    records: list[TrialRecord] = []
    table: dict[str, dict[str, float]] = {}
    for row, combo, step_id in (("wide", wide_combo, STEP_WIDE),
                                ("narrow", narrow_combo, STEP_NARROW)):
        recs = run_trials(scenario, combo, cfg.trials, ctx, row,
                          mix64(cfg.master_seed, step_id))
        records.extend(recs)
        counts = {col: 0 for col in DISTRIBUTION_COLUMNS}
        for rec in recs:
            counts[_shift_column(rec.outcome, earlier)] += 1
        table[row] = {col: counts[col] / cfg.trials for col in DISTRIBUTION_COLUMNS}

    summary = _base_summary(cfg, "wide-vs-narrow", scenario)
    summary.update({
        "columns": list(DISTRIBUTION_COLUMNS),
        "distributions": table,
        "combos": {"wide": [list(s) for s in wide_combo],
                   "narrow": [list(s) for s in narrow_combo]},
        "trials_per_row": cfg.trials,
        "total_trials": len(records),
    })
    _persist(out_dir, records, summary)
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
    if max_delay_cycles < 0:
        raise ConfigError("max_delay_cycles must be >= 0")
    scenario = cfg.load_scenario()
    ctx = cfg.context()
    combo = nominal_combo(scenario, cfg.domains)
    step_seed = mix64(cfg.master_seed, STEP_COUNTERMEASURE)

    baseline_scenario = replace(scenario, random_delay_max=0)
    delayed_scenario = replace(scenario, random_delay_max=max_delay_cycles)

    base = run_trials(baseline_scenario, combo, cfg.trials, ctx, "baseline", step_seed)
    delayed = run_trials(delayed_scenario, combo, cfg.trials, ctx, "delayed", step_seed)

    rate_base = sum(r.outcome.is_success for r in base) / cfg.trials
    rate_delayed = sum(r.outcome.is_success for r in delayed) / cfg.trials
    factor = rate_base / rate_delayed if rate_delayed else None

    summary = _base_summary(cfg, "countermeasure", scenario)
    summary.update({
        "combo": [list(s) for s in combo],
        "max_delay_cycles": max_delay_cycles,
        "trials_per_arm": cfg.trials,
        "baseline_rate": rate_base,
        "delayed_rate": rate_delayed,
        "degradation_factor": factor,
        "total_trials": len(base) + len(delayed),
    })
    _persist(out_dir, base + delayed, summary)
    return summary


# ---------------------------------------------------------------------------
# Brown-out-detector evasion study
# ---------------------------------------------------------------------------

# The paper's detector-evading split: a 400 ns fault at the trigger
# becomes 170 ns + 140 ns with a 100 ns gap.
BOD_WIDE_NS = 400
BOD_SPLIT_WIDTHS_NS = (170, 140)
BOD_SPLIT_GAPS_NS = (100,)


def run_bod_eval(cfg: CampaignConfig, out_dir=None) -> dict:
    """Detection of one wide fault vs its split counterpart, swept over
    every sampling phase of the configured detector period."""
    if cfg.bod is None:
        raise ConfigError("bod evaluation needs a 'bod' section in the config")
    domains = cfg.domains
    try:
        wide = FaultSpec(0, ticks_from_ns(domains, BOD_WIDE_NS))
        parts = split_fault(wide,
                            [ticks_from_ns(domains, w) for w in BOD_SPLIT_WIDTHS_NS],
                            [ticks_from_ns(domains, g) for g in BOD_SPLIT_GAPS_NS])
    except ValueError as exc:  # a tick so coarse that a width rounds to 0
        raise ConfigError(f"bod fault shapes do not fit the tick: {exc}") from exc
    wide_windows = [(wide.offset, wide.end)]
    split_windows = [(p.offset, p.end) for p in parts]

    period = cfg.bod.sample_period
    phases = []
    for phase in range(period):
        bod = replace(cfg.bod, sample_phase=phase)
        phases.append({
            "phase": phase,
            "wide_detected": bod.detects(wide_windows),
            "split_detected": bod.detects(split_windows),
        })

    n = len(phases)
    summary = _base_summary(cfg, "bod")
    summary.update({
        "sample_period": period,
        "enabled": cfg.bod.enabled,
        "wide_windows": [list(w) for w in wide_windows],
        "split_windows": [list(w) for w in split_windows],
        "phases": phases,
        "wide_detection_rate": sum(p["wide_detected"] for p in phases) / n,
        "split_detection_rate": sum(p["split_detected"] for p in phases) / n,
        "split_evading_phases": [p["phase"] for p in phases if not p["split_detected"]],
    })
    _persist(out_dir, None, summary)
    return summary
