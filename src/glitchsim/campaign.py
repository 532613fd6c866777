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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from . import calibration
from .dut import BodModel, Effect, FaultResponseModel
from .errors import ConfigError, IncompleteSweep, NoIntegratedSuccess, NotFound
from .scenarios import ScenarioSpec, load_scenario
from .search import (SearchSpace, SimContext, TrialRecord,
                     evaluate_repeatability, exhaustive_search, final_combo,
                     fuzzyfy, integrate, run_trials, sweep,
                     transfer_parameters, translate_to_relative)
from .seeding import mix64
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

    def space(self) -> SearchSpace:
        return SearchSpace(offset_min=self.offset_min, offset_max=self.offset_max,
                           width_set=self.width_set, stride=self.stride)

    def to_dict(self) -> dict:
        d = {
            "offset_min": self.offset_min,
            "offset_max": self.offset_max,
            "stride": self.stride,
            "width_set": list(self.width_set),
            "psi": self.psi,
            "fuzzy_stride": self.fuzzy_stride,
            "pass_budget": self.pass_budget,
            "integrate_trials": self.integrate_trials,
            "n_rank": self.n_rank,
            "n_final": self.n_final,
            "exhaustive_budget": self.exhaustive_budget,
        }
        if self.n_faults is not None:
            d["n_faults"] = self.n_faults
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "SearchConfig":
        try:
            return cls(**{k: (tuple(v) if k == "width_set" else v)
                          for k, v in data.items()})
        except TypeError as exc:
            raise ConfigError(f"bad search config: {exc}") from exc


def model_to_dict(model: FaultResponseModel) -> dict:
    d = {
        "p_max_skip": model.p_max_skip,
        "p_lockup_per_fault": model.p_lockup_per_fault,
        "p_window_burst": model.p_window_burst,
    }
    if model.per_target_override:
        d["per_target_override"] = {
            eff.value: p for eff, p in model.per_target_override.items()
        }
    return d


def model_from_dict(data: dict) -> FaultResponseModel:
    data = dict(data)
    preset = data.pop("preset", None)
    if preset is not None:
        if preset not in MODEL_PRESETS:
            raise ConfigError(f"unknown model preset {preset!r}")
        if data:
            raise ConfigError("model preset cannot be combined with explicit fields")
        return MODEL_PRESETS[preset]()
    override = data.pop("per_target_override", None)
    if override is not None:
        try:
            data["per_target_override"] = {Effect(k): v for k, v in override.items()}
        except ValueError as exc:
            raise ConfigError(f"bad per_target_override: {exc}") from exc
    try:
        return FaultResponseModel(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad fault-response model: {exc}") from exc


def bod_to_dict(bod: BodModel) -> dict:
    return {
        "enabled": bod.enabled,
        "sample_period": bod.sample_period,
        "sample_phase": bod.sample_phase,
        "detect_width_threshold": bod.detect_width_threshold,
    }


def bod_from_dict(data: dict) -> BodModel:
    try:
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
        # Checked here, not in from_dict: the CLI applies --trials and
        # --jobs to a loaded config with dataclasses.replace.
        for name in ("trials", "jobs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def domains(self) -> ClockDomains:
        return ClockDomains(oversampling=self.oversampling,
                            dut_period_ns=self.dut_period_ns)

    def context(self) -> SimContext:
        return SimContext(domains=self.domains, model=self.model,
                          bod=self.bod, jobs=self.jobs)

    def load_scenario(self) -> ScenarioSpec:
        try:
            return load_scenario(self.scenario)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        d = {
            "scenario": self.scenario,
            "oversampling": self.oversampling,
            "dut_period_ns": self.dut_period_ns,
            "model": model_to_dict(self.model),
            "search": self.search.to_dict(),
            "master_seed": self.master_seed,
            "jobs": self.jobs,
            "trials": self.trials,
        }
        if self.bod is not None:
            d["bod"] = bod_to_dict(self.bod)
        if self.transfer_source is not None:
            d["transfer_source"] = self.transfer_source
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        data = dict(data)
        if "scenario" not in data:
            raise ConfigError("config needs a 'scenario' entry")
        if "model" in data:
            data["model"] = model_from_dict(data["model"])
        if "bod" in data:
            data["bod"] = bod_from_dict(data["bod"])
        if "search" in data:
            data["search"] = SearchConfig.from_dict(data["search"])
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
    return CampaignConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def write_results(records: list[TrialRecord], path) -> None:
    """Append-order line-delimited JSON with dense trial indices."""
    with open(path, "w") as fh:
        for i, rec in enumerate(records):
            d = rec.to_dict()
            d["trial"] = i
            fh.write(json.dumps(d, sort_keys=True) + "\n")


def write_summary(summary: dict, path) -> None:
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


REPORT_COLUMNS = ["trial", "step", "outcome", "success", "hits", "combo", "seed"]


def results_to_report(results_path, csv_path) -> int:
    """Flatten results.jsonl into report.csv; returns the row count."""
    rows = 0
    with open(results_path) as src, open(csv_path, "w", newline="") as dst:
        writer = csv.writer(dst)
        writer.writerow(REPORT_COLUMNS)
        for line in src:
            if not line.strip():
                continue
            rec = json.loads(line)
            outcome = rec["outcome"]["kind"]
            writer.writerow([
                rec["trial"], rec["step"], outcome,
                int(outcome == "success"),
                "|".join("1" if h else "0" for h in rec["hits"]),
                ";".join(f"{r}+{w}" for r, w in rec["combo"]),
                rec["seed"],
            ])
            rows += 1
    return rows


def _persist(out_dir, records: Optional[list[TrialRecord]], summary: dict) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if records is not None:
        write_results(records, out / "results.jsonl")
        results_to_report(out / "results.jsonl", out / "report.csv")
    write_summary(summary, out / "summary.json")


def _base_summary(cfg: CampaignConfig, operation: str) -> dict:
    return {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "operation": operation,
        "master_seed": cfg.master_seed,
        "config": cfg.to_dict(),
    }


# ---------------------------------------------------------------------------
# Attack flow (sweep -> translate -> fuzzyfy -> integrate -> evaluate)
# ---------------------------------------------------------------------------

def nominal_combo(scenario: ScenarioSpec, domains: ClockDomains) -> list[tuple[int, int]]:
    """The relative combo that exactly covers every target's occupancy
    (the ground-truth parameters, useful for calibrated evaluations)."""
    absolute = []
    for t in sorted(scenario.targets, key=lambda t: min(t.cycles)):
        first, last = min(t.cycles), max(t.cycles)
        start = first * domains.oversampling - scenario.trigger_cycle * domains.oversampling
        width = (last - first + 1) * domains.oversampling
        absolute.append((start, width))
    return translate_to_relative(absolute)


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
        flow_scenario = load_scenario(cfg.transfer_source)
        if not flow_scenario.cooperative:
            raise ConfigError("transfer_source must be a cooperative scenario")

    ctx = cfg.context()
    sc = cfg.search
    summary = _base_summary(cfg, "flow")
    summary["scenario"] = scenario.name
    records: list[TrialRecord] = []

    try:
        sweep_result = sweep(flow_scenario, sc.space(), ctx,
                             seed=mix64(cfg.master_seed, STEP_SWEEP),
                             pass_budget=sc.pass_budget)
    except IncompleteSweep as exc:
        summary["error"] = {"kind": "incomplete_sweep",
                            "missing": list(exc.missing),
                            "trials_used": exc.trials_used}
        summary["total_trials"] = exc.trials_used
        _persist(out_dir, [], summary)
        raise
    records.extend(sweep_result.records)

    picked = sorted(
        (sweep_result.params.pick(t.label) for t in flow_scenario.targets),
        key=lambda ow: ow[0],
    )
    relative = translate_to_relative(picked)
    fuzzy = fuzzyfy(relative, sc.psi)

    try:
        integ = integrate(flow_scenario, fuzzy, sc.integrate_trials, ctx,
                          seed=mix64(cfg.master_seed, STEP_INTEGRATE),
                          stride=sc.fuzzy_stride)
    except NoIntegratedSuccess as exc:
        summary["error"] = {"kind": "no_integrated_success",
                            "trials_used": exc.trials_used}
        summary["total_trials"] = sweep_result.trials_used + exc.trials_used
        _persist(out_dir, records, summary)
        raise
    records.extend(integ.records)

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
    total = (sweep_result.trials_used + integ.trials_used
             + evaluation.trials_used + transfer_trials)
    summary.update({
        "steps": {
            "sweep": {"trials_used": sweep_result.trials_used},
            "integrate": {"trials_used": integ.trials_used,
                          "combos_found": len(integ.combos)},
            "evaluate": {"trials_used": evaluation.trials_used},
            "transfer_final": {"trials_used": transfer_trials},
        },
        "absolute_params": sweep_result.params.to_dict(),
        "relative_combo": [list(s) for s in relative],
        "fuzzy_intervals": [
            {"center": f.center, "psi": f.psi, "width": f.width} for f in fuzzy
        ],
        "ranking": [c.to_dict() for c in evaluation.ranking],
        "best": best.to_dict(),
        "cascade_rates": cascade,
        "target_order": [t.label for t in scenario.targets],
        "total_trials": total,
    })
    _persist(out_dir, records, summary)
    return summary


# ---------------------------------------------------------------------------
# Exhaustive-vs-flow comparison
# ---------------------------------------------------------------------------

def run_sweep_only(cfg: CampaignConfig, out_dir=None) -> dict:
    """Just the sweeping step; summary carries the absolute sets."""
    scenario = cfg.load_scenario()
    ctx = cfg.context()
    summary = _base_summary(cfg, "sweep")
    summary["scenario"] = scenario.name
    try:
        result = sweep(scenario, cfg.search.space(), ctx,
                       seed=mix64(cfg.master_seed, STEP_SWEEP),
                       pass_budget=cfg.search.pass_budget)
    except IncompleteSweep as exc:
        summary["error"] = {"kind": "incomplete_sweep",
                            "missing": list(exc.missing),
                            "trials_used": exc.trials_used}
        summary["total_trials"] = exc.trials_used
        _persist(out_dir, [], summary)
        raise
    summary["absolute_params"] = result.params.to_dict()
    summary["total_trials"] = result.trials_used
    _persist(out_dir, result.records, summary)
    return summary


def run_exhaustive(cfg: CampaignConfig, out_dir=None,
                   max_successes: Optional[int] = 1) -> dict:
    """The conventional grid-search baseline as a standalone campaign."""
    scenario = cfg.load_scenario()
    ctx = cfg.context()
    n_faults = cfg.search.n_faults or len(scenario.targets)
    summary = _base_summary(cfg, "exhaustive")
    summary["scenario"] = scenario.name
    try:
        result = exhaustive_search(scenario, cfg.search.space(), n_faults,
                                   cfg.search.exhaustive_budget, ctx,
                                   seed=mix64(cfg.master_seed, STEP_EXHAUSTIVE),
                                   max_successes=max_successes)
    except NotFound as exc:
        summary["error"] = {"kind": "not_found", "trials_used": exc.trials_used}
        summary["total_trials"] = exc.trials_used
        _persist(out_dir, None, summary)
        raise
    summary["combos"] = [c.to_dict() for c in result.combos]
    summary["total_trials"] = result.trials_used
    _persist(out_dir, None, summary)
    return summary


def run_comparison(cfg: CampaignConfig, out_dir=None) -> dict:
    """Trial-count comparison of the exhaustive baseline against the
    sweep + integrate flow on an identical scenario and seed."""
    scenario = cfg.load_scenario()
    ctx = cfg.context()
    sc = cfg.search
    n_faults = sc.n_faults or len(scenario.targets)
    summary = _base_summary(cfg, "compare")
    summary["scenario"] = scenario.name

    exhaustive_trials: Optional[int] = None
    exhaustive_found = False
    try:
        ex = exhaustive_search(scenario, sc.space(), n_faults, sc.exhaustive_budget,
                               ctx, seed=mix64(cfg.master_seed, STEP_EXHAUSTIVE),
                               max_successes=1)
        exhaustive_trials = ex.trials_used
        exhaustive_found = True
    except NotFound as exc:
        exhaustive_trials = exc.trials_used

    flow_trials: Optional[int] = None
    flow_found = False
    try:
        sw = sweep(scenario, sc.space(), ctx,
                   seed=mix64(cfg.master_seed, STEP_SWEEP),
                   pass_budget=sc.pass_budget)
        picked = sorted((sw.params.pick(t.label) for t in scenario.targets),
                        key=lambda ow: ow[0])
        fuzzy = fuzzyfy(translate_to_relative(picked), sc.psi)
        integ = integrate(scenario, fuzzy, sc.integrate_trials, ctx,
                          seed=mix64(cfg.master_seed, STEP_INTEGRATE),
                          stride=sc.fuzzy_stride)
        flow_trials = sw.trials_used + integ.trials_used
        flow_found = True
    except (IncompleteSweep, NoIntegratedSuccess) as exc:
        flow_trials = exc.trials_used

    ratio = None
    if exhaustive_found and flow_found and flow_trials:
        ratio = exhaustive_trials / flow_trials
    summary.update({
        "n_faults": n_faults,
        "exhaustive": {"trials_used": exhaustive_trials, "found": exhaustive_found},
        "flow": {"trials_used": flow_trials, "found": flow_found},
        "ratio": ratio,
        "total_trials": (exhaustive_trials or 0) + (flow_trials or 0),
    })
    _persist(out_dir, None, summary)
    return summary


# ---------------------------------------------------------------------------
# Wide-vs-narrow shift-pair evaluation
# ---------------------------------------------------------------------------

DISTRIBUTION_COLUMNS = ("none", "only_lsls", "only_lsrs", "both", "invalid")


def _shift_column(outcome) -> str:
    if outcome.kind in ("invalid", "no_response", "bod_reset"):
        return "invalid"
    if outcome.kind == "success":
        return "both"
    if outcome.kind == "partial_hit":
        if outcome.labels == frozenset({"LSRS"}):
            return "only_lsrs"
        if outcome.labels == frozenset({"LSLS"}):
            return "only_lsls"
    return "none"


def run_wide_vs_narrow(cfg: CampaignConfig, out_dir=None) -> dict:
    """One wide fault spanning both shift instructions vs two narrow
    back-to-back faults; emits the five-column outcome distributions."""
    scenario = cfg.load_scenario()
    if len(scenario.targets) != 2:
        raise ConfigError("wide-vs-narrow needs a two-target shift scenario")
    ctx = cfg.context()
    K = cfg.domains.oversampling
    if K < 2:
        raise ConfigError("wide-vs-narrow needs oversampling >= 2 so the two "
                          "narrow faults stay electrically separate")
    first_cycle = min(min(t.cycles) for t in scenario.targets)
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
            counts[_shift_column(rec.outcome)] += 1
        table[row] = {col: counts[col] / cfg.trials for col in DISTRIBUTION_COLUMNS}

    summary = _base_summary(cfg, "wide-vs-narrow")
    summary.update({
        "scenario": scenario.name,
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

    summary = _base_summary(cfg, "countermeasure")
    summary.update({
        "scenario": scenario.name,
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

def run_bod_eval(cfg: CampaignConfig, out_dir=None, wide_ns: float = 400,
                 split_widths_ns: tuple[float, ...] = (170, 140),
                 split_gaps_ns: tuple[float, ...] = (100,),
                 offset_ns: float = 0) -> dict:
    """Detection of one wide fault vs its split counterpart, swept over
    every sampling phase of the configured detector period."""
    if cfg.bod is None:
        raise ConfigError("bod evaluation needs a 'bod' section in the config")
    domains = cfg.domains
    offset = ticks_from_ns(domains, offset_ns)
    wide = FaultSpec(offset, ticks_from_ns(domains, wide_ns))
    parts = split_fault(wide,
                        [ticks_from_ns(domains, w) for w in split_widths_ns],
                        [ticks_from_ns(domains, g) for g in split_gaps_ns])
    wide_windows = [(wide.offset, wide.end)]
    split_windows = [(p.offset, p.end) for p in parts]

    period = cfg.bod.sample_period
    phases = []
    for phase in range(period):
        bod = BodModel(enabled=cfg.bod.enabled, sample_period=period,
                       sample_phase=phase,
                       detect_width_threshold=cfg.bod.detect_width_threshold)
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
