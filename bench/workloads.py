"""The benchmark's campaign workloads: inputs from a seed, one campaign
call, and the checks on its outputs.

Every workload is deterministic given its seed, so repeated calls in one
process must produce the same ``summary.json`` digest.  ``scale``
multiplies the trial counts; the benchmark uses 1, the self-tests a
small fraction.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import glitchsim as g
from glitchsim import CampaignConfig, NotFound, SearchConfig

# Two-sided z of the Wilson intervals below.  A correct simulator fails a
# check with probability below 1e-6 per seed, so no seed a run can get
# makes a check fail by chance.
WILSON_Z = 5.0

DUP_JOINT_RATE = 0.212  # calibrated two-fault repeatability (criterion 5)
DELAYED_RATE = 1 / 100  # 0..9 stalls before each of two targets (criterion 8)

FLOW_N_FINAL = 10_000
EXHAUSTIVE_BUDGET = 50_000
COUNTERMEASURE_TRIALS = 4_000  # per arm
COUNTERMEASURE_MAX_DELAY = 9
COUNTERMEASURE_JOBS = 2


def master_seed(seed: int) -> int:
    """The campaign's master seed, derived from the benchmark seed."""
    return random.Random(seed).getrandbits(32)


def wilson(successes: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval of a binomial rate."""
    p = successes / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return centre - half, centre + half


def summary_digest(summary: dict) -> str:
    """sha256 of ``summary`` serialized exactly as summary.json is written."""
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


@dataclass
class CallResult:
    seconds: float  # host time of the campaign call alone, checks excluded
    trials: int
    digest: str
    problems: list[str] = field(default_factory=list)


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


# ---------------------------------------------------------------------------
# Configs (the part of set-up that depends on the workload)
# ---------------------------------------------------------------------------

def flow_config(seed: int, scale: float = 1.0) -> CampaignConfig:
    # demos/configs/dup_flow.json, with n_final cut from 1e5 so that one
    # run holds several campaign calls.
    return CampaignConfig(
        scenario="dup_registers_7_43", oversampling=20, dut_period_ns=100,
        model=g.dup_register_model(),
        search=SearchConfig(offset_min=0, offset_max=1200, stride=20,
                            width_set=(20,), psi=2, integrate_trials=20,
                            n_rank=_scaled(1000, scale),
                            n_final=_scaled(FLOW_N_FINAL, scale)),
        master_seed=master_seed(seed), jobs=1)


def exhaustive_config(seed: int, scale: float = 1.0) -> CampaignConfig:
    # The four-fault grid of criterion 4, budget far below its 1e7 cap.
    return CampaignConfig(
        scenario="tzm_full_attack", oversampling=1,
        model=g.deterministic_model(),
        search=SearchConfig(offset_min=0, offset_max=100, width_set=(1, 2), psi=2,
                            exhaustive_budget=_scaled(EXHAUSTIVE_BUDGET, scale)),
        master_seed=master_seed(seed))


def countermeasure_config(seed: int, scale: float = 1.0) -> CampaignConfig:
    # Criterion 8's setup at jobs = 2 (this machine's core count).
    return CampaignConfig(
        scenario="dup_registers_7_43", model=g.deterministic_model(),
        trials=_scaled(COUNTERMEASURE_TRIALS, scale),
        master_seed=master_seed(seed), jobs=COUNTERMEASURE_JOBS)


# ---------------------------------------------------------------------------
# Campaign calls and their checks
# ---------------------------------------------------------------------------

def run_flow(cfg: CampaignConfig, out_dir: Path) -> CallResult:
    t0 = perf_counter()
    summary = g.run_attack_flow(cfg, out_dir)
    seconds = perf_counter() - t0
    total = summary["total_trials"]
    res = CallResult(seconds, total, _file_digest(out_dir / "summary.json"))
    best = summary["best"]
    lo, hi = wilson(best["successes"], best["trials_run"])
    if not lo <= DUP_JOINT_RATE <= hi:
        res.problems.append(f"best success rate {best['success_rate']:.4f}: "
                            f"Wilson [{lo:.4f}, {hi:.4f}] misses {DUP_JOINT_RATE}")
    lines = _count_lines(out_dir / "results.jsonl")
    rows = _count_lines(out_dir / "report.csv") - 1  # header
    if lines != total or rows != total:
        res.problems.append(f"results.jsonl has {lines} lines and report.csv "
                            f"{rows} rows, total_trials is {total}")
    return res


def run_exhaustive(cfg: CampaignConfig, out_dir: Path) -> CallResult:
    budget = cfg.search.exhaustive_budget
    t0 = perf_counter()
    try:
        g.run_exhaustive(cfg, out_dir)
    except NotFound as exc:
        seconds = perf_counter() - t0
        res = CallResult(seconds, exc.trials_used, _file_digest(out_dir / "summary.json"))
        if exc.trials_used != budget:
            res.problems.append(f"NotFound after {exc.trials_used} trials, budget {budget}")
        return res
    return CallResult(perf_counter() - t0, 0, "",
                      ["exhaustive search found a combination; NotFound expected"])


def run_countermeasure(cfg: CampaignConfig, out_dir: Path) -> CallResult:
    # Records stay in memory and are not persisted, as in criterion 8.
    t0 = perf_counter()
    summary = g.run_countermeasure_eval(cfg, COUNTERMEASURE_MAX_DELAY)
    seconds = perf_counter() - t0
    total = summary["total_trials"]
    res = CallResult(seconds, total, summary_digest(summary))
    if summary["baseline_rate"] != 1.0:
        res.problems.append(f"baseline rate {summary['baseline_rate']} != 1.0")
    n = cfg.trials
    lo, hi = wilson(round(summary["delayed_rate"] * n), n)
    if not lo <= DELAYED_RATE <= hi:
        res.problems.append(f"delayed rate {summary['delayed_rate']:.5f}: "
                            f"Wilson [{lo:.5f}, {hi:.5f}] misses {DELAYED_RATE}")
    if total != 2 * n:
        res.problems.append(f"total_trials {total} != 2 * {n}")
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int, float], CampaignConfig]
    call: Callable[[CampaignConfig, Path], CallResult]


WORKLOADS = {w.name: w for w in (
    Workload("flow_dup", flow_config, run_flow),
    Workload("exhaustive_tzm4", exhaustive_config, run_exhaustive),
    Workload("countermeasure_dup", countermeasure_config, run_countermeasure),
)}


def set_up(name: str, seed: int, scale: float = 1.0):
    """Config, scenario and simulation context of one workload."""
    cfg = WORKLOADS[name].config(seed, scale)
    return cfg, cfg.load_scenario(), cfg.context()
