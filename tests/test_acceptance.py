"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
``CRITERION n: PASS`` line when its assertions hold (run with ``-s`` or
read the captured output of ``pytest -v``).
"""

import json
import math
import random
from dataclasses import replace

import glitchsim as g
from glitchsim.campaign import (CampaignConfig, SearchConfig, nominal_combo,
                                run_attack_flow, run_bod_eval, run_comparison,
                                run_countermeasure_eval, run_wide_vs_narrow)
from glitchsim.chain import simulate_chain
from glitchsim.calibration import (NARROW_FAULT_DISTRIBUTION,
                                   WIDE_FAULT_DISTRIBUTION)
from glitchsim.dut import BodModel
from glitchsim.scenarios import load_scenario
from glitchsim.search import (SimContext, evaluate_repeatability, sweep,
                              translate_to_relative)
from glitchsim.timing import ClockDomains

from test_chain import merge_windows  # pytest puts tests/ on sys.path
from test_search import accumulate_relative


def random_disjoint_windows(rng, max_len=6):
    n = rng.randint(1, max_len)
    out, cursor = [], 0
    for _ in range(n):
        start = cursor + rng.randint(0, 200)
        width = rng.randint(1, 100)
        out.append((start, width))
        cursor = start + width
    return out


def three_sigma(p, n):
    return 3 * math.sqrt(p * (1 - p) / n)


def test_criterion_01_translation_round_trip():
    """Absolute -> relative -> absolute is exact for 1,000 random lists."""
    rng = random.Random(0xC1)
    for _ in range(1000):
        absolute = random_disjoint_windows(rng)
        assert accumulate_relative(translate_to_relative(absolute)) == absolute
    print("CRITERION 1: PASS - relative translation round-trips exactly "
          "on 1000 random disjoint window lists")


def test_criterion_02_chain_reproduces_absolute_windows():
    """The chained glitcher reproduces [A_i, A_i + W_i) from the
    translated relative parameters for the same 1,000 cases."""
    rng = random.Random(0xC1)
    for _ in range(1000):
        absolute = random_disjoint_windows(rng)
        rel = translate_to_relative(absolute)
        windows, _ = simulate_chain(rel, 0)
        assert windows == merge_windows([(a, a + w) for a, w in absolute])
    print("CRITERION 2: PASS - chain simulation reproduces the absolute "
          "windows for 1000 translated cases")


def test_criterion_03_sweep_soundness_on_dup_presets():
    """Noise-free sweeps locate exactly the two store cycles on all four
    duplicate-register presets."""
    dom = ClockDomains(oversampling=20)
    ctx = SimContext(domains=dom, model=g.deterministic_model())
    for preset in ("dup_registers_7_43", "dup_registers_33_19",
                   "dup_registers_4_50", "dup_registers_22_1"):
        scen = load_scenario(preset)
        c1, c2 = (min(t.cycles) for t in scen.targets)
        config = SearchConfig(offset_min=0, offset_max=(c2 + 2) * 20, width_set=(20,),
                              stride=20)
        result = sweep(scen, config, ctx, seed=3)
        assert result.entries == {
            "FIRST": ((c1 * 20, 20),),
            "SECOND": ((c2 * 20, 20),),
        }, preset
    print("CRITERION 3: PASS - sweep returns exactly the two target cycles "
          "on presets (7,43), (33,19), (4,50), (22,1)")


def test_criterion_04_trial_count_speedup():
    """Flow vs exhaustive trial counts: >= 20x on the 2-fault scenario;
    the 4-fault exhaustive blows a 1e7 cap the flow completes under."""
    # Part 1: two faults over a 1,000-point offset grid.
    cfg2 = CampaignConfig(
        scenario="dup_registers_33_19", oversampling=1,
        model=g.deterministic_model(),
        search=SearchConfig(offset_min=0, offset_max=1000, width_set=(1,),
                            psi=2),
        master_seed=7,
    )
    two = run_comparison(cfg2)
    assert two["exhaustive"]["found"] and two["flow"]["found"]
    assert two["ratio"] >= 20

    # Part 2: four faults over a 200-point grid, 1e7-trial cap.
    cfg4 = CampaignConfig(
        scenario="tzm_full_attack", oversampling=1,
        model=g.deterministic_model(),
        search=SearchConfig(offset_min=0, offset_max=100, width_set=(1, 2),
                            psi=2, exhaustive_budget=10_000_000),
        master_seed=7,
    )
    four = run_comparison(cfg4)
    assert not four["exhaustive"]["found"]
    assert four["exhaustive"]["trials_used"] == 10_000_000
    assert four["flow"]["found"]
    assert four["flow"]["trials_used"] < 10_000_000
    print(f"CRITERION 4: PASS - 2-fault speedup {two['ratio']:.0f}x (>= 20); "
          f"4-fault exhaustive capped at 1e7 while the flow finished in "
          f"{four['flow']['trials_used']} trials")


def test_criterion_05_duplicate_register_repeatability():
    """Calibrated two-fault success rate is 0.212 +- 0.01 over 1e5 trials."""
    scen = load_scenario("dup_registers_7_43")
    dom = ClockDomains(oversampling=20)
    ctx = SimContext(domains=dom, model=g.dup_register_model())
    combo = tuple(nominal_combo(scen, dom))
    result = evaluate_repeatability(scen, [combo], SearchConfig(n_rank=10, n_final=100_000),
                                    ctx, seed=3)
    rate = result.best.successes / len(result.best)
    assert abs(rate - 0.212) < 0.01
    print(f"CRITERION 5: PASS - duplicate-register repeatability "
          f"{rate:.4f} within 0.212 +- 0.01 at 100000 trials")


def test_criterion_06_cascade_calibration_and_monotonicity():
    """Four-target prefix rates match 0.451 / 0.0251 / 0.0023 within 3
    sigma; the full 4-target rate is strictly smallest."""
    scen = load_scenario("tzm_full_attack")
    dom = ClockDomains(oversampling=20)
    ctx = SimContext(domains=dom, model=g.tzm_model())
    combo = tuple(nominal_combo(scen, dom))
    n = 100_000
    result = evaluate_repeatability(scen, [combo], SearchConfig(n_rank=10, n_final=n), ctx,
                                    seed=3)
    counts = result.best.prefix_successes
    rates = [c / n for c in counts]
    expected = (0.451, 0.0251, 0.0023)
    for rate, exp in zip(rates, expected):
        assert abs(rate - exp) < three_sigma(exp, n), (rate, exp)
    assert rates == sorted(rates, reverse=True)
    assert rates[3] < rates[2]  # 3e-7 is below desk-scale resolution
    print(f"CRITERION 6: PASS - cascade rates {rates[0]:.4f} / {rates[1]:.4f} "
          f"/ {rates[2]:.5f} within 3 sigma of 0.451 / 0.0251 / 0.0023; "
          f"4-target rate strictly smallest")


def test_criterion_07_wide_vs_narrow_ordering():
    """Wide-fault Both-rate beats two-narrow; Invalid grows with two
    faults; every cell within +-0.05 of the measured tables."""
    cfg = CampaignConfig(scenario="successive_shifts", model=g.shift_model(),
                         trials=100_000, master_seed=5)
    summary = run_wide_vs_narrow(cfg)
    wide = summary["distributions"]["wide"]
    narrow = summary["distributions"]["narrow"]
    assert wide["both"] > narrow["both"]
    assert narrow["invalid"] > wide["invalid"]
    for col, exp in WIDE_FAULT_DISTRIBUTION.items():
        assert abs(wide[col] - exp) <= 0.05, ("wide", col)
    for col, exp in NARROW_FAULT_DISTRIBUTION.items():
        assert abs(narrow[col] - exp) <= 0.05, ("narrow", col)
    print(f"CRITERION 7: PASS - wide Both {wide['both']:.3f} > narrow Both "
          f"{narrow['both']:.3f}; narrow Invalid {narrow['invalid']:.3f} > "
          f"wide Invalid {wide['invalid']:.3f}; all cells within 0.05")


def test_criterion_08_countermeasure_factor():
    """Random 0-9 cycle stalls degrade a two-target deterministic attack
    by a factor of 100 +- 20% over 1e6 trials."""
    cfg = CampaignConfig(scenario="dup_registers_7_43",
                         model=g.deterministic_model(),
                         trials=1_000_000, master_seed=5)
    summary = run_countermeasure_eval(cfg, 9)
    factor = summary["degradation_factor"]
    assert summary["baseline_rate"] == 1.0
    assert 80 <= factor <= 120
    print(f"CRITERION 8: PASS - degradation factor {factor:.1f} within "
          f"100 +- 20% over 1e6 trials per arm")


def test_criterion_09_bod_evasion_by_splitting():
    """At a 400 ns sampling period the 400 ns fault is caught at every
    phase while the 170+140 ns split (100 ns gap) evades some phase."""
    cfg = CampaignConfig(scenario="bod_scenario", oversampling=20,
                         dut_period_ns=100,
                         bod=BodModel(enabled=True, sample_period=80))
    summary = run_bod_eval(cfg)  # 400 ns wide; (170, 140) split, 100 ns gap
    assert summary["wide_detection_rate"] == 1.0
    assert summary["split_evading_phases"]
    assert summary["split_detection_rate"] < 1.0
    print(f"CRITERION 9: PASS - wide fault detected at all 80 phases; split "
          f"fault evades {len(summary['split_evading_phases'])} phase(s)")


def test_criterion_10_parallel_determinism(tmp_path):
    """Re-running a persisted campaign at parallelism 1 and 8 produces
    byte-identical results.jsonl."""
    cfg_dict = {
        "scenario": "dup_registers_7_43",
        "oversampling": 20,
        "model": {"preset": "dup_register"},
        "search": {"offset_min": 0, "offset_max": 1200, "stride": 20,
                   "width_set": [20], "psi": 2, "n_rank": 200, "n_final": 2000,
                   "integrate_trials": 2},
        "master_seed": 42,
    }
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps(cfg_dict))

    outputs = []
    for jobs in (1, 8):
        cfg = replace(g.load_config(cfg_path), jobs=jobs)
        out = tmp_path / f"jobs{jobs}"
        run_attack_flow(cfg, out)
        outputs.append((out / "results.jsonl").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0]  # non-empty
    print("CRITERION 10: PASS - results.jsonl byte-identical at "
          "parallelism 1 and 8")
