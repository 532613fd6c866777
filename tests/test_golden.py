"""Golden artifacts: the sha256 of summary.json and results.jsonl of small
campaigns at fixed seeds, and of the scenario file of every builtin
preset.  A kernel change that keeps the RNG scheme (``rng_scheme`` in
summary.json) and its draw slots must reproduce them byte for byte."""

import hashlib

import pytest

from glitchsim.calibration import (deterministic_model, dup_register_model,
                                   shift_model)
from glitchsim.campaign import (CampaignConfig, SearchConfig, run_attack_flow,
                                run_bod_eval, run_countermeasure_eval,
                                run_exhaustive, run_wide_vs_narrow)
from glitchsim.dut import BodModel, FaultResponseModel
from glitchsim.scenarios import SCENARIO_PRESETS, load_scenario, save_scenario

CASES = {
    # Sweep, integrate and rank under the calibrated duplicate-register
    # skip draws.
    "dup_flow": lambda out: run_attack_flow(CampaignConfig(
        scenario="dup_registers_7_43", oversampling=20, model=dup_register_model(),
        search=SearchConfig(offset_min=0, offset_max=1200, stride=20,
                            width_set=(20,), psi=2, integrate_trials=20,
                            n_rank=200, n_final=3000),
        master_seed=7), out),
    # The same flow on the cooperative twin of a non-cooperative scenario,
    # its winner rebased onto the later trigger and requalified there.
    "transfer_flow": lambda out: run_attack_flow(CampaignConfig(
        scenario="dup_registers_noncoop", transfer_source="dup_registers_coop",
        oversampling=20, model=dup_register_model(),
        search=SearchConfig(offset_min=0, offset_max=1200, stride=20,
                            width_set=(20,), psi=2, integrate_trials=20,
                            n_rank=200, n_final=3000),
        master_seed=7), out),
    # Burst and lockup draws.
    "wide_vs_narrow": lambda out: run_wide_vs_narrow(CampaignConfig(
        scenario="successive_shifts", oversampling=20, model=shift_model(),
        trials=4000, master_seed=9), out),
    # Random stalls under skip draws, persisted.
    "countermeasure": lambda out: run_countermeasure_eval(CampaignConfig(
        scenario="dup_registers_7_43", oversampling=20, model=dup_register_model(),
        trials=3000, master_seed=21), 9, out),
    # Random stalls under burst and lockup draws, persisted.
    "countermeasure_shift": lambda out: run_countermeasure_eval(CampaignConfig(
        scenario="successive_shifts", oversampling=20, model=shift_model(),
        trials=3000, master_seed=17), 3, out),
    # Random stalls under a model that never draws: a constant baseline
    # column and one verdict per stall vector, persisted.
    "countermeasure_deterministic": lambda out: run_countermeasure_eval(CampaignConfig(
        scenario="dup_registers_7_43", oversampling=20, model=deterministic_model(),
        trials=3000, master_seed=13), 9, out),
    # Skip and lockup draws in every trial, one trial per combo.
    "exhaustive": lambda out: run_exhaustive(CampaignConfig(
        scenario="tzm_full_attack", oversampling=20, model=FaultResponseModel(),
        search=SearchConfig(offset_min=0, offset_max=400, stride=20,
                            width_set=(20, 500), n_faults=2,
                            exhaustive_budget=20_000),
        master_seed=5), out),
    # Every detector phase of one wide fault and of its split, with
    # demos/configs/bod_eval.json's settings.
    "bod": lambda out: run_bod_eval(CampaignConfig(
        scenario="bod_scenario", oversampling=20, dut_period_ns=100,
        bod=BodModel(enabled=True, sample_period=80, sample_phase=0),
        master_seed=1), out),
}

GOLDEN = {
    "dup_flow": {
        "summary.json": "9d9ba014e95fabdfb047b39382ca0e393b55d962a0dd76b20765cf5b8a536dc2",
        "results.jsonl": "f44a7b51fdc49709bf8ca88b0b7a2d554a181a9fe313b5884bbebeb770af3666",
    },
    "transfer_flow": {
        "summary.json": "af8f604c88fafdda6b37b31b11c74185e47b5f002b72d36e58053556afdc920d",
        "results.jsonl": "384f6ae3feab7efddd533dd72602a847a3037cd6d5dec4fab39bef8c339d1ed0",
    },
    "wide_vs_narrow": {
        "summary.json": "248d43ac151ab6e63a5b63ca16c7608644dd9abf003fcc4a188f2cb71a19d0d2",
        "results.jsonl": "eb140c43f129268195551684754095dcb1b5ce4148d31761ef0df85e550fcccc",
    },
    "countermeasure": {
        "summary.json": "b91e496f46bae9a92e4089bffab682219ae3d66acb96cc7814cc0d3077cb443b",
        "results.jsonl": "5b11bd8a645d595ffb18980381c2d1a718b91f06d6a06c40315ec61ea0275a0f",
    },
    "countermeasure_shift": {
        "summary.json": "ecf645b1c7b78f180511322c0a50a553dc5a4d2a4582aca2b6a276099983ae05",
        "results.jsonl": "e50aaab8d2f28c67c128f4656f5177c171663a9b79c03fe8daee161b45234d37",
    },
    "countermeasure_deterministic": {
        "summary.json": "9a27f0bdca84e6124475e718c35b2e65a55cc0e4319c2608a13f768626fcb26f",
        "results.jsonl": "e58104fb602b6dab990f80df3e76503efceebac936ac7a4b9344cc508efc3414",
    },
    # An exhaustive campaign writes no results.jsonl.
    "exhaustive": {
        "summary.json": "c0db81450b33a3be0395ec943bc5ac3bd70a0c486ea0471d9c99c56deffcdca5",
    },
    # Neither does a bod campaign.
    "bod": {
        "summary.json": "fe40fd41638f3869aa3245e3208889f0ef9bae40f7fdad79939d3405e211b34a",
    },
}

# The file save_scenario writes for each builtin preset.
SCENARIO_FILES = {
    "dup_registers_coop": "b1e56b2667481529688a2210383fe7bb22e6100e1ba05d832e13e61c03ac7a9c",
    "dup_registers_noncoop": "e907dc72ba4c4993592d48b333e7b4a6189eaff6f52760803dd8696154c521b4",
    "dup_registers_7_43": "eab1d1e884a3d4cea4c4aa04c000671f7dbe16f3cd298658ddddb27c6418ef04",
    "dup_registers_33_19": "a721a1b80691585737ecbfd12da0e5522a272168c06009efd107964afb042ffe",
    "dup_registers_4_50": "d61f63ba46824c6cb1a656c6ba4ae4385a7f21f49726d1745ff066d41ce03d50",
    "dup_registers_22_1": "521be36320e01320c2803febb8e913fbbf4d0b9fd9de78e00aa961971a549fa5",
    "successive_shifts": "4768dc3e341e232f562352dc69aacf07ea4849f230534c994b0dd1282a7367a4",
    "tzm_full_attack": "01915f67a9bdc86647c79fe09bb5f56f7b4a24654297ea1b3d70680f5515afd2",
    "tzm_full_attack_noncoop": "2d0ec130cfe45ebcb3688e3b34cc5f89272c376946351bbc2893919c976ba774",
    "tzm_randomized": "06a3ac92429a55df2b157dd37c87758baccb926b2cf54d022f4091d93ddf11a9",
    "bod_scenario": "23ca8419a07435ceff5e593f5c09f0b296699d026e2f01312d0f14906bfaa0c8",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_digests(case, tmp_path):
    CASES[case](tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ("summary.json", "results.jsonl")
           if (tmp_path / name).exists()}
    assert got == GOLDEN[case]


@pytest.mark.parametrize("name", SCENARIO_PRESETS)
def test_scenario_files_match_golden_digests(name, tmp_path):
    save_scenario(load_scenario(name), tmp_path / "scenario.json")
    got = hashlib.sha256((tmp_path / "scenario.json").read_bytes()).hexdigest()
    assert got == SCENARIO_FILES[name]
