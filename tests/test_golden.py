"""Golden artifacts: the sha256 of summary.json and results.jsonl of small
campaigns at fixed seeds.  A kernel change that keeps the draw order and
the RNG scheme must reproduce them byte for byte."""

import hashlib

import pytest

from glitchsim.calibration import dup_register_model, shift_model
from glitchsim.campaign import (CampaignConfig, SearchConfig, run_attack_flow,
                                run_countermeasure_eval, run_exhaustive,
                                run_wide_vs_narrow)
from glitchsim.dut import FaultResponseModel

CASES = {
    # Sweep, integrate and rank under the calibrated duplicate-register
    # skip draws.
    "dup_flow": lambda out: run_attack_flow(CampaignConfig(
        scenario="dup_registers_7_43", oversampling=20, model=dup_register_model(),
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
    # Skip and lockup draws in every trial, one trial per combo.
    "exhaustive": lambda out: run_exhaustive(CampaignConfig(
        scenario="tzm_full_attack", oversampling=20, model=FaultResponseModel(),
        search=SearchConfig(offset_min=0, offset_max=400, stride=20,
                            width_set=(20, 500), n_faults=2,
                            exhaustive_budget=20_000),
        master_seed=5), out),
}

GOLDEN = {
    "dup_flow": {
        "summary.json": "86e7db4a52bfa877ee5519d3c0725b4bd7ae3bf37ca4c1113c54e004b0ebe95f",
        "results.jsonl": "5bcde7b7f6ba69230556c4673f4301c9a2a5c4bb2f32e0872c27950439a28a16",
    },
    "wide_vs_narrow": {
        "summary.json": "d99d8d2fa0b817ba546959411f796df2ad2a045f5452a5611cd7957cb1a6b3a5",
        "results.jsonl": "91adfe6922a3bc69f38f3c4c4331c15bc40ca4e51d67b69ddeeed329a1dbec6f",
    },
    "countermeasure": {
        "summary.json": "5c451155036a169f20452ee8bed5a582c8c23a796d0d651f23aa26a9b41106ca",
        "results.jsonl": "cc0eb7babd07aff8dd8c625b7490121cc1f86c7f863cac0304edf7ecf80e1046",
    },
    # An exhaustive campaign writes no results.jsonl.
    "exhaustive": {
        "summary.json": "72a742706dae848683421fc7cd722f38ed8c6752dfbe68f02f62299377e5d692",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_digests(case, tmp_path):
    CASES[case](tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ("summary.json", "results.jsonl")
           if (tmp_path / name).exists()}
    assert got == GOLDEN[case]
