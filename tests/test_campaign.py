import json
from dataclasses import replace

import pytest

from glitchsim.calibration import (deterministic_model, dup_register_model,
                                   shift_model)
from glitchsim.campaign import (CampaignConfig, SearchConfig, load_config,
                                model_from_dict, nominal_combo, read_results,
                                results_to_report, run_attack_flow,
                                run_bod_eval, run_comparison,
                                run_countermeasure_eval, run_exhaustive,
                                run_sweep_only, run_wide_vs_narrow)
from glitchsim.dut import BodModel, Effect, FaultResponseModel
from glitchsim.errors import ConfigError, IncompleteSweep
from glitchsim.scenarios import load_scenario, save_scenario, successive_shifts
from glitchsim.timing import ClockDomains


def dup_config(**over):
    base = dict(
        scenario="dup_registers_7_43",
        oversampling=1,
        model=deterministic_model(),
        search=SearchConfig(offset_min=0, offset_max=100, width_set=(1,),
                            psi=2, n_rank=5, n_final=20),
        master_seed=7,
    )
    base.update(over)
    return CampaignConfig(**base)


class TestConfig:
    def test_json_round_trip(self):
        cfg = CampaignConfig(
            scenario="tzm_full_attack",
            model=FaultResponseModel(p_max_skip=0.3, p_lockup_per_fault=0.01,
                                     per_target_override={Effect.STORE_SAU_CTRL: 0.4}),
            bod=BodModel(enabled=True, sample_period=80),
            search=SearchConfig(offset_max=50, width_set=(1, 2)),
            master_seed=5, jobs=4, trials=123,
            transfer_source="dup_registers_coop",
        )
        clone = CampaignConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone.to_dict() == cfg.to_dict()
        assert clone.model == cfg.model

    def test_bod_config_with_retired_threshold_loads(self):
        cfg = CampaignConfig.from_dict({
            "scenario": "bod_scenario",
            "bod": {"enabled": True, "sample_period": 80,
                    "detect_width_threshold": 3},
        })
        assert cfg.bod == BodModel(enabled=True, sample_period=80)
        assert "detect_width_threshold" not in cfg.to_dict()["bod"]

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dup_config().to_dict()))
        assert load_config(path).scenario == "dup_registers_7_43"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_json_array_rejected(self, tmp_path):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([dup_config().to_dict()]))
        with pytest.raises(ConfigError, match="does not hold a JSON object"):
            load_config(path)

    @pytest.mark.parametrize("field", ["trials", "jobs", "oversampling"])
    def test_non_positive_counts_rejected(self, field):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"scenario": "dup_registers_7_43", field: 0})
        with pytest.raises(ConfigError):
            dup_config(**{field: -1})

    @pytest.mark.parametrize("field, value", [
        ("n_rank", 0), ("n_final", 0), ("integrate_trials", 0),
        ("pass_budget", 0), ("stride", 0), ("fuzzy_stride", 0),
        ("exhaustive_budget", 0), ("n_faults", 0), ("psi", -1),
        ("offset_min", -1), ("offset_max", 0), ("width_set", (1, 0)),
    ])
    def test_bad_search_config_rejected(self, field, value):
        with pytest.raises(ConfigError):
            SearchConfig.from_dict({"offset_max": 100, field: value})

    def test_missing_scenario_key(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"master_seed": 3})

    def test_unknown_scenario_fails_on_load(self):
        cfg = CampaignConfig(scenario="bogus")
        with pytest.raises(ConfigError):
            cfg.load_scenario()

    def test_model_presets(self):
        assert model_from_dict({"preset": "dup_register"}) == dup_register_model()
        with pytest.raises(ConfigError):
            model_from_dict({"preset": "nope"})
        with pytest.raises(ConfigError):
            model_from_dict({"preset": "tzm", "p_max_skip": 1.0})

    def test_bad_model_fields(self):
        with pytest.raises(ConfigError):
            model_from_dict({"p_max_skip": 2.0})
        with pytest.raises(ConfigError):
            model_from_dict({"per_target_override": {"not_an_effect": 0.5}})


class TestAttackFlow:
    def test_persists_complete_artifacts(self, tmp_path):
        summary = run_attack_flow(dup_config(), tmp_path)
        lines = (tmp_path / "results.jsonl").read_text().splitlines()
        assert len(lines) == summary["total_trials"]
        assert [json.loads(l)["trial"] for l in lines] == list(range(len(lines)))
        stored = json.loads((tmp_path / "summary.json").read_text())
        assert stored == summary
        assert summary["best"]["success_rate"] == 1.0
        assert (tmp_path / "report.csv").exists()

    def test_cascade_rates_monotone(self, tmp_path):
        summary = run_attack_flow(dup_config())
        rates = summary["cascade_rates"]
        assert rates == sorted(rates, reverse=True)

    def test_incomplete_sweep_persists_summary(self, tmp_path):
        # Both targets lie beyond the grid: two passes of 5 trials miss them.
        cfg = dup_config(search=SearchConfig(offset_min=0, offset_max=5,
                                             width_set=(1,), pass_budget=2))
        with pytest.raises(IncompleteSweep):
            run_attack_flow(cfg, tmp_path)
        stored = json.loads((tmp_path / "summary.json").read_text())
        assert stored["error"]["kind"] == "incomplete_sweep"
        assert stored["total_trials"] == 10

    def test_noncoop_requires_transfer_source(self):
        cfg = dup_config(scenario="dup_registers_noncoop")
        with pytest.raises(ConfigError):
            run_attack_flow(cfg)

    def test_noncoop_flow_via_transfer(self):
        cfg = dup_config(scenario="dup_registers_noncoop",
                         transfer_source="dup_registers_coop",
                         search=SearchConfig(offset_min=0, offset_max=200,
                                             width_set=(1,), psi=2,
                                             n_rank=5, n_final=20))
        summary = run_attack_flow(cfg)
        assert summary["best"]["success_rate"] == 1.0
        assert summary["steps"]["transfer_final"]["trials_used"] == 20

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_attack_flow(dup_config(), a)
        run_attack_flow(dup_config(), b)
        assert (a / "results.jsonl").read_bytes() == (b / "results.jsonl").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


class TestComparison:
    def test_single_fault_ratio_near_one(self, tmp_path):
        # One target, one fault: sweeping degenerates to the exhaustive scan.
        from dataclasses import replace
        from glitchsim.scenarios import save_scenario
        scen = load_scenario("dup_registers_7_43")
        solo = replace(scen, targets=(scen.targets[0],), name="solo",
                       response_kind="state_bits")
        path = tmp_path / "solo.json"
        save_scenario(solo, path)
        cfg = dup_config(scenario=str(path),
                         search=SearchConfig(offset_min=0, offset_max=100,
                                             width_set=(1,), psi=0))
        summary = run_comparison(cfg)
        assert summary["flow"]["found"] and summary["exhaustive"]["found"]
        assert summary["ratio"] == pytest.approx(1.0, abs=0.5)

    def test_two_fault_speedup(self):
        cfg = dup_config(scenario="dup_registers_33_19",
                         search=SearchConfig(offset_min=0, offset_max=1000,
                                             width_set=(1,), psi=2))
        summary = run_comparison(cfg)
        assert summary["exhaustive"]["found"] and summary["flow"]["found"]
        assert summary["ratio"] >= 20

    def test_failed_integration_counts_sweep_trials(self):
        cfg = CampaignConfig(
            scenario="dup_registers_7_43", oversampling=20,
            model=dup_register_model(),
            search=SearchConfig(offset_min=0, offset_max=1200, stride=20,
                                width_set=(20,), psi=0, integrate_trials=1,
                                exhaustive_budget=10),
            master_seed=0)
        summary = run_comparison(cfg)
        assert not summary["flow"]["found"]
        # psi = 0 leaves one combo: one integration trial after the sweep.
        swept = run_sweep_only(cfg)["total_trials"]
        assert summary["flow"]["trials_used"] == swept + 1
        assert summary["total_trials"] == 10 + swept + 1

    def test_capped_exhaustive_recorded(self):
        cfg = dup_config(search=SearchConfig(offset_min=0, offset_max=100,
                                             width_set=(1,), psi=2,
                                             exhaustive_budget=10))
        summary = run_comparison(cfg)
        assert not summary["exhaustive"]["found"]
        assert summary["exhaustive"]["trials_used"] == 10
        assert summary["ratio"] is None


class TestWideVsNarrow:
    def test_rows_sum_to_one(self):
        cfg = CampaignConfig(scenario="successive_shifts",
                             model=FaultResponseModel(0.5, 0.1), trials=2000,
                             master_seed=1)
        summary = run_wide_vs_narrow(cfg)
        for row in ("wide", "narrow"):
            assert sum(summary["distributions"][row].values()) == pytest.approx(1.0)

    def test_no_lockup_no_invalid(self):
        cfg = CampaignConfig(scenario="successive_shifts",
                             model=FaultResponseModel(0.5, 0.0), trials=2000,
                             master_seed=1)
        summary = run_wide_vs_narrow(cfg)
        assert summary["distributions"]["wide"]["invalid"] == 0
        assert summary["distributions"]["narrow"]["invalid"] == 0

    def test_no_skip_all_none(self):
        cfg = CampaignConfig(scenario="successive_shifts",
                             model=FaultResponseModel(0.0, 0.0), trials=500,
                             master_seed=1)
        summary = run_wide_vs_narrow(cfg)
        assert summary["distributions"]["wide"]["none"] == 1.0
        assert summary["distributions"]["narrow"]["none"] == 1.0

    def test_needs_two_targets(self):
        # One four-cycle target; two targets 44 cycles apart.
        for scenario in ("bod_scenario", "dup_registers_7_43"):
            with pytest.raises(ConfigError, match="consecutive cycles"):
                run_wide_vs_narrow(CampaignConfig(scenario=scenario))

    def test_needs_cooperative_scenario(self, tmp_path):
        # Without PSFs a partial hit reads as a failure and lands in "none".
        path = tmp_path / "noncoop_shifts.json"
        save_scenario(replace(successive_shifts(), cooperative=False), path)
        with pytest.raises(ConfigError, match="non-cooperative"):
            run_wide_vs_narrow(CampaignConfig(scenario=str(path), model=shift_model()))

    def test_needs_oversampling_two(self):
        with pytest.raises(ConfigError, match="oversampling >= 2"):
            run_wide_vs_narrow(CampaignConfig(scenario="successive_shifts",
                                              oversampling=1))

    def test_trigger_cycle_moves_nothing(self, tmp_path):
        # The faults are timed from the trigger, so a trigger three cycles
        # later in the same stream must hit the same instructions.
        path = tmp_path / "late_trigger.json"
        save_scenario(replace(successive_shifts(), trigger_cycle=3), path)
        runs = [run_wide_vs_narrow(CampaignConfig(scenario=name, model=shift_model(),
                                                  trials=4000, master_seed=1))
                for name in ("successive_shifts", str(path))]
        assert runs[0]["distributions"] == runs[1]["distributions"]
        assert runs[1]["combos"]["wide"] == [[2 * 20, 2 * 20]]


class TestCountermeasure:
    def test_zero_delay_factor_one(self):
        cfg = CampaignConfig(scenario="dup_registers_7_43",
                             model=deterministic_model(), trials=200,
                             master_seed=2)
        summary = run_countermeasure_eval(cfg, 0)
        assert summary["degradation_factor"] == 1.0

    def test_single_fault_factor_ten(self):
        # One-target scenario: only one random delay matters.
        cfg = CampaignConfig(scenario="bod_scenario",
                             model=deterministic_model(), trials=100_000,
                             master_seed=2)
        summary = run_countermeasure_eval(cfg, 9)
        assert summary["baseline_rate"] == 1.0
        assert summary["degradation_factor"] == pytest.approx(10, rel=0.1)

    def test_negative_delay_rejected(self):
        cfg = CampaignConfig(scenario="dup_registers_7_43")
        with pytest.raises(ConfigError):
            run_countermeasure_eval(cfg, -1)


class TestBodEval:
    def test_disabled_no_detections(self):
        cfg = CampaignConfig(scenario="bod_scenario",
                             bod=BodModel(enabled=False, sample_period=50))
        summary = run_bod_eval(cfg)
        assert summary["wide_detection_rate"] == 0
        assert summary["split_detection_rate"] == 0

    def test_requires_bod_section(self):
        cfg = CampaignConfig(scenario="bod_scenario")
        with pytest.raises(ConfigError):
            run_bod_eval(cfg)

    def test_tight_period_detects_everything(self):
        cfg = CampaignConfig(scenario="bod_scenario",
                             bod=BodModel(enabled=True, sample_period=20))
        summary = run_bod_eval(cfg)
        assert summary["wide_detection_rate"] == 1.0
        assert summary["split_detection_rate"] == 1.0

    def test_tick_too_coarse_for_split(self):
        # 1000 ns ticks round the 170 ns and 140 ns sub-faults to 0 ticks.
        cfg = CampaignConfig(scenario="bod_scenario", oversampling=1,
                             dut_period_ns=1000,
                             bod=BodModel(enabled=True, sample_period=3))
        with pytest.raises(ConfigError, match="do not fit the tick"):
            run_bod_eval(cfg)


class TestHelpers:
    def test_nominal_combo_exactly_covers_targets(self):
        scen = load_scenario("tzm_full_attack")
        dom = ClockDomains(20)
        combo = nominal_combo(scen, dom)
        # Reconstruct absolute windows and check each target is covered.
        from glitchsim.search import accumulate_relative
        absolute = accumulate_relative(combo)
        covered = set()
        for a, w in absolute:
            covered.update(range(a, a + w))
        for t in scen.targets:
            for c in t.cycles:
                assert set(range(c * 20, (c + 1) * 20)) <= covered

    def test_report_csv(self, tmp_path):
        run_attack_flow(dup_config(), tmp_path)
        rows = results_to_report(read_results(tmp_path / "results.jsonl"),
                                 tmp_path / "again.csv")
        header, *body = (tmp_path / "again.csv").read_text().splitlines()
        assert header.startswith("trial,step,outcome,success")
        assert rows == len(body)

    def test_run_exhaustive_and_sweep_only(self, tmp_path):
        cfg = dup_config(search=SearchConfig(offset_min=0, offset_max=100,
                                             width_set=(1,), n_faults=2))
        ex = run_exhaustive(cfg, tmp_path / "ex")
        assert ex["combos"]
        sw = run_sweep_only(cfg, tmp_path / "sw")
        assert set(sw["absolute_params"]) == {"FIRST", "SECOND"}
        assert (tmp_path / "sw" / "results.jsonl").exists()
