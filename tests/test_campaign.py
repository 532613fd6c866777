import json
from dataclasses import replace
from pathlib import Path

import pytest

from glitchsim import campaign, search
from glitchsim.calibration import (deterministic_model, dup_register_model,
                                   shift_model)
from glitchsim.campaign import (MODEL_PRESETS, CampaignConfig, SearchConfig,
                                load_config, nominal_combo, read_results,
                                results_to_report, run_attack_flow,
                                run_bod_eval, run_comparison,
                                run_countermeasure_eval, run_exhaustive,
                                run_sweep_only, run_wide_vs_narrow)
from glitchsim.dut import BodModel, Effect, FaultResponseModel, Instruction
from glitchsim.errors import ConfigError, IncompleteSweep, NotFound, SearchFailed, echo
from glitchsim.scenarios import (SCENARIO_PRESETS, ScenarioSpec, Target, dup_registers,
                                 load_scenario, save_scenario, successive_shifts)
from glitchsim.search import MAX_FAULTS
from glitchsim.timing import ClockDomains

from test_search import accumulate_relative  # pytest puts tests/ on sys.path

DEMO_CONFIGS = sorted(Path(__file__).resolve().parent.parent.glob("demos/configs/*.json"))


def renamed(data):
    """Copies of the JSON value ``data``, each with one key renamed, for
    every key at every depth."""
    if isinstance(data, dict):
        for key, value in data.items():
            yield {(k + "_x" if k == key else k): v for k, v in data.items()}
            for inner in renamed(value):
                yield {**data, key: inner}
    elif isinstance(data, list):
        for i, value in enumerate(data):
            for inner in renamed(value):
                yield [*data[:i], inner, *data[i + 1:]]


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


FULL_CONFIG = CampaignConfig(
    scenario="tzm_full_attack",
    model=FaultResponseModel(p_max_skip=0.3, p_lockup_per_fault=0.01,
                             per_target_override={Effect.STORE_SAU_CTRL: 0.4}),
    bod=BodModel(enabled=True, sample_period=80),
    search=SearchConfig(offset_max=50, width_set=(1, 2), n_faults=3),
    master_seed=5, jobs=4, trials=123,
    transfer_source="dup_registers_coop",
)


class TestConfig:
    def test_json_round_trip(self):
        """Every demo config and a config without a BOD read back equal
        from their echo."""
        null_bod = CampaignConfig.from_dict({"scenario": "bod_scenario", "bod": None})
        assert null_bod == CampaignConfig(scenario="bod_scenario")
        for cfg in (FULL_CONFIG, null_bod, *map(load_config, DEMO_CONFIGS)):
            clone = CampaignConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
            assert clone == cfg
            assert clone.to_dict() == cfg.to_dict()

    def test_summary_config_reads_back(self, tmp_path):
        run_bod_eval(FULL_CONFIG, tmp_path)
        stored = json.loads((tmp_path / "summary.json").read_text())["config"]
        assert CampaignConfig.from_dict(stored) == FULL_CONFIG

    @pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda path: path.stem)
    def test_renamed_config_key_rejected(self, tmp_path, path):
        bad = tmp_path / "bad.json"
        variants = list(renamed(json.loads(path.read_text())))
        assert variants
        for data in variants:
            bad.write_text(json.dumps(data))
            with pytest.raises(ConfigError):
                load_config(bad)

    @pytest.mark.parametrize("preset", SCENARIO_PRESETS)
    def test_renamed_scenario_key_rejected(self, tmp_path, preset):
        cfg = CampaignConfig(scenario=preset)
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        save_scenario(cfg.load_scenario(), good)
        assert echo(cfg.load_scenario(good)) == echo(cfg.load_scenario())
        variants = list(renamed(json.loads(good.read_text())))
        assert variants
        for data in variants:
            bad.write_text(json.dumps(data))
            with pytest.raises(ConfigError):
                cfg.load_scenario(bad)

    @pytest.mark.parametrize("section, key", [
        (None, "trials"), (None, "master_seed"), ("search", "psi"),
        ("search", "n_faults"), ("bod", "sample_period")])
    def test_json_true_is_no_integer(self, section, key):
        data = {"scenario": "bod_scenario", "bod": {"enabled": True}}
        (data.setdefault(section, {}) if section else data)[key] = True
        with pytest.raises(ConfigError, match="must be an integer, got True"):
            CampaignConfig.from_dict(data)

    @pytest.mark.parametrize("section, key", [
        (None, "trails"), ("search", "n_fault"), ("model", "p_skip"),
        ("bod", "period")])
    def test_unknown_key_named(self, section, key):
        data = {"scenario": "bod_scenario"}
        (data.setdefault(section, {}) if section else data)[key] = 1
        path = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=f"unknown entry '{path}'"):
            CampaignConfig.from_dict(data)

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

    @pytest.mark.parametrize("data", [
        pytest.param(b"\xff\xfe{}", id="not_utf8"),
        pytest.param(b"[" * 200_000 + b"]" * 200_000, id="over_nested"),
    ])
    def test_undecodable_json_names_file(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=r"bad\.json is not valid JSON"):
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
        ("offset_min", -1), ("offset_max", 0), ("width_set", [1, 0]),
        ("n_faults", MAX_FAULTS + 1), ("offset_min", 100), ("width_set", []),
    ])
    def test_bad_search_config_rejected(self, field, value):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"scenario": "dup_registers_7_43",
                                      "search": {"offset_max": 100, field: value}})

    @pytest.mark.parametrize("section, data, message", [
        ("bod", {"enabled": True, "sample_phase": 500},
         "bod: sample_phase must be in [0, sample_period)"),
        ("model", {"p_max_skip": 2.0}, "model: p_max_skip must be in [0, 1]"),
    ], ids=["bod", "model"])
    def test_nested_value_error_names_its_section(self, section, data, message):
        with pytest.raises(ConfigError) as exc:
            CampaignConfig.from_dict({"scenario": "bod_scenario", section: data})
        assert str(exc.value) == f"bad campaign config: {message}"

    def test_missing_scenario_key(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"master_seed": 3})

    def test_unknown_scenario_fails_on_load(self):
        cfg = CampaignConfig(scenario="bogus")
        with pytest.raises(ConfigError):
            cfg.load_scenario()

    @staticmethod
    def model(data):
        return CampaignConfig.from_dict({"scenario": "tzm_full_attack", "model": data}).model

    def test_model_presets(self):
        for name, preset in MODEL_PRESETS.items():
            assert self.model({"preset": name}) == preset()
        for data in ({"preset": "nope"}, {"preset": ["tzm"]},
                     {"preset": "tzm", "p_max_skip": 1.0}):
            with pytest.raises(ConfigError):
                self.model(data)

    def test_bad_model_fields(self):
        for data in ({"p_max_skip": 2.0}, {"per_target_override": {"not_an_effect": 0.5}},
                     {"per_target_override": {"store_sau_ctrl": "0.5"}}):
            with pytest.raises(ConfigError):
                self.model(data)


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

    @pytest.mark.parametrize("twin, error", [
        ("dup_registers_33_19", r"inter-target distances differ: \[20\] vs \[44\]"),
        ("successive_shifts", "target labels or ordering differ"),
    ], ids=["gaps", "labels"])
    def test_mismatched_twin_fails_before_any_trial(self, monkeypatch, twin, error):
        cfg = dup_config(scenario="dup_registers_noncoop", transfer_source=twin)
        monkeypatch.setattr(campaign, "sweep", lambda *args, **kw: pytest.fail("a trial ran"))
        with pytest.raises(ConfigError, match=error):
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

    def test_transfer_before_the_trigger_persists_the_twin(self, tmp_path):
        """The scenario's first target sits at its trigger, 8 cycles (160
        ticks) earlier than in the twin, so a winning combo that starts
        sooner after the twin's trigger cannot be rebased.  The flow fails
        its search after the twin's trials, and persists them."""
        late = replace(dup_registers(7, 43, cooperative=False), trigger_cycle=8)
        save_scenario(late, tmp_path / "late.json")
        base = load_config(Path(__file__).resolve().parent.parent
                           / "demos" / "configs" / "dup_flow.json")
        cfg = replace(base, scenario=str(tmp_path / "late.json"),
                      transfer_source="dup_registers_7_43", model=deterministic_model(),
                      master_seed=1, search=replace(base.search, n_rank=20, n_final=50))
        with pytest.raises(SearchFailed, match="before the trigger") as failed:
            run_attack_flow(cfg, tmp_path / "run")
        assert failed.value.trials_used == 0
        stored = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert stored["error"] == {"kind": "transfer_before_trigger", "trials_used": 0}
        blocks = read_results(tmp_path / "run" / "results.jsonl")
        assert stored["total_trials"] == sum(map(len, blocks)) > 0
        assert {b.step for b in blocks} == {"sweep", "integrate", "rank", "final"}

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_attack_flow(dup_config(), a)
        run_attack_flow(dup_config(), b)
        assert (a / "results.jsonl").read_bytes() == (b / "results.jsonl").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


# Sweep picks 400 ticks wide for two targets 2 cycles (40 ticks) apart.
OVERLAP = CampaignConfig(
    scenario="dup_registers_22_1", oversampling=20, model=deterministic_model(),
    search=SearchConfig(offset_min=0, offset_max=800, stride=20, width_set=(400,)))


class TestOverlappingPicks:
    """Picks that overlap end the search after the sweep, like any other
    failed step: the flow persists the sweep's trials, and compare counts
    them for a flow that found nothing."""

    def test_flow_persists_the_sweep(self, tmp_path):
        with pytest.raises(SearchFailed, match="overlaps its predecessor") as failed:
            run_attack_flow(OVERLAP, tmp_path)
        assert failed.value.trials_used == 0
        swept = run_sweep_only(OVERLAP)["total_trials"]
        stored = json.loads((tmp_path / "summary.json").read_text())
        assert stored["error"] == {"kind": "overlapping_picks", "trials_used": 0}
        assert stored["total_trials"] == swept > 0
        assert sum(map(len, read_results(tmp_path / "results.jsonl"))) == swept

    def test_compare_reports_the_flow_not_found(self):
        summary = run_comparison(OVERLAP)
        swept = run_sweep_only(OVERLAP)["total_trials"]
        assert summary["flow"] == {"trials_used": swept, "found": False, "error": {
            "kind": "overlapping_picks", "trials_used": 0}}
        assert summary["ratio"] is None


class TestComparison:
    def test_single_fault_ratio_near_one(self, tmp_path):
        # One target, one fault: sweeping degenerates to the exhaustive scan.
        from dataclasses import replace
        from glitchsim.scenarios import save_scenario
        scen = load_scenario("dup_registers_7_43")
        solo = replace(scen, targets=(scen.targets[0],), name="solo")
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

    def test_defaulted_fault_count_bounded_before_any_trial(self, tmp_path, monkeypatch):
        """Without n_faults, exhaustive and compare take one fault per
        target; 1 000 targets are refused before any trial runs."""
        many = ScenarioSpec("many", [Instruction(c, Effect.STORE_SAU_CTRL) for c in range(1000)],
                            [Target(f"T{c}", (c,)) for c in range(1000)], cooperative=True)
        path = tmp_path / "many.json"
        save_scenario(many, path)
        cfg = dup_config(scenario=str(path),
                         search=SearchConfig(offset_max=2, exhaustive_budget=5))

        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(search, "trial_plan", no_trial)
        for run in (run_exhaustive, run_comparison):
            out = tmp_path / run.__name__
            with pytest.raises(ConfigError, match=f"n_faults must be <= {MAX_FAULTS}, "
                                                  "got 1000$"):
                run(cfg, out)
            assert not out.exists()

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

    def test_overlapping_targets_rejected(self, tmp_path):
        """Targets sharing cycle 4 have no nominal combo: the refusal
        names the scenario, and no trial runs."""
        stream = [Instruction(c, Effect.STORE_AHB_ORIGINAL if c in (3, 4) else Effect.DELAY)
                  for c in range(8)]
        scen = ScenarioSpec("twin_targets", stream,
                            (Target("A", (3, 4)), Target("B", (4,))), cooperative=True)
        save_scenario(scen, tmp_path / "twin.json")
        cfg = CampaignConfig(scenario=str(tmp_path / "twin.json"), trials=10)
        with pytest.raises(ConfigError, match="the targets of 'twin_targets' overlap "
                           "in time: window at 80 overlaps its predecessor"):
            run_countermeasure_eval(cfg, 9, tmp_path / "run")
        assert not (tmp_path / "run").exists()


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

    def test_shapes_fire_through_the_chain(self):
        # demos/configs/bod_eval.json's 5 ns ticks: 400 ns is 80 ticks, and
        # 170 ns + 140 ns with a 100 ns gap is 34 + 28 ticks, 20 apart.
        (bod_eval,) = (path for path in DEMO_CONFIGS if path.stem == "bod_eval")
        summary = run_bod_eval(load_config(bod_eval))
        assert summary["wide_windows"] == [[0, 80]]
        assert summary["split_windows"] == [[0, 34], [54, 82]]
        # 250 ns ticks round the gap to 0 ticks: the two 1-tick sub-faults
        # touch, and the crowbar's OR fires them as one window.
        cfg = CampaignConfig(scenario="bod_scenario", oversampling=1,
                             dut_period_ns=250,
                             bod=BodModel(enabled=True, sample_period=3))
        assert run_bod_eval(cfg)["split_windows"] == [[0, 2]]

    def test_tick_too_coarse_for_split(self):
        # 1000 ns ticks round the 170 ns and 140 ns sub-faults to 0 ticks.
        cfg = CampaignConfig(scenario="bod_scenario", oversampling=1,
                             dut_period_ns=1000,
                             bod=BodModel(enabled=True, sample_period=3))
        with pytest.raises(ConfigError, match="do not fit the tick"):
            run_bod_eval(cfg)

    @pytest.mark.parametrize("oversampling, period_ns, message", [
        # 1000 ns ticks round the wide shape's 400 ns fault to 0 first.
        (1, 1000, "the wide shape's 400 ns fault rounds to 0 ticks of 1000 ns"),
        # 400 ns ticks keep the wide fault at 1 tick; the split's 170 ns is
        # 0.425 of a tick.
        (1, 400, "the split shape's 170 ns fault rounds to 0 ticks of 400 ns"),
        # Three ticks per 1 000 ns cycle: 170 ns is 0.51 of a tick and rounds
        # up, 140 ns is 0.42 and rounds to 0.
        (3, 1000, "the split shape's 140 ns fault rounds to 0 ticks of 333.333 ns"),
    ])
    def test_tick_too_coarse_names_shape_width_and_tick(self, oversampling, period_ns,
                                                         message):
        cfg = CampaignConfig(scenario="bod_scenario", oversampling=oversampling,
                             dut_period_ns=period_ns,
                             bod=BodModel(enabled=True, sample_period=3))
        with pytest.raises(ConfigError) as exc:
            run_bod_eval(cfg)
        assert message in str(exc.value)


class TestHelpers:
    def test_nominal_combo_exactly_covers_targets(self):
        scen = load_scenario("tzm_full_attack")
        dom = ClockDomains(20)
        combo = nominal_combo(scen, dom)
        # Reconstruct absolute windows and check each target is covered.
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


def _many_targets(tmp_path, n: int) -> str:
    """A scenario file of ``n`` one-cycle targets on consecutive cycles."""
    stream = [Instruction(c, Effect.STORE_SAU_CTRL) for c in range(n)]
    targets = [Target(f"T{c}", (c,)) for c in range(n)]
    save_scenario(ScenarioSpec("many", stream, targets, cooperative=True),
                  tmp_path / "many.json")
    return str(tmp_path / "many.json")


BOD_CONFIG = CampaignConfig(scenario="bod_scenario",
                            bod=BodModel(enabled=True, sample_period=8))
SHIFT_CONFIG = CampaignConfig(scenario="successive_shifts", model=shift_model(), trials=100)

# Every campaign on a small input -> whether it keeps trial files.
CAMPAIGNS = {
    "flow": (lambda out: run_attack_flow(dup_config(), out), True),
    "sweep": (lambda out: run_sweep_only(dup_config(), out), True),
    "exhaustive": (lambda out: run_exhaustive(dup_config(), out), False),
    "compare": (lambda out: run_comparison(dup_config(), out), False),
    "wide-vs-narrow": (lambda out: run_wide_vs_narrow(SHIFT_CONFIG, out), True),
    "countermeasure": (lambda out: run_countermeasure_eval(dup_config(trials=100), 3, out),
                       True),
    "bod": (lambda out: run_bod_eval(BOD_CONFIG, out), False),
}

# Every campaign on an input it refuses, some only after a step has begun.
REFUSED = {
    # The twin is non-cooperative too: its sweep refuses it.
    "flow": lambda tmp_path, out: run_attack_flow(dup_config(
        scenario="dup_registers_noncoop", transfer_source="dup_registers_noncoop"), out),
    "sweep": lambda tmp_path, out: run_sweep_only(
        dup_config(scenario="dup_registers_noncoop"), out),
    # One fault per target is past the bound, checked as the walk starts.
    "exhaustive": lambda tmp_path, out: run_exhaustive(
        dup_config(scenario=_many_targets(tmp_path, MAX_FAULTS + 1)), out),
    "compare": lambda tmp_path, out: run_comparison(
        dup_config(scenario="dup_registers_noncoop", search=SearchConfig(n_faults=2)), out),
    "wide-vs-narrow": lambda tmp_path, out: run_wide_vs_narrow(dup_config(), out),
    "countermeasure": lambda tmp_path, out: run_countermeasure_eval(dup_config(), -1, out),
    "bod": lambda tmp_path, out: run_bod_eval(dup_config(), out),
}

TRIAL_FILES = {"results.jsonl", "report.csv", "summary.json"}


class TestCampaignFrame:
    """What every campaign persists: summary.json, which is the summary it
    returns, and the trial files of the campaigns that keep its trials.  A
    failed search persists the trials of the steps before the failed one
    and counts the failed step's own in total_trials; a refused input
    writes nothing."""

    @pytest.mark.parametrize("operation", sorted(CAMPAIGNS))
    def test_files_hold_the_returned_summary(self, tmp_path, operation):
        run, keeps_trials = CAMPAIGNS[operation]
        summary = run(tmp_path)
        assert summary["operation"] == operation
        assert {p.name for p in tmp_path.iterdir()} == (
            TRIAL_FILES if keeps_trials else {"summary.json"})
        assert json.loads((tmp_path / "summary.json").read_text()) == summary
        if keeps_trials:
            lines = (tmp_path / "results.jsonl").read_text().splitlines()
            _, *rows = (tmp_path / "report.csv").read_text().splitlines()
            assert len(lines) == len(rows) == summary["total_trials"] > 0

    def test_failed_sweep_persists_no_trial_and_counts_its_own(self, tmp_path):
        # Both targets lie beyond the grid: two passes of 5 trials miss them.
        cfg = dup_config(search=SearchConfig(offset_min=0, offset_max=5,
                                             width_set=(1,), pass_budget=2))
        with pytest.raises(IncompleteSweep):
            run_sweep_only(cfg, tmp_path)
        assert {p.name for p in tmp_path.iterdir()} == TRIAL_FILES
        assert (tmp_path / "results.jsonl").read_text() == ""
        assert (tmp_path / "report.csv").read_text().splitlines() == [
            ",".join(campaign.REPORT_COLUMNS)]
        stored = json.loads((tmp_path / "summary.json").read_text())
        assert stored["error"] == {"kind": "incomplete_sweep", "trials_used": 10,
                                   "missing": ["FIRST", "SECOND"]}
        assert stored["total_trials"] == 10

    def test_failed_exhaustive_persists_its_summary_alone(self, tmp_path):
        cfg = dup_config(search=SearchConfig(offset_min=0, offset_max=100, width_set=(1,),
                                             exhaustive_budget=10))
        with pytest.raises(NotFound):
            run_exhaustive(cfg, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]
        stored = json.loads((tmp_path / "summary.json").read_text())
        assert stored["error"] == {"kind": "not_found", "trials_used": 10}
        assert stored["total_trials"] == 10
        assert stored["operation"] == "exhaustive"

    @pytest.mark.parametrize("operation", sorted(REFUSED))
    def test_refused_input_writes_nothing(self, tmp_path, operation):
        with pytest.raises(ConfigError):
            REFUSED[operation](tmp_path, tmp_path / "run")
        assert not (tmp_path / "run").exists()
