import json
import random
from dataclasses import replace

import pytest

from glitchsim.campaign import CampaignConfig
from glitchsim.dut import FaultResponseModel, SimContext, execute_trial
from glitchsim.errors import ConfigError, echo
from glitchsim.scenarios import (SCENARIO_PRESETS, Outcome, classify,
                                 dup_registers, load_scenario, save_scenario,
                                 scenario_from_dict, scenario_to_dict)
from glitchsim.timing import ClockDomains

DOM = ClockDomains(oversampling=20)
PERFECT = FaultResponseModel(p_max_skip=1.0, p_lockup_per_fault=0.0)
CTX = SimContext(DOM, PERFECT)


def run_on_cycles(scenario, cycles):
    """Perfect-model trial with one window per listed DUT cycle."""
    K = DOM.oversampling
    windows = sorted((c * K, (c + 1) * K) for c in cycles)
    return execute_trial(scenario, windows, CTX, 0)


class TestBuiltins:
    def test_required_presets_exist(self):
        names = set(SCENARIO_PRESETS)
        assert {"dup_registers_coop", "dup_registers_noncoop",
                "successive_shifts", "tzm_full_attack", "tzm_randomized",
                "bod_scenario", "dup_registers_7_43"} <= names

    def test_tzm_targets_in_reporting_order(self):
        scen = load_scenario("tzm_full_attack")
        assert [t.label for t in scen.targets] == ["SAU", "AHB_CTRL", "DUPL", "PE"]

    def test_zero_fault_trial_never_succeeds(self):
        for factory in SCENARIO_PRESETS.values():
            scen = factory()
            raw = execute_trial(scen, [], CTX, 0)
            out, hits = classify(scen, raw)
            assert out.kind == "failure" and not any(hits)

    def test_noncoop_shares_stream_shape_with_coop(self):
        coop = load_scenario("dup_registers_coop")
        noncoop = load_scenario("dup_registers_noncoop")
        assert [t.label for t in coop.targets] == [t.label for t in noncoop.targets]
        gaps = lambda s: [min(s.targets[1].cycles) - min(s.targets[0].cycles)]
        assert gaps(coop) == gaps(noncoop)


class TestClassify:
    def test_both_stores_skipped_is_success(self):
        scen = load_scenario("dup_registers_7_43")
        raw = run_on_cycles(scen, [min(t.cycles) for t in scen.targets])
        out, hits = classify(scen, raw)
        assert out.kind == "success"
        assert hits == scen.hits(raw.skipped) == (True, True)

    def test_only_first_is_partial(self):
        scen = load_scenario("dup_registers_7_43")
        raw = run_on_cycles(scen, [min(scen.targets[0].cycles)])
        out, hits = classify(scen, raw)
        assert out.kind == "partial_hit" and out.labels == {"FIRST"}
        assert hits == scen.hits(raw.skipped) == (True, False)

    def test_only_second_response(self):
        scen = load_scenario("dup_registers_7_43")
        raw = run_on_cycles(scen, [min(scen.targets[1].cycles)])
        out, hits = classify(scen, raw)
        assert out.kind == "partial_hit" and out.labels == {"SECOND"}
        assert hits == scen.hits(raw.skipped) == (False, True)

    def test_nothing_skipped_response(self):
        scen = load_scenario("dup_registers_7_43")
        raw = run_on_cycles(scen, [])
        assert raw.skipped == frozenset()
        out, hits = classify(scen, raw)
        assert hits == scen.hits(raw.skipped) == (False, False)
        assert out.kind == "failure"

    def test_tzm_subset_partial(self):
        scen = load_scenario("tzm_full_attack")
        sau = min(scen.targets[0].cycles)
        ahb = min(scen.targets[1].cycles)
        raw = run_on_cycles(scen, [sau, ahb])
        out, hits = classify(scen, raw)
        assert out.kind == "partial_hit" and out.labels == {"SAU", "AHB_CTRL"}
        assert hits == (True, True, False, False)

    def test_noncoop_never_partial(self):
        scen = load_scenario("dup_registers_noncoop")
        raw = run_on_cycles(scen, [min(scen.targets[0].cycles)])
        out, hits = classify(scen, raw)
        assert out.kind == "failure" and hits == (True, False)

    def test_noncoop_success_still_reported(self):
        scen = load_scenario("dup_registers_noncoop")
        raw = run_on_cycles(scen, [min(t.cycles) for t in scen.targets])
        out, hits = classify(scen, raw)
        assert out.kind == "success" and hits == (True, True)

    def test_every_trial_maps_to_one_class(self):
        scen = load_scenario("successive_shifts")
        model = FaultResponseModel(p_max_skip=0.5, p_lockup_per_fault=0.2)
        s1 = min(scen.targets[0].cycles)
        windows = [(s1 * 20, (s1 + 2) * 20)]
        kinds = set()
        for seed in range(200):
            raw = execute_trial(scen, windows, SimContext(DOM, model), seed)
            out, _ = classify(scen, raw)
            assert out.kind in Outcome.KINDS
            kinds.add(out.kind)
        assert "invalid" in kinds  # lockups do occur at p=0.2

    def test_one_pass_agrees_with_sf_then_hit_labels(self):
        # The two-pass form classify had: the SF over every target, then
        # the set of hit labels on a cooperative scenario.
        def reference(scen, raw):
            if raw.bod_tripped or raw.locked_up:
                return None
            hit = [scen.target_indices[t.label] <= raw.skipped
                   for t in scen.targets]
            if all(hit):
                return Outcome("success")
            labels = frozenset(t.label for t, h in zip(scen.targets, hit) if h)
            if scen.cooperative and labels:
                return Outcome("partial_hit", labels)
            return Outcome("failure")

        model = FaultResponseModel(p_max_skip=0.7, p_lockup_per_fault=0.02)
        rng = random.Random(4)
        kinds = set()
        for factory in SCENARIO_PRESETS.values():
            scen = factory()
            cycles = sorted({c for t in scen.targets for c in t.cycles})
            for seed in range(300):
                picked = [c for c in cycles if rng.random() < 0.6]
                windows = [(c * 20, (c + 1) * 20) for c in picked]
                raw = execute_trial(scen, windows, SimContext(DOM, model), seed)
                out, hits = classify(scen, raw)
                kinds.add(out.kind)
                assert reference(scen, raw) in (out, None)
                assert hits == scen.hits(raw.skipped)
        assert {"success", "partial_hit", "failure", "invalid"} <= kinds

    def test_pe_target_needs_both_shifts(self):
        scen = load_scenario("tzm_full_attack")
        pe_first = min(scen.targets[3].cycles)
        raw = run_on_cycles(scen, [pe_first])
        assert not scen.target_indices["PE"] <= raw.skipped
        raw = run_on_cycles(scen, [pe_first, pe_first + 1])
        assert scen.target_indices["PE"] <= raw.skipped


class TestHits:
    # ``skip`` maps a target to how many of its leading cycles get
    # skipped; a target is hit only when all of its cycles are.
    @pytest.mark.parametrize("preset, skip, hits", [
        ("tzm_full_attack", {}, (False, False, False, False)),
        ("tzm_full_attack", {"SAU": 1}, (True, False, False, False)),
        ("tzm_full_attack", {"PE": 2}, (False, False, False, True)),
        ("tzm_full_attack", {"PE": 1}, (False, False, False, False)),
        ("bod_scenario", {"REGION": 3}, (False,)),
        ("bod_scenario", {"REGION": 4}, (True,)),
    ])
    def test_hits_from_skipped_set(self, preset, skip, hits):
        scen = load_scenario(preset)
        cycles = [c for t in scen.targets for c in t.cycles[:skip.get(t.label, 0)]]
        raw = run_on_cycles(scen, cycles)
        assert not raw.locked_up
        assert raw.skipped == {i for i, ins in enumerate(scen.instructions)
                               if ins.cycle in cycles}
        assert scen.hits(raw.skipped) == hits


class TestSerialization:
    def test_round_trip(self):
        for factory in SCENARIO_PRESETS.values():
            scen = factory()
            clone = scenario_from_dict(scenario_to_dict(scen))
            assert scenario_to_dict(clone) == scenario_to_dict(scen)
            assert echo(clone) == echo(scen)

    @pytest.mark.parametrize("path, key", [
        ((), "random_delay_max"), ((), "cooperative"), (("targets", 3), "cycles"),
        (("targets", 0), "label"), (("instructions", 6), "effect")])
    def test_misspelt_key_rejected(self, path, key):
        """A misspelt key is refused, not read as its field's default: a
        tzm_randomized file whose random_delay_max is misspelt would
        otherwise load unprotected."""
        data = scenario_to_dict(load_scenario("tzm_randomized"))
        entry = data
        for step in path:
            entry = entry[step]
        entry[key + "x"] = entry.pop(key)
        with pytest.raises(ValueError, match="unknown entry"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("path, key", [
        ((), "trigger_cycle"), ((), "random_delay_max"),
        (("instructions", 0), "cycle"), (("targets", 0, "cycles"), 0)])
    def test_json_true_is_no_cycle(self, path, key):
        data = scenario_to_dict(load_scenario("tzm_randomized"))
        entry = data
        for step in path:
            entry = entry[step]
        entry[key] = True
        with pytest.raises(TypeError, match="must be an integer, got True"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("path, key, value, message", [
        pytest.param(("instructions", 3), "cycle", -1,
                     r"instructions\[3\]: cycle must be non-negative", id="cycle"),
        pytest.param(("targets", 1), "cycles", [],
                     r"targets\[1\]: a target needs at least one cycle", id="cycles")])
    def test_value_error_names_its_path(self, tmp_path, path, key, value, message):
        data = scenario_to_dict(load_scenario("tzm_randomized"))
        entry = data
        for step in path:
            entry = entry[step]
        entry[key] = value
        with pytest.raises(ValueError, match=message):
            scenario_from_dict(data)
        file = tmp_path / "scen.json"
        file.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r"scen\.json: ValueError: " + message):
            load_scenario(file)

    def test_retired_keys_load(self):
        scen = load_scenario("tzm_full_attack")
        data = {**scenario_to_dict(scen), "meta": {"note": "old"}, "response_kind": "skip"}
        for target in data["targets"]:
            target["effect"] = "store_sau_ctrl"
        assert echo(scenario_from_dict(data)) == echo(scen)

    def test_schema_version_enforced(self):
        data = scenario_to_dict(load_scenario("successive_shifts"))
        data["schema_version"] = 99
        with pytest.raises(ValueError):
            scenario_from_dict(data)

    def test_save_and_load_file(self, tmp_path):
        scen = dup_registers(3, 11)
        path = tmp_path / "scen.json"
        save_scenario(scen, path)
        loaded = load_scenario(path)
        assert scenario_to_dict(loaded) == scenario_to_dict(scen)
        assert json.loads(path.read_text())["schema_version"] == 1

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            load_scenario("no_such_scenario")


class TestTargetsInStream:
    @pytest.mark.parametrize("cycle", [999, 9])  # past the end; a Delay cycle
    def test_rejected_at_construction(self, cycle):
        base = dup_registers(7, 43)
        moved = replace(base.targets[1], cycles=(cycle,))
        with pytest.raises(ValueError, match="target SECOND does not match"):
            replace(base, targets=(base.targets[0], moved))

    def test_file_error_names_the_file(self, tmp_path):
        data = scenario_to_dict(dup_registers(7, 43))
        data["targets"][1]["cycles"] = [999]
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r"scen\.json.*target SECOND"):
            load_scenario(path)

    def test_campaign_load_raises_config_error(self, tmp_path):
        data = scenario_to_dict(dup_registers(7, 43))
        del data["instructions"]
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="instructions"):
            CampaignConfig(scenario=str(path)).load_scenario()
