import io
import itertools
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from glitchsim.campaign import load_config
from glitchsim.chain import chain_windows
from glitchsim.cli import main
from glitchsim.dut import trial_plan
from glitchsim.scenarios import dup_registers, scenario_to_dict, successive_shifts

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


@pytest.fixture
def dup_cfg_path(tmp_path):
    cfg = {
        "scenario": "dup_registers_7_43",
        "oversampling": 1,
        "model": {"p_max_skip": 1.0, "p_lockup_per_fault": 0.0, "p_window_burst": 0.0},
        "search": {"offset_min": 0, "offset_max": 100, "width_set": [1],
                   "psi": 2, "n_rank": 5, "n_final": 20},
        "master_seed": 7,
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(cfg))
    return path


class TestExitCodes:
    def test_scenarios_lists_presets(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "tzm_full_attack" in out and "successive_shifts" in out

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["flow", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["flow", "--bogus"]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_retired_jobs_flag_exit_2(self, dup_cfg_path, capsys):
        assert main(["flow", "--config", str(dup_cfg_path), "--jobs", "2"]) == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--trials"])
    def test_non_positive_count_exit_2(self, dup_cfg_path, capsys, flag):
        assert main(["countermeasure", "--config", str(dup_cfg_path),
                     flag, "0"]) == 2
        assert f"{flag[2:]} must be >= 1" in capsys.readouterr().err

    def test_search_failure_exit_1(self, dup_cfg_path, tmp_path, capsys):
        data = json.loads(dup_cfg_path.read_text())
        data["search"]["offset_max"] = 5  # both targets lie further out
        bad = tmp_path / "hopeless.json"
        bad.write_text(json.dumps(data))
        assert main(["flow", "--config", str(bad)]) == 1
        assert "search failed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key, value", [
        ("flow", "search", "n_rank", 0),
        ("flow", "search", "n_final", 0),
        ("flow", "search", "integrate_trials", 0),
        ("flow", "search", "pass_budget", 0),
        ("flow", "search", "stride", 0),
        ("flow", "search", "fuzzy_stride", 0),
        ("flow", "search", "psi", -1),
        ("flow", "search", "offset_max", 0),
        ("flow", "search", "offset_min", -1),
        ("flow", "search", "width_set", [0]),
        ("exhaustive", "search", "exhaustive_budget", 0),
        ("exhaustive", "search", "n_faults", 0),
        ("flow", None, "oversampling", 0),
        ("flow", None, "dut_period_ns", 0),
        ("sweep", None, "scenario", "dup_registers_noncoop"),
        ("compare", None, "scenario", "dup_registers_noncoop"),
        ("flow", None, "transfer_source", "no_such_scenario"),
        ("flow", None, "search", []),
        ("flow", None, "model", "tzm"),
        ("countermeasure", None, "jobs", 0),
        ("flow", "model", "rng_seed", 1),
        ("flow", None, "master_seed", "x"),
        ("flow", None, "master_seed", 1.5),
        ("flow", None, "master_seed", True),
        ("flow", None, "oversampling", 2.5),
        ("flow", "model", "per_target_override", [1]),
        ("flow", "search", "psi", 1.5),
        ("flow", "search", "offset_min", 0.5),
        ("flow", "search", "n_final", 2.5),
        ("flow", "search", "width_set", [20.5]),
        ("bod", "bod", "enabled", "yes"),
        ("flow", None, "transfer_source", "tzm_full_attack_noncoop"),
    ])
    def test_malformed_config_exit_2(self, dup_cfg_path, tmp_path, capsys,
                                     command, section, key, value):
        data = json.loads(dup_cfg_path.read_text())
        if key == "transfer_source":
            data["scenario"] = "dup_registers_noncoop"
        (data.setdefault(section, {}) if section else data)[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main([command, "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["flow", "exhaustive", "countermeasure"])
    def test_target_outside_stream_exit_2(self, dup_cfg_path, tmp_path, capsys,
                                          command):
        scen = scenario_to_dict(dup_registers(7, 43))
        scen["targets"][1]["cycles"] = [999]
        save = tmp_path / "scen.json"
        save.write_text(json.dumps(scen))
        data = json.loads(dup_cfg_path.read_text())
        data["scenario"] = str(save)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main([command, "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "target SECOND does not match the stream" in err

    @pytest.mark.parametrize("key, value, message", [
        ("random_delay_max", -3, "random_delay_max must be >= 0"),
        ("trigger_cycle", -5, "trigger_cycle must be >= 0"),
    ])
    def test_negative_scenario_field_exit_2(self, dup_cfg_path, tmp_path, capsys,
                                            key, value, message):
        scen = scenario_to_dict(dup_registers(7, 43))
        scen[key] = value
        save = tmp_path / "scen.json"
        save.write_text(json.dumps(scen))
        data = json.loads(dup_cfg_path.read_text())
        data["scenario"] = str(save)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["flow", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize("path, value, message", [
        (("cooperative",), "false", "cooperative must be true or false"),
        (("random_delay_max",), 2.9, "random_delay_max must be an integer"),
        (("trigger_cycle",), 1.0, "trigger_cycle must be an integer"),
        (("instructions", 3, "cycle"), 3.5, "instruction cycle must be an integer"),
        (("targets", 1, "cycles", 0), True, "target cycle must be an integer"),
        ((), [], "a scenario must be a JSON object"),
        (("targets",), [], "one or more targets with distinct labels"),
        (("targets", 1, "label"), "FIRST", "one or more targets with distinct labels"),
        (("instructions", 3, "cycle"), 2, "instruction cycles must be strictly increasing"),
        (("targets", 1, "cycles"), [], "a target needs at least one cycle"),
        (("response_kind",), "bogus", "unknown response_kind 'bogus'"),
        (("trigger_cycle",), 12, "must lie at or after trigger_cycle"),
    ])
    def test_malformed_scenario_field_exit_2(self, dup_cfg_path, tmp_path, capsys,
                                             path, value, message):
        scen = scenario_to_dict(dup_registers(7, 43))
        if path:
            _entry(scen, path[:-1])[path[-1]] = value
        else:
            scen = value
        save = tmp_path / "scen.json"
        save.write_text(json.dumps(scen))
        data = json.loads(dup_cfg_path.read_text())
        data["scenario"] = str(save)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["exhaustive", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize("content, where", [
        (None, "cannot read"),
        ('{"trial": 0}\n', "line 1 "),
        ("\nnot json\n", "line 2 "),
    ])
    def test_report_bad_results_exit_2(self, tmp_path, capsys, content, where):
        results = tmp_path / "results.jsonl"
        if content is not None:
            results.write_text(content)
        assert main(["report", "--results", str(results),
                     "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(results) in err and where in err

    def test_report_out_in_missing_dir_exit_2(self, dup_cfg_path, tmp_path,
                                              capsys):
        run = tmp_path / "run"
        assert main(["flow", "--config", str(dup_cfg_path),
                     "--out", str(run)]) == 0
        out = tmp_path / "nodir" / "r.csv"
        assert main(["report", "--results", str(run / "results.jsonl"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_out_is_existing_file_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bod.json"
        cfg.write_text(json.dumps({
            "scenario": "bod_scenario",
            "bod": {"enabled": True, "sample_period": 80, "sample_phase": 0},
        }))
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["bod", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err


def _covering_combos(config_name):
    """Combos of a checked-in config's exhaustive grid whose windows touch
    every target instruction."""
    cfg = load_config(DEMO_CONFIGS / config_name)
    scenario, ctx = cfg.load_scenario(), cfg.context()
    trigger = scenario.trigger_cycle * ctx.domains.oversampling
    wanted = frozenset().union(*scenario.target_indices.values())
    n_faults = cfg.search.n_faults or len(scenario.targets)
    covering = []
    for combo in itertools.product(cfg.search.space().grid, repeat=n_faults):
        windows, _ = chain_windows(combo, trigger)
        plan = trial_plan(scenario, windows, ctx.domains, ctx.model, ctx.bod)
        if wanted <= {index for index, *_ in plan.entries}:
            covering.append(combo)
    return covering


class TestStructuralMiss:
    """CI's exit-1 exhaustive case must not rest on a draw."""

    def test_exhaustive_miss_grid_covers_no_target_set(self, capsys):
        assert _covering_combos("exhaustive_miss.json") == []
        path = DEMO_CONFIGS / "exhaustive_miss.json"
        assert main(["exhaustive", "--config", str(path)]) == 1

    def test_dup_flow_grid_holds_a_covering_combo(self):
        assert ((160, 20), (860, 20)) in _covering_combos("dup_flow.json")


class TestCommands:
    def test_flow_writes_artifacts(self, dup_cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["flow", "--config", str(dup_cfg_path),
                     "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
        assert (out / "results.jsonl").exists()
        assert (out / "report.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["best"]["success_rate"] == 1.0
        assert "best combo" in capsys.readouterr().out

    def test_flow_seed_override_recorded(self, dup_cfg_path, tmp_path):
        out = tmp_path / "run"
        main(["flow", "--config", str(dup_cfg_path), "--out", str(out),
              "--seed", "123"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["master_seed"] == 123

    def test_sweep_command(self, dup_cfg_path, capsys):
        assert main(["sweep", "--config", str(dup_cfg_path)]) == 0
        assert "FIRST" in capsys.readouterr().out

    def test_exhaustive_command(self, dup_cfg_path, capsys):
        assert main(["exhaustive", "--config", str(dup_cfg_path)]) == 0
        assert "successful combo" in capsys.readouterr().out

    def test_compare_prints_ratio(self, dup_cfg_path, capsys):
        assert main(["compare", "--config", str(dup_cfg_path)]) == 0
        assert "ratio:" in capsys.readouterr().out

    def test_wide_vs_narrow(self, tmp_path, capsys):
        cfg = {"scenario": "successive_shifts", "model": {"preset": "shift"},
               "trials": 500, "master_seed": 3}
        path = tmp_path / "shift.json"
        path.write_text(json.dumps(cfg))
        assert main(["wide-vs-narrow", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "wide" in out and "narrow" in out

    def test_countermeasure(self, dup_cfg_path, capsys):
        assert main(["countermeasure", "--config", str(dup_cfg_path),
                     "--max-delay", "0", "--trials", "100"]) == 0
        assert "degradation factor 1.00" in capsys.readouterr().out

    def test_bod(self, tmp_path, capsys):
        cfg = {"scenario": "bod_scenario",
               "bod": {"enabled": True, "sample_period": 80}}
        path = tmp_path / "bod.json"
        path.write_text(json.dumps(cfg))
        assert main(["bod", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "wide detection rate 1.000" in out

    def test_report_conversion(self, dup_cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["flow", "--config", str(dup_cfg_path), "--out", str(out)])
        csv_path = tmp_path / "r.csv"
        assert main(["report", "--results", str(out / "results.jsonl"),
                     "--out", str(csv_path)]) == 0
        assert csv_path.exists()

    def test_identical_invocations_identical_summary(self, dup_cfg_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["flow", "--config", str(dup_cfg_path), "--out", str(a)])
        main(["flow", "--config", str(dup_cfg_path), "--out", str(b)])
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def _entry(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _paths(doc, prefix=()):
    """The key path of every entry of a JSON document, nested ones too."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


# A small config whose every command runs in milliseconds: deterministic
# stores, a 55 x 55 exhaustive grid whose success lies at combo 483, and
# small trial counts.  The scenario entry is filled in per example.
FUZZ_CONFIG = {
    "oversampling": 2,
    "dut_period_ns": 100,
    "model": {"p_max_skip": 0.0, "p_lockup_per_fault": 0.0, "p_window_burst": 0.0,
              "per_target_override": {"store_ahb_original": 1.0,
                                      "store_ahb_duplicate": 1.0}},
    "bod": {"enabled": False, "sample_period": 80, "sample_phase": 0},
    "search": {"offset_min": 0, "offset_max": 110, "stride": 2, "width_set": [2],
               "psi": 1, "fuzzy_stride": 1, "pass_budget": 2, "integrate_trials": 2,
               "n_rank": 5, "n_final": 20, "exhaustive_budget": 1000},
    "master_seed": 7,
    "jobs": 1,
    "trials": 50,
}
FUZZ_POOL = (None, True, "x", 2.5, -1, 0, 50, [], {})
FUZZ_COMMANDS = ("sweep", "flow", "exhaustive", "compare", "countermeasure",
                 "wide-vs-narrow", "bod")


def _fuzz_docs(tmp, command):
    """Fresh copies of FUZZ_CONFIG and of the scenario file it names: the
    shift pair for wide-vs-narrow, which needs one, else duplicate registers."""
    cfg = json.loads(json.dumps(FUZZ_CONFIG))
    cfg["scenario"] = str(Path(tmp) / "scen.json")
    scen = successive_shifts() if command == "wide-vs-narrow" else dup_registers(7, 43)
    return cfg, scenario_to_dict(scen)


def _run_fuzz(command, cfg, scen, tmp):
    (Path(tmp) / "scen.json").write_text(json.dumps(scen))
    (Path(tmp) / "cfg.json").write_text(json.dumps(cfg))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main([command, "--config", str(Path(tmp) / "cfg.json"),
                     "--out", str(Path(tmp) / "run")])


@pytest.mark.parametrize("command", FUZZ_COMMANDS)
def test_fuzz_base_config_succeeds(tmp_path, command):
    # Unmutated, every command succeeds, so the fuzz starts from working input.
    assert _run_fuzz(command, *_fuzz_docs(tmp_path, command), tmp_path) == 0


@settings(max_examples=400, deadline=None)
@given(data=st.data(), mutate_scenario=st.booleans(),
       command=st.sampled_from(FUZZ_COMMANDS))
def test_fuzzed_config_never_raises(data, mutate_scenario, command):
    """One entry of the config or of its scenario file is deleted or set to
    a value of FUZZ_POOL; every command exits 0, 1 or 2 and never raises."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, scen = _fuzz_docs(tmp, command)
        doc = scen if mutate_scenario else cfg
        path = data.draw(st.sampled_from(list(_paths(doc))), label="entry")
        value = data.draw(st.sampled_from(("<delete>",) + FUZZ_POOL), label="value")
        if value == "<delete>":
            del _entry(doc, path[:-1])[path[-1]]
        else:
            _entry(doc, path[:-1])[path[-1]] = value
        assert _run_fuzz(command, cfg, scen, tmp) in (0, 1, 2)
