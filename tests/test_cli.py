import json

import pytest

from glitchsim.calibration import deterministic_model
from glitchsim.campaign import CampaignConfig, SearchConfig, model_to_dict
from glitchsim.cli import main


@pytest.fixture
def dup_cfg_path(tmp_path):
    cfg = {
        "scenario": "dup_registers_7_43",
        "oversampling": 1,
        "model": model_to_dict(deterministic_model()),
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

    @pytest.mark.parametrize("flag", ["--trials", "--jobs"])
    def test_non_positive_count_exit_2(self, dup_cfg_path, capsys, flag):
        assert main(["countermeasure", "--config", str(dup_cfg_path),
                     flag, "0"]) == 2
        assert f"{flag[2:]} must be >= 1" in capsys.readouterr().err

    def test_search_failure_exit_1(self, dup_cfg_path, tmp_path, capsys):
        data = json.loads(dup_cfg_path.read_text())
        data["search"]["pass_budget"] = 0
        bad = tmp_path / "hopeless.json"
        bad.write_text(json.dumps(data))
        assert main(["flow", "--config", str(bad)]) == 1
        assert "search failed" in capsys.readouterr().err


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
