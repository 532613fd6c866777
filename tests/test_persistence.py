"""results.jsonl and report.csv are written straight from the trial
records.  The formatter they replace, which built each line with
``json.dumps`` and read the JSON back to write the CSV, is the oracle."""

import csv
import json
from dataclasses import replace

import pytest

from glitchsim import campaign
from glitchsim.calibration import dup_register_model, shift_model, tzm_model
from glitchsim.campaign import (CampaignConfig, SearchConfig, read_results,
                                results_to_report, write_results)
from glitchsim.cli import main
from glitchsim.errors import ConfigError
from glitchsim.scenarios import dup_registers
from glitchsim.search import SimContext, run_trials
from glitchsim.timing import ClockDomains

FLOW = CampaignConfig(
    scenario="dup_registers_7_43", oversampling=1, model=dup_register_model(),
    search=SearchConfig(offset_min=0, offset_max=100, width_set=(1,), psi=2,
                        integrate_trials=20, n_rank=20, n_final=300),
    master_seed=3)


def oracle_results(records, path):
    with open(path, "w") as fh:
        for i, rec in enumerate(records):
            fh.write(json.dumps(rec.to_dict() | {"trial": i}, sort_keys=True) + "\n")


def oracle_report(results_path, csv_path):
    with open(results_path) as src, open(csv_path, "w", newline="") as dst:
        writer = csv.writer(dst)
        writer.writerow(["trial", "step", "outcome", "success", "hits", "combo", "seed"])
        for line in src:
            rec = json.loads(line)
            outcome = rec["outcome"]["kind"]
            writer.writerow([
                rec["trial"], rec["step"], outcome, int(outcome == "success"),
                "|".join("1" if h else "0" for h in rec["hits"]),
                ";".join(f"{r}+{w}" for r, w in rec["combo"]),
                rec["seed"],
            ])


def persisted_records(monkeypatch, run):
    """The records one campaign call hands to write_results."""
    seen = []
    original = campaign.write_results

    def capture(records, path):
        seen.append(list(records))
        original(records, path)

    with monkeypatch.context() as m:
        m.setattr(campaign, "write_results", capture)
        run()
    (records,) = seen
    return records


def escaped_records():
    """Labels and a step name that JSON and CSV must escape, partial hits
    on them, and two runs starting at trials 1000 and 7, in reverse order."""
    base = dup_registers(7, 43)
    labels = ('say "hi"', "back\\slash", "ünï, cødé→")
    scen = replace(base, targets=tuple(replace(t, label=label)
                                       for t, label in zip(base.targets, labels)))
    ctx = SimContext(domains=ClockDomains(oversampling=1), model=dup_register_model())
    first = min(scen.targets[0].cycles)
    records = run_trials(scen, [(first, 1)], 200, ctx, 'odd "step", \\ é', 11,
                         first=1000)
    records += run_trials(scen, [(first, 1), (43, 1)], 200, ctx, "both", 12, first=7)
    assert {rec.outcome.kind for rec in records} >= {"partial_hit", "success"}
    assert any(rec.outcome.labels == {labels[0]} for rec in records)
    return records[::-1]


def flow_records(monkeypatch, tmp_path):
    return persisted_records(monkeypatch,
                             lambda: campaign.run_attack_flow(FLOW, tmp_path / "run"))


def wide_records(monkeypatch, tmp_path):
    cfg = CampaignConfig(scenario="successive_shifts", model=shift_model(),
                         trials=300, master_seed=3)
    return persisted_records(monkeypatch,
                             lambda: campaign.run_wide_vs_narrow(cfg, tmp_path / "run"))


def countermeasure_records(monkeypatch, tmp_path):
    cfg = CampaignConfig(scenario="tzm_full_attack", model=tzm_model(),
                         trials=300, master_seed=2)
    return persisted_records(
        monkeypatch, lambda: campaign.run_countermeasure_eval(cfg, 9, tmp_path / "run"))


SOURCES = {
    "flow": flow_records,
    "wide_vs_narrow": wide_records,
    "countermeasure": countermeasure_records,
    "escaped": lambda monkeypatch, tmp_path: escaped_records(),
}


@pytest.fixture(params=list(SOURCES))
def records(request, monkeypatch, tmp_path):
    return SOURCES[request.param](monkeypatch, tmp_path)


class TestAgainstOracle:
    def test_results_jsonl_bytes(self, records, tmp_path):
        write_results(records, tmp_path / "new.jsonl")
        oracle_results(records, tmp_path / "old.jsonl")
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()

    def test_report_csv_bytes(self, records, tmp_path):
        assert results_to_report(records, tmp_path / "new.csv") == len(records)
        oracle_results(records, tmp_path / "old.jsonl")
        oracle_report(tmp_path / "old.jsonl", tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_read_results_round_trips(self, records, tmp_path):
        write_results(records, tmp_path / "results.jsonl")
        assert read_results(tmp_path / "results.jsonl") == records

    def test_empty(self, tmp_path):
        write_results([], tmp_path / "results.jsonl")
        assert (tmp_path / "results.jsonl").read_bytes() == b""
        assert read_results(tmp_path / "results.jsonl") == []
        assert results_to_report([], tmp_path / "report.csv") == 0


class TestReadResults:
    @pytest.mark.parametrize("line", [
        "not json",
        '{"trial": 0}',
        "[1, 2]",
        '{"trial": 0, "step": "final", "combo": [[1, 2, 3]], '
        '"outcome": {"kind": "success"}, "hits": [true], "seed": 5}',
        '{"trial": 0, "step": "final", "combo": [[1, 2]], '
        '"outcome": {"kind": "won"}, "hits": [true], "seed": 5}',
        '{"trial": 0, "step": "final", "combo": [[1, 2]], '
        '"outcome": {"kind": "success"}, "hits": [1], "seed": 5}',
        '{"trial": 0, "step": "final", "combo": [[1, 2]], '
        '"outcome": {"kind": "partial_hit", "labels": "A"}, "hits": [true], "seed": 5}',
        '{"trial": 0, "step": "\xff"}',
        '{"trial": "0", "step": "final", "combo": [[1, 2]], '
        '"outcome": {"kind": "success"}, "hits": [true], "seed": 5}',
        '{"step": "final", "combo": [[1, 2]], '
        '"outcome": {"kind": "success"}, "hits": [true], "seed": 5}',
    ])
    def test_bad_line_names_file_and_line(self, line, tmp_path):
        good = escaped_records()[:1]
        path = tmp_path / "results.jsonl"
        write_results(good, path)
        with open(path, "ab") as fh:
            fh.write(line.encode("latin-1") + b"\n")
        with pytest.raises(ConfigError, match=r"results\.jsonl line 2 "):
            read_results(path)

    def test_missing_file_or_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.jsonl"):
            read_results(tmp_path / "nope.jsonl")
        with pytest.raises(ConfigError, match="cannot read"):
            read_results(tmp_path)


def test_report_command_regenerates_flow_csv(tmp_path):
    (tmp_path / "flow.json").write_text(json.dumps(FLOW.to_dict()))
    out = tmp_path / "run"
    assert main(["flow", "--config", str(tmp_path / "flow.json"),
                 "--out", str(out)]) == 0
    again = tmp_path / "again.csv"
    assert main(["report", "--results", str(out / "results.jsonl"),
                 "--out", str(again)]) == 0
    assert again.read_bytes() == (out / "report.csv").read_bytes()
