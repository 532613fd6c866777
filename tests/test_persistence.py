"""results.jsonl and report.csv are written straight from the trial
blocks a campaign holds, or from the blocks read_results returns.  The
formatter they replace, which built each record's line with
``json.dumps`` and read the JSON back to write the CSV, is the oracle."""

import csv
import json
from dataclasses import replace
from pathlib import Path

import pytest

from glitchsim import campaign
from glitchsim.calibration import dup_register_model, shift_model, tzm_model
from glitchsim.campaign import (CampaignConfig, SearchConfig, load_config,
                                read_results, results_to_report, write_results)
from glitchsim.cli import main
from glitchsim.errors import ConfigError
from glitchsim.scenarios import dup_registers
from glitchsim.search import SimContext, TrialBlock, run_trials
from glitchsim.timing import ClockDomains

FLOW = CampaignConfig(
    scenario="dup_registers_7_43", oversampling=1, model=dup_register_model(),
    search=SearchConfig(offset_min=0, offset_max=100, width_set=(1,), psi=2,
                        integrate_trials=20, n_rank=20, n_final=300),
    master_seed=3)


CI_FLOW = Path(__file__).resolve().parent.parent / "demos" / "configs" / "dup_flow.json"


def as_records(data):
    """The trials of blocks or records, as records."""
    return [rec for item in data
            for rec in (item if isinstance(item, TrialBlock) else (item,))]


def oracle_line(rec, trial):
    """The JSON object of a trial's line, as the README states it."""
    outcome = {"kind": rec.outcome.kind}
    if rec.outcome.labels:
        outcome["labels"] = sorted(rec.outcome.labels)
    return {"trial": trial, "step": rec.step, "combo": [list(s) for s in rec.combo],
            "outcome": outcome, "hits": list(rec.hits), "seed": rec.seed}


def oracle_results(data, path):
    with open(path, "w") as fh:
        for i, rec in enumerate(as_records(data)):
            fh.write(json.dumps(oracle_line(rec, i), sort_keys=True) + "\n")


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
    """The trial blocks one campaign call hands to write_results."""
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


def escaped_blocks():
    """Labels and a step name that JSON and CSV must escape, partial hits
    on them, and two runs starting at trials 1000 and 7, in reverse order."""
    base = dup_registers(7, 43)
    labels = ('say "hi"', "back\\slash", "ünï, cødé→")
    scen = replace(base, targets=tuple(replace(t, label=label)
                                       for t, label in zip(base.targets, labels)))
    ctx = SimContext(domains=ClockDomains(oversampling=1), model=dup_register_model())
    first = min(scen.targets[0].cycles)
    blocks = [run_trials(scen, [(first, 1)], 200, ctx, 'odd "step",\r\n \\ é', 11,
                         first=1000),
              run_trials(scen, [(first, 1), (43, 1)], 200, ctx, "both", 12, first=7)]
    records = as_records(blocks)
    assert {rec.outcome.kind for rec in records} >= {"partial_hit", "success"}
    assert any(rec.outcome.labels == {labels[0]} for rec in records)
    return blocks[::-1]


def escaped_records():
    """The trials of the escaped blocks, as records in reverse order."""
    return as_records(escaped_blocks()[::-1])[::-1]


def escaped_read(tmp_path):
    """The escaped records, as read_results returns them from the file the
    oracle wrote: blocks whose seeds no step seed derives."""
    oracle_results(escaped_records(), tmp_path / "escaped.jsonl")
    blocks = read_results(tmp_path / "escaped.jsonl")
    assert [(b.step, len(b)) for b in blocks] == [("both", 200),
                                                   ('odd "step",\r\n \\ é', 200)]
    return blocks


def flow_records(monkeypatch, tmp_path):
    return persisted_records(monkeypatch,
                             lambda: campaign.run_attack_flow(FLOW, tmp_path / "run"))


def wide_records(monkeypatch, tmp_path):
    cfg = CampaignConfig(scenario="successive_shifts", model=shift_model(),
                         trials=300, master_seed=3)
    return persisted_records(monkeypatch,
                             lambda: campaign.run_wide_vs_narrow(cfg, tmp_path / "run"))


TZM_COUNTERMEASURE = CampaignConfig(scenario="tzm_full_attack", model=tzm_model(),
                                    trials=300, master_seed=2)


def countermeasure_records(monkeypatch, tmp_path, cfg=TZM_COUNTERMEASURE):
    return persisted_records(
        monkeypatch, lambda: campaign.run_countermeasure_eval(cfg, 9, tmp_path / "run"))


def ci_countermeasure(trials):
    """CI's countermeasure run on dup_flow.json at ``trials`` per arm."""
    return lambda monkeypatch, tmp_path: countermeasure_records(
        monkeypatch, tmp_path, replace(load_config(CI_FLOW), trials=trials))


SOURCES = {
    "flow": flow_records,
    "wide_vs_narrow": wide_records,
    "countermeasure": countermeasure_records,
    "ci_countermeasure_1000": ci_countermeasure(1000),
    "ci_countermeasure_2500": ci_countermeasure(2500),
    "escaped": lambda monkeypatch, tmp_path: escaped_read(tmp_path),
    "escaped_blocks": lambda monkeypatch, tmp_path: escaped_blocks(),
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
        assert results_to_report(records, tmp_path / "new.csv") == len(as_records(records))
        oracle_results(records, tmp_path / "old.jsonl")
        oracle_report(tmp_path / "old.jsonl", tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_read_results_round_trips(self, records, tmp_path):
        """Reading a file back gives its trials, and writing them again
        gives the file and the report byte for byte."""
        write_results(records, tmp_path / "results.jsonl")
        results_to_report(records, tmp_path / "report.csv")
        blocks = read_results(tmp_path / "results.jsonl")
        assert as_records(blocks) == as_records(records)
        write_results(blocks, tmp_path / "again.jsonl")
        results_to_report(blocks, tmp_path / "again.csv")
        for name, again in (("results.jsonl", "again.jsonl"), ("report.csv", "again.csv")):
            assert (tmp_path / again).read_bytes() == (tmp_path / name).read_bytes()

    def test_empty(self, tmp_path):
        write_results([], tmp_path / "results.jsonl")
        assert (tmp_path / "results.jsonl").read_bytes() == b""
        assert read_results(tmp_path / "results.jsonl") == []
        assert results_to_report([], tmp_path / "report.csv") == 0


class TestReadResults:
    def test_read_blocks_hold_their_seeds(self, tmp_path):
        """A read block's seeds are the ones on its lines, whichever they
        are, down to both ends of [0, 2**64)."""
        line = {"step": "final", "combo": [[1, 2]], "outcome": {"kind": "success"},
                "hits": [True]}
        path = tmp_path / "seeds.jsonl"
        path.write_text("".join(json.dumps(line | {"seed": seed, "trial": i}) + "\n"
                                for i, seed in enumerate((2**64 - 1, 0, 5))))
        (block,) = read_results(path)
        assert list(block.seeds()) == [2**64 - 1, 0, 5]

    def test_read_column_is_narrowed(self, tmp_path):
        """A read block's codes take a byte a trial, as a run block's do."""
        for block in escaped_read(tmp_path):
            assert block.codes.typecode == "B"
            assert sorted(set(block.codes)) == list(range(len(block.table)))

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
        '{"trial": 0, "step": 5, "combo": [[1, 2]], '
        '"outcome": {"kind": "success"}, "hits": [true], "seed": 5}',
        '{"trial": "0", "step": "final", "combo": [[1, 2]], '
        '"outcome": {"kind": "success"}, "hits": [true], "seed": 5}',
        '{"step": "final", "combo": [[1, 2]], '
        '"outcome": {"kind": "success"}, "hits": [true], "seed": 5}',
        pytest.param("[" * 200_000 + "]" * 200_000, id="over_nested"),
        pytest.param('{"trial": 0, "step": "final", "combo": [[1, 2]], '
                     '"outcome": {"kind": "success"}, "hits": [true], "seed": -1}',
                     id="negative_seed"),
        pytest.param('{"trial": 0, "step": "final", "combo": [[1, 2]], '
                     '"outcome": {"kind": "success"}, "hits": [true], '
                     '"seed": 18446744073709551616}', id="seed_2_to_the_64"),
        pytest.param('{"trial": 0, "step": "final", "combo": [[1, 2]], '
                     '"outcome": {"kind": "success"}, "hits": [true], "seed": true}',
                     id="true_seed"),
        pytest.param('{"trial": 0, "step": "final", "combo": [[false, 2]], '
                     '"outcome": {"kind": "success"}, "hits": [true], "seed": 5}',
                     id="false_offset"),
        # Lines that write_results never writes: it would rewrite each one.
        *(pytest.param('{"trial": 0, "step": "final", "combo": %s, '
                       '"outcome": {"kind": "success"}, "hits": [true], "seed": 5}' % combo,
                       id=f"combo_{name}")
          for name, combo in (("empty_string", '""'), ("empty_object", "{}"),
                              ("empty_list", "[]"))),
        *(pytest.param('{"trial": 0, "step": "final", "combo": [[1, 2]], '
                       '"outcome": %s, "hits": [true, false], "seed": 5}' % outcome, id=name)
          for name, outcome in (
              ("labels_on_a_success", '{"kind": "success", "labels": ["A"]}'),
              ("empty_labels_on_a_failure", '{"kind": "failure", "labels": []}'),
              ("partial_hit_without_labels", '{"kind": "partial_hit"}'),
              ("partial_hit_with_empty_labels", '{"kind": "partial_hit", "labels": []}'),
              ("labels_descending", '{"kind": "partial_hit", "labels": ["B", "A"]}'),
              ("labels_repeated", '{"kind": "partial_hit", "labels": ["A", "A"]}'),
              ("labels_not_strings", '{"kind": "partial_hit", "labels": [1]}'),
              ("unknown_outcome_key", '{"kind": "success", "x": 1}'))),
        pytest.param('{"trial": 0, "step": "final", "combo": [[1, 2]], '
                     '"outcome": {"kind": "success"}, "hits": [true], "seed": 5, "foo": 1}',
                     id="unknown_key"),
        pytest.param('{"trial": -1, "step": "final", "combo": [[1, 2]], '
                     '"outcome": {"kind": "success"}, "hits": [true], "seed": 5}',
                     id="negative_trial"),
    ])
    def test_bad_line_names_file_and_line(self, line, tmp_path, capsys):
        """read_results raises on the line, and ``glitchsim report`` exits 2
        on it; both name the file and the line.  A blank line 1 makes it
        line 2 and the file's trial 0, so each line is refused for its own
        defect, not for its trial."""
        path = tmp_path / "results.jsonl"
        path.write_bytes(b"\n" + line.encode("latin-1") + b"\n")
        with pytest.raises(ConfigError, match=r"results\.jsonl line 2 "):
            read_results(path)
        assert main(["report", "--results", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        assert f"config error: {path} line 2 is not a trial record" in capsys.readouterr().err

    def test_missing_file_or_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.jsonl"):
            read_results(tmp_path / "nope.jsonl")
        with pytest.raises(ConfigError, match="cannot read"):
            read_results(tmp_path)


def test_report_command_exits_2_on_a_seed_past_2_to_the_64(tmp_path, capsys):
    """glitchsim never writes such a seed; the line is no trial record."""
    path = tmp_path / "results.jsonl"
    oracle_results(escaped_records()[:2], path)
    first, second = path.read_text().splitlines(keepends=True)
    path.write_text(first + json.dumps(json.loads(second) | {"seed": 2**64}) + "\n")
    assert main(["report", "--results", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    assert f"{path} line 2 is not a trial record" in capsys.readouterr().err


@pytest.mark.parametrize("trial", [pytest.param(0, id="trial_repeated"),
                                   pytest.param(2, id="trial_skips_a_position")])
def test_report_command_exits_2_on_a_trial_that_is_not_its_position(trial, tmp_path,
                                                                      capsys):
    """A trial is its line's position among the file's trials: line 2 is
    trial 1, and glitchsim never writes another number there."""
    path = tmp_path / "results.jsonl"
    oracle_results(escaped_records()[:2], path)
    first, second = path.read_text().splitlines(keepends=True)
    path.write_text(first + json.dumps(json.loads(second) | {"trial": trial}) + "\n")
    with pytest.raises(ConfigError, match=r"results\.jsonl line 2 "):
        read_results(path)
    assert main(["report", "--results", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    assert f"{path} line 2 is not a trial record" in capsys.readouterr().err


def test_report_command_regenerates_flow_csv(tmp_path):
    (tmp_path / "flow.json").write_text(json.dumps(FLOW.to_dict()))
    out = tmp_path / "run"
    assert main(["flow", "--config", str(tmp_path / "flow.json"),
                 "--out", str(out)]) == 0
    again = tmp_path / "again.csv"
    assert main(["report", "--results", str(out / "results.jsonl"),
                 "--out", str(again)]) == 0
    assert again.read_bytes() == (out / "report.csv").read_bytes()
