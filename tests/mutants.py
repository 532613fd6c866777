"""Mutation gate on the trial kernel and its scalar step's stalls, the
exhaustive walk and its fault bound, the draws, the trial blocks (their
verdict table, their code column's widening, their one-verdict counts
and their prefix counts), the ranking's tie-break, the results.jsonl
reader (its types, labels, trial numbers and hits), the JSON reader and
the JSON writer, the chain's merge and its range checks (a zero width, a
negative offset), the sweep's pick (narrowest, then earliest), the
sweep's and the transfer's refusals, and the campaign frame (a refused
input persisted, a failed step's trials dropped from ``total_trials`` or
the earlier steps' trials from the trial files).

Each mutant is a set of exact text replacements in a copy of ``src/``
(each replaced text must occur exactly once).  The test files of the
module it edits then run against the copy with ``-x``; a mutant is
killed when a test fails.  A mutant that survives needs a test that
kills it, or, if no test can, a place in ``EQUIVALENT`` with the reason.
The tests first run once against an unmutated copy, which must pass;
then the mutants run ``os.cpu_count()`` at a time, and their verdicts
print in ``MUTANTS`` order.

Usage: python tests/mutants.py [NAME ...]  (every mutant by default)
Exit status 0 when every mutant run is killed, 1 when one survives, 2
when the unmutated tests fail or a mutant's run ends in neither a pass
nor a test failure (a collection error, or a replaced text that does
not occur exactly once, say).  pytest does not collect
this file; CI runs it after tier-1.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

DUT_TESTS = ("tests/test_dut.py",)
SHIFT_TESTS = ("tests/test_search.py::TestShiftPath",)
WALK_TESTS = ("tests/test_search.py::TestExhaustivePruning",)
BLOCK_TESTS = ("tests/test_search.py::TestTrialBlock",)
PERSISTENCE_TESTS = ("tests/test_persistence.py",)
PARSE_TESTS = ("tests/test_campaign.py", "tests/test_scenarios.py")

# name -> (file under src/glitchsim, [(text, replacement), ...], test paths)
MUTANTS = {
    "skip mask one bit off": (
        "dut.py", [("_key_mask(draws, 2 * W + i, 1.0 - p_noskip)))",
                    "_key_mask(draws, 2 * W + i, 1.0 - p_noskip) << 1))")],
        DUT_TESTS),
    "skip slot +1": (
        "dut.py", [("_key_mask(draws, 2 * W + i, ",
                    "_key_mask(draws, 2 * W + i + 1, ")],
        DUT_TESTS),
    "lockup reads the burst slot": (
        "dut.py", [("_key_mask(draws, 2 * w + 1, model.p_lockup_per_fault)",
                    "_key_mask(draws, 2 * w, model.p_lockup_per_fault)")],
        DUT_TESTS),
    "always bit dropped": (
        "dut.py", [("key = key << 1 | 1", "key = key << 1")],
        DUT_TESTS),
    "stall slot +1": (
        "dut.py", [("STALL_SLOT0 = 1 << 32", "STALL_SLOT0 = (1 << 32) + 1")],
        DUT_TESTS),
    "stall slots from slot 0": (
        "dut.py", [("STALL_SLOT0 = 1 << 32", "STALL_SLOT0 = 0")],
        DUT_TESTS),
    "window overlap >=": (
        "dut.py", [("            if overlap > 0:", "            if overlap >= 0:")],
        DUT_TESTS),
    "BOD sample at the window end": (
        "dut.py", [("if phase + i * period < end:", "if phase + i * period <= end:")],
        DUT_TESTS),
    "scalar step draws no stalls": (
        "dut.py", [("(stall_vector(scenario, scenario.random_delay_max, seed)\n"
                    "              if scenario.random_delay_max else ())", "()")],
        SHIFT_TESTS),
    "plan ignores its stall vector": (
        "dut.py", [("cycles = stalled_cycles(scenario, stalls)",
                    "cycles = scenario.effectful_cycles")],
        SHIFT_TESTS),
    "walk bound by bisect_right": (
        "search.py", [("from bisect import bisect_left", "from bisect import bisect_right"),
                      ("live = bisect_left(", "live = bisect_right(")],
        WALK_TESTS),
    "walk bound +1": (
        "search.py", [("targets[0][1] - cursor if targets",
                       "targets[0][1] - cursor + 1 if targets")],
        WALK_TESTS),
    "walk bound -1": (
        "search.py", [("targets[0][1] - cursor if targets",
                       "targets[0][1] - cursor - 1 if targets")],
        WALK_TESTS),
    "walk reach ignores stalls": (
        "search.py", [("target_ticks = tuple((c * K, (latest(c) + 1) * K)",
                       "target_ticks = tuple((c * K, (c + 1) * K)")],
        WALK_TESTS),
    "walk stops one sibling early": (
        "search.py", [("for spec in grid[:live]:", "for spec in grid[:live - 1]:")],
        WALK_TESTS),
    "walk root drops targets before the trigger": (
        "search.py", [("return walk((), trigger_tick, sorted(target_ticks, key=",
                       "return walk((), trigger_tick, sorted([t for t in target_ticks"
                       " if t[0] >= trigger_tick], key=")],
        WALK_TESTS),
    "greedy window one tick short": (
        "search.py", [("n, reach = n + 1, end - 1 + widest",
                       "n, reach = n + 1, end - 2 + widest")],
        WALK_TESTS),
    "greedy window one tick long": (
        "search.py", [("n, reach = n + 1, end - 1 + widest",
                       "n, reach = n + 1, end + widest")],
        WALK_TESTS),
    "count bound only at leaves": (
        "search.py", [("if windows_needed(untouched) <= left:",
                       "if left or windows_needed(untouched) <= left:")],
        WALK_TESTS),
    "walk seeds leaf i as i + 1": (
        "search.py", [("mix64(seed, index)", "mix64(seed, index + 1)")],
        ("tests/test_search.py::TestExhaustive",)),
    "draw fires at the threshold": (
        "seeding.py", [("if (x ^ (x >> 31)) >> 11 < threshold:",
                        "if (x ^ (x >> 31)) >> 11 <= threshold:")],
        ("tests/test_seeding.py",)),
    "seed column one index on": (
        "seeding.py", [("index = (((first + start) & _MASK)",
                        "index = (((first + start + 1) & _MASK)")],
        ("tests/test_seeding.py",)),
    "lane draw bound one step up": (
        "seeding.py", [("bound = _MASK + (math.ceil(threshold) << 11)",
                        "bound = _MASK + ((math.ceil(threshold) + 1) << 11)")],
        ("tests/test_seeding.py",)),
    "stall column without its lane mask after >> 11": (
        "seeding.py", [(">> 11)\n                           & low) * span >> 53",
                        ">> 11)) * span >> 53")],
        ("tests/test_seeding.py",)),
    "lane mix without its mask before the first product": (
        "seeding.py", [("x = ((x ^ (x >> 30)) & low) * 0xBF58476D1CE4E5B9 & low",
                        "x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & low")],
        ("tests/test_seeding.py",)),
    "defaulted fault count unbounded": (
        "search.py", [("        if n > MAX_FAULTS:",
                       "        if self.n_faults and n > MAX_FAULTS:")],
        ("tests/test_campaign.py",)),
    "block table with two verdicts swapped": (
        "search.py", [("first, list(verdicts), codes)",
                       "first, [*list(verdicts)[1::-1], *list(verdicts)[2:]], codes)")],
        BLOCK_TESTS),
    "code column of bytes": (
        "search.py", [('array("H" if size <= 1 << 16 else "Q", codes)', 'array("B", codes)')],
        BLOCK_TESTS),
    "one-verdict counts of an empty block": (
        "search.py", [("if len(self.table) == 1 and self.codes:",
                       "if len(self.table) == 1:")],
        BLOCK_TESTS),
    "prefix count past a missed target": (
        "search.py", [("                    break\n                counts[k] += n",
                       "                    continue\n                counts[k] += n")],
        BLOCK_TESTS),
    "ranking tie to the last combo": (
        "search.py", [("(ranking[i].successes, -i)", "(ranking[i].successes, i)")],
        ("tests/test_search.py::TestEvaluateRepeatability",)),
    "read block derives its seeds": (
        "campaign.py", [("list(verdicts), codes, seeds))", "list(verdicts), codes))")],
        PERSISTENCE_TESTS),
    "reader takes a non-string step": (
        "campaign.py", [("not isinstance(step, str) or ", "")],
        PERSISTENCE_TESTS),
    "reader lets a seed of 2**64 through": (
        "campaign.py", [("or seed >> 64):", "or seed >> 65):")],
        PERSISTENCE_TESTS),
    "reader takes a JSON true as an int": (
        "campaign.py", [("type(v) is int for v in ints", "isinstance(v, int) for v in ints")],
        PERSISTENCE_TESTS),
    "reader skips the labels check": (
        "campaign.py", [("            or not all(isinstance(x, str) for x in labels)\n", "")],
        PERSISTENCE_TESTS),
    "reader takes labels on any kind": (
        "campaign.py", [("len(outcome) != 1 + partial",
                         'len(outcome) != 1 + ("labels" in outcome)')],
        PERSISTENCE_TESTS),
    "reader takes an unknown key": (
        "campaign.py", [("len(line) != 6 or ", "len(line) < 6 or ")],
        PERSISTENCE_TESTS),
    "reader takes any hits": (
        "campaign.py", [('            or not _hits_fit(outcome["kind"], hits, labels)\n', "")],
        PERSISTENCE_TESTS),
    "reader takes any trial number": (
        "campaign.py", [("or trial != position or", "or trial < 0 or")],
        PERSISTENCE_TESTS),
    "campaign frame persists a refused input": (
        "campaign.py", [("from .errors import ConfigError, SearchFailed,",
                         "from .errors import ConfigError, GlitchSimError, SearchFailed,"),
                        ("except SearchFailed as exc:\n        summary[",
                         "except GlitchSimError as exc:\n        summary["),
                        ('summary["error"] = exc.summary',
                         'summary["error"] = getattr(exc, "summary", None)'),
                        ("or ())) + exc.trials_used",
                         'or ())) + getattr(exc, "trials_used", 0)')],
        ("tests/test_campaign.py",)),
    "campaign frame drops the failed step's trials": (
        "campaign.py", [("or ())) + exc.trials_used", "or ()))")],
        ("tests/test_campaign.py",)),
    "campaign frame persists no trial file on a failed step": (
        "campaign.py", [("_persist(out_dir, blocks, summary)\n        raise",
                         "_persist(out_dir, None, summary)\n        raise")],
        ("tests/test_campaign.py",)),
    "parse skips unknown keys": (
        "errors.py", [('raise ValueError(f"unknown entry', 'continue  # (f"unknown entry')],
        PARSE_TESTS),
    "parse takes a JSON true as an int": (
        "errors.py", [("if type(value) is kind or", "if isinstance(value, kind) or")],
        PARSE_TESTS),
    "echo keeps None fields": (
        "errors.py", [("\n                if getattr(value, f.name) is not None}", "}")],
        ("tests/test_golden.py",)),
    "chain merges at offset 1": (
        "chain.py", [("if offset == 0 and windows:", "if offset <= 1 and windows:")],
        ("tests/test_chain.py",)),
    "chain takes a zero width": (
        "chain.py", [('check_type(int, "unit width", w) < 1:',
                      'check_type(int, "unit width", w) < 0:')],
        ("tests/test_chain.py",)),
    "chain takes a negative offset": (
        "chain.py", [('check_type(int, "unit offset", o) < 0:',
                      'check_type(int, "unit offset", o) < -1:')],
        ("tests/test_chain.py",)),
    "pick earliest first": (
        "search.py", [("key=lambda ow: (ow[1], ow[0])", "key=lambda ow: (ow[0], ow[1])")],
        ("tests/test_search.py::TestSweep",)),
    "sweep takes a non-cooperative scenario": (
        "search.py", [("if not scenario.cooperative:", "if False:  # no check")],
        ("tests/test_search.py::TestSweep",)),
    "rebase lets the first fault start before the trigger": (
        "search.py", [("if new_first < 0:", "if new_first < -1:")],
        ("tests/test_search.py::TestTransfer",)),
    "hits on a strict subset": (
        "scenarios.py", [("self.target_indices[t.label] <= skipped",
                          "self.target_indices[t.label] < skipped")],
        ("tests/test_scenarios.py",)),
}

# Mutants no test can kill, with the reason; they are not run.
EQUIVALENT = {
    "window overlap guard >=": (
        "dut.py: `if end > ins_start` -> `>=`.  When the window ends at the "
        "instruction's start tick, min(end, ins_end) - max(start, ins_start) "
        "is 0 as well, and a zero overlap adds no entry either way."),
    "writer slice of 1 023 lines": (
        "campaign.py: `_LINES = 1024` -> `1023`.  The slice size only sets "
        "how many lines one write call takes; the file holds the same lines "
        "in the same order.  It survives tests/test_persistence.py, "
        "test_campaign.py, test_golden.py and test_cli.py."),
}


def run(path: str, edits, tests) -> tuple[int, float]:
    """(pytest exit status, seconds) of ``tests`` on a copy of src/ with
    ``edits`` made to ``path``: 0 when they pass, 1 when a test fails,
    and (2, 0.0), with no run, when an edit's text is not there once."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "glitchsim" / path
        text = target.read_text()
        for old, new in edits:
            if text.count(old) != 1:  # a stale mutant: its run is broken
                print(f"mutants: {old!r} occurs {text.count(old)} times "
                      f"in {path}, not once", file=sys.stderr, flush=True)
                return 2, 0.0
            text = text.replace(old, new)
        target.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
        return proc.returncode, perf_counter() - t0


def main(names) -> int:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        sys.exit(f"mutants: no mutant named {', '.join(map(repr, unknown))}")
    names = names or list(MUTANTS)
    tests = sorted({test for name in names for test in MUTANTS[name][2]})
    status, seconds = run("__init__.py", [], tests)  # no edits: the unmutated copy
    print(f"unmutated {seconds:5.1f} s  pytest exit {status}", flush=True)
    if status != 0:
        return 2
    survivors, broken = [], []
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        runs = pool.map(lambda name: run(*MUTANTS[name]), names)
        for name, (status, seconds) in zip(names, runs):
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"exit {status}")
            print(f"{verdict:9} {seconds:5.1f} s  {name}", flush=True)
            if status == 0:
                survivors.append(name)
            elif status != 1:
                broken.append(name)
    for name, reason in EQUIVALENT.items():
        print(f"equivalent, not run: {name}: {reason}")
    if broken:
        print(f"{len(broken)} mutant run(s) ended in no test failure: {', '.join(broken)}")
        return 2
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
