"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from tracer import Tracer  # noqa: E402

run.import_glitchsim()

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# The layers each workload must reach; every other layer is predicted to
# be bypassed, so its activity metric must read exactly zero.
CALLED = {
    "flow_dup": {
        "dut.execute_trial", "search.run_chain_trial", "chain.simulate_chain",
        "scenarios.classify", "seeding.mix64", "search.run_trials",
        "campaign.write_results", "campaign.results_to_report",
        "campaign.write_summary", "search.sweep", "search.integrate",
        "search.evaluate_repeatability",
    },
    "exhaustive_tzm4": {
        "dut.execute_trial", "search.exhaustive_search", "campaign.write_summary",
    },
    "countermeasure_dup": {
        "dut.apply_random_delays", "dut.execute_trial", "search.run_chain_trial",
        "chain.simulate_chain", "scenarios.classify", "seeding.mix64",
        "search.run_trials",
    },
}
# Metric that reads zero exactly when a layer is never called.
ACTIVITY_SUFFIXES = (".calls", ".trials", ".s")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _nested_module(clock):
    """outer() spends 2 + 1 ticks itself around two inner() calls of 3."""
    mod = types.ModuleType("fake_layers")

    def inner():
        clock.now += 3

    def outer():
        clock.now += 2
        mod.inner()
        mod.inner()
        clock.now += 1

    mod.inner, mod.outer = inner, outer
    return mod


def test_self_time_of_nested_calls(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_mod, "perf_counter", clock)
    mod = _nested_module(clock)
    t = Tracer()
    t.add(mod, "outer", "outer", span=True)
    t.add(mod, "inner", "inner")
    with t.installed():
        mod.outer()
    table = t.table()
    assert table[("outer", None)] == [1, 9.0, 3.0]
    assert table[("inner", "outer")] == [2, 6.0, 6.0]
    assert t.spans == [("outer", 0.0, 9.0, None, threading.get_ident())]


def test_parents_and_counts_stay_per_thread():
    mod = _nested_module(FakeClock())
    t = Tracer()
    t.add(mod, "outer", "outer")
    t.add(mod, "inner", "inner")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with t.installed(), ThreadPoolExecutor(max_workers=4) as ex:
            futures = [ex.submit(lambda: [mod.outer() for _ in range(200)])
                       for _ in range(8)]
            for fut in futures:
                fut.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    table = t.table()
    assert set(table) == {("outer", None), ("inner", "outer")}
    assert table[("outer", None)][0] == 1600
    assert table[("inner", "outer")][0] == 3200


def test_wrapped_names_are_restored():
    import glitchsim.campaign as campaign
    import glitchsim.search as search

    before = {(m, a): getattr(m, a) for m in (search, campaign) for a in dir(m)}
    t = run.make_tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            assert search.execute_trial is not before[(search, "execute_trial")]
            assert search.execute_trial.__wrapped__ is before[(search, "execute_trial")]
            raise RuntimeError("body fails")
    after = {(m, a): getattr(m, a) for m in (search, campaign) for a in dir(m)}
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


@pytest.fixture(scope="module")
def tiny_runs():
    """Every workload once untraced and once traced, at a tiny size."""
    return {(w["name"], trace): run.run(w["name"], seed=99, seconds=0, trace=trace,
                                        scale=0.02, setup_repeats=1)
            for w in SPEC["workloads"] for trace in (False, True)}


def test_tiny_runs_emit_every_named_metric(tiny_runs):
    for (workload, trace), record in tiny_runs.items():
        result = record["result"]
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in wanted}, workload
        for m in wanted:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 2


def test_call_counts_are_zero_exactly_where_predicted(tiny_runs):
    for workload, called in CALLED.items():
        metrics = tiny_runs[(workload, True)]["result"]["metrics"]
        for name, metric in metrics.items():
            layer, _, _ = name.rpartition(".")
            if not name.endswith(ACTIVITY_SUFFIXES):
                continue
            if layer in called:
                assert metric["value"] > 0, (workload, name)
            else:
                assert metric["value"] == 0, (workload, name)
