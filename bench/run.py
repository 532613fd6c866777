"""glitchsim benchmark: host time of campaign calls, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload flow_dup --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop: one campaign call after
another, each with the same seed-derived inputs, until ``--seconds`` have
passed.  Every call's outputs are checked.  The last line of stdout is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``:

- ``--trace 0``: the end-to-end metrics ``trials_per_s`` (median over the
  calls, normalised to a nominal host speed), ``setup_s`` (median over
  fresh interpreters) and ``peak_rss_mib`` (this process).
- ``--trace 1``: untraced and traced calls alternate, and the metrics are
  the per-layer numbers of the traced calls (see bench/README.md).

A JSON record with metadata, per-call times and trace spans is written
to ``.bench-out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"
SETUP_REPEATS = 5

# Host-speed normalisation.  On a shared machine a core's speed drifts by
# +-20 % over minutes, which no run length averages out.  A fixed
# pure-Python loop is therefore timed right before and right after every
# campaign call, on as many threads as the campaign runs trials on, and
# trials_per_s is rescaled to a host on which that loop runs
# REF_NOMINAL_IPS iterations per second (a 2-core x86-64 box under
# CPython 3.11).  The raw rates go to the record file.  Set-up time is
# mostly imports and tracks the loop poorly, so it stays raw.
REF_ITERS = 300_000
REF_NOMINAL_IPS = 7.0e6

# Per-trial layers: wrapped where glitchsim.search looks them up.
PER_TRIAL = {
    "apply_random_delays": "dut.apply_random_delays",
    "execute_trial": "dut.execute_trial",
    "simulate_chain": "chain.simulate_chain",
    "classify": "scenarios.classify",
    "mix64": "seeding.mix64",
    "run_chain_trial": "search.run_chain_trial",
}
# Steps, judged by the share of trials with a useful outcome.
STEPS = {
    "sweep": ("search.sweep", ("partial_hit", "success")),
    "integrate": ("search.integrate", ("success",)),
    "evaluate_repeatability": ("search.evaluate_repeatability", ("success",)),
}
PERSIST = {
    "write_results": "campaign.write_results",
    "results_to_report": "campaign.results_to_report",
    "write_summary": "campaign.write_summary",
}


def import_glitchsim():
    """Import glitchsim from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import glitchsim
    except ImportError as exc:
        sys.exit(f"bench: cannot import glitchsim from {SRC}: {exc}")
    if SRC.resolve() not in Path(glitchsim.__file__).resolve().parents:
        sys.exit(f"bench: glitchsim imported from {glitchsim.__file__}, not {SRC}")


def reference_ips(threads: int = 1) -> float:
    """Iterations per second of the host-speed reference loop, run on
    ``threads`` threads at once."""
    def loop():
        d = {}
        for i in range(REF_ITERS):
            d[i & 255] = d.get(i & 127, 0) + i

    others = [threading.Thread(target=loop) for _ in range(threads - 1)]
    t0 = perf_counter()
    for t in others:
        t.start()
    loop()
    for t in others:
        t.join()
    return threads * REF_ITERS / (perf_counter() - t0)


def measure_setup(workload: str, seed: int, repeats: int) -> dict:
    """Seconds of set-up and of the import alone in ``repeats`` fresh
    interpreters, after one untimed warm-up so that byte-compilation is
    not counted."""
    setup = {"setup_s": [], "import_s": []}
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    for i in range(repeats + 1):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        if i:
            setup["setup_s"].append(elapsed)
            setup["import_s"].append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return setup


def make_tracer():
    import glitchsim.campaign as campaign
    import glitchsim.search as search
    from tracer import Tracer

    def trials_of(args, result, exc):
        return {"trials": len(result)} if result is not None else None

    def step_observer(useful_kinds):
        def observe(args, result, exc):
            src = result if result is not None else exc
            records = getattr(result, "records", ())
            return {"trials": getattr(src, "trials_used", 0),
                    "useful": sum(r.outcome.kind in useful_kinds for r in records)}
        return observe

    def bytes_written(args, result, exc):
        return {"bytes": os.path.getsize(args[1])}  # every persist call takes (data, path)

    tracer = Tracer()
    for attr, name in PER_TRIAL.items():
        tracer.add(search, attr, name)
    for module in (search, campaign):
        tracer.add(module, "run_trials", "search.run_trials", observe=trials_of)
    for attr, (name, useful) in STEPS.items():
        tracer.add(campaign, attr, name, span=True, observe=step_observer(useful))
    tracer.add(campaign, "exhaustive_search", "search.exhaustive_search", span=True,
               observe=step_observer(()))
    for attr, name in PERSIST.items():
        tracer.add(campaign, attr, name, span=True, observe=bytes_written)
    return tracer


def layer_metrics(tracer, n_calls: int) -> dict:
    """Per-layer metrics of ``n_calls`` traced campaign calls."""
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def per(a, b):
        return a / b if b else 0.0

    for name in PER_TRIAL.values():
        calls, _, self_s = tracer.layer(name)
        put(f"{name}.calls", calls / n_calls, "count")
        put(f"{name}.self_us", per(self_s, calls) * 1e6, "us")
    for name in ("search.exhaustive_search", "search.run_trials"):
        calls, _, self_s = tracer.layer(name)
        trials = tracer.counts.get(name, {}).get("trials", 0)
        put(f"{name}.calls", calls / n_calls, "count")
        put(f"{name}.self_us_per_trial", per(self_s, trials) * 1e6, "us")
    persist_bytes = 0
    for name in PERSIST.values():
        _, total, _ = tracer.layer(name)
        put(f"{name}.s", total / n_calls, "s")
        persist_bytes += tracer.counts.get(name, {}).get("bytes", 0)
    put("campaign.persist.bytes", persist_bytes / n_calls, "bytes")
    for name, _ in STEPS.values():
        _, total, _ = tracer.layer(name)
        counts = tracer.counts.get(name, {})
        trials = counts.get("trials", 0)
        put(f"{name}.s", total / n_calls, "s")
        put(f"{name}.trials", trials / n_calls, "count")
        put(f"{name}.success_frac", per(counts.get("useful", 0), trials), "fraction")
    return m


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


class Runner:
    """Closed loop of campaign calls on one workload, every call checked."""

    def __init__(self, workload, seed: int, work_dir: Path, scale: float = 1.0):
        self.workload = workload
        self.cfg = workload.config(seed, scale)
        self.work_dir = work_dir
        self.attempted = self.failed = 0
        self.digests: set[str] = set()

    def call(self) -> tuple[float, int, float]:
        """One checked campaign call; returns (host seconds, trials, host
        speed around the call in reference iterations per second)."""
        gc.collect()
        out = self.work_dir / f"call{self.attempted}"
        out.mkdir()
        self.attempted += 1
        try:
            before = reference_ips(self.cfg.jobs)
            res = self.workload.call(self.cfg, out)
            host_ips = (before + reference_ips(self.cfg.jobs)) / 2
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return 0.0, 0, 0.0
        finally:
            shutil.rmtree(out)
        if res.problems:
            self.failed += 1
            for problem in res.problems:
                print(f"check failed: {problem}", file=sys.stderr)
        self.digests.add(res.digest)
        return res.seconds, res.trials, host_ips

    @property
    def correct(self) -> bool:
        return self.failed == 0 and len(self.digests) == 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run the benchmark; returns the full record (the printed result is
    its ``result`` entry)."""
    import_glitchsim()
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    setup = measure_setup(workload_name, seed, setup_repeats)

    OUT.mkdir(exist_ok=True)
    tracer = make_tracer() if trace else None
    calls = {"untraced": [], "traced": []}  # (raw trials/s, host ips) per call
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        runner = Runner(workload, seed, Path(tmp), scale)
        runner.call()  # warm-up, checked but not timed
        start = perf_counter()
        while True:
            elapsed, trials, ips = runner.call()
            if elapsed:
                calls["untraced"].append((trials / elapsed, ips))
            if tracer is not None:
                with tracer.installed():
                    elapsed, trials, ips = runner.call()
                if elapsed:
                    calls["traced"].append((trials / elapsed, ips))
            if perf_counter() - start >= seconds:
                break

    rates = {kind: [rate * REF_NOMINAL_IPS / ips for rate, ips in rows] or [0.0]
             for kind, rows in calls.items()}
    q1, median, q3 = quartiles(rates["untraced"])
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        metrics = {
            "trials_per_s": {"value": median, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup["setup_s"]), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    else:
        metrics = layer_metrics(tracer, max(1, len(calls["traced"])))
        metrics["setup.import_s"] = {"value": statistics.median(setup["import_s"]),
                                     "unit": "s"}
        overhead = 1 - statistics.median(rates["traced"]) / median if median else 0.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}

    digest = next(iter(runner.digests)) if len(runner.digests) == 1 else None
    record = {
        "workload": workload_name,
        "seed": seed,
        "master_seed": runner.cfg.master_seed,
        "trace": int(trace),
        "trials_per_s_quartiles": [q1, median, q3],
        "timed_calls": len(calls["untraced"]),
        "calls_raw": calls,
        "setup": setup,
        "failed_frac": runner.failed / runner.attempted,
        "meta": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "src_lines": src_lines(),
            "summary_sha256": digest if digest else sorted(runner.digests),
        },
        "spans": tracer.spans if tracer is not None else [],
        "result": {
            "correct": runner.correct,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        },
    }
    out_file = OUT / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["flow_dup", "exhaustive_tzm4", "countermeasure_dup"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = record["result"]
    n = record["timed_calls"]
    q1, median, q3 = record["trials_per_s_quartiles"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"trials_per_s: median {median:.1f} 1/s (q1 {q1:.1f}, q3 {q3:.1f}, "
          f"{n} timed calls)")
    print(f"failed_frac: {record['failed_frac']} ({result['failed']} of "
          f"{result['attempted']} calls)")
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print("meta: " + json.dumps(record["meta"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
