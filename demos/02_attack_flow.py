"""The full multi-fault search flow, step by step.

sweep (single fault, per-target partial success functions)
  -> translate (absolute offsets -> chain-relative offsets)
  -> fuzzyfy (widen each relative offset by +-psi ticks)
  -> integrate (exhaustive search over the fuzzy intervals, all faults)
  -> evaluate (rank survivors by repeatability)

Run on the duplicate-register scenario with the noise model calibrated
to the measured two-fault success rate.
"""

from glitchsim import (ClockDomains, SearchConfig, SimContext, dup_register_model,
                       evaluate_repeatability, fuzzyfy, integrate, load_scenario,
                       sweep, translate_to_relative)

scenario = load_scenario("dup_registers_7_43")
domains = ClockDomains(oversampling=20)
ctx = SimContext(domains=domains, model=dup_register_model())
# The grid (ticks) and each step's budget.
config = SearchConfig(offset_min=0, offset_max=1200, stride=20, width_set=(20,),
                      integrate_trials=20, n_rank=1000, n_final=100_000)

print(f"scenario: {scenario.name}")
print(f"targets:  {[t.label for t in scenario.targets]}\n")

# Step 1: sweep one fault across the space, recording which target each
# (offset, width) hits.  The overall success function plays no role yet.
sw = sweep(scenario, config, ctx, seed=1)
print(f"sweep: {sw.trials_used} trials")
for label, entries in sw.entries.items():
    print(f"  {label}: absolute params {list(entries)}")

# Step 2: pick one representative per target and translate to the
# relative frame (R_0 = A_0; R_n = A_n - (A_n-1 + W_n-1)).
picked = sorted((sw.pick(t.label) for t in scenario.targets))
relative = translate_to_relative(picked)
print(f"\npicked absolute: {picked}")
print(f"relative combo:  {relative}")

# Steps 3-4: widen each relative offset by +-psi ticks and search the
# product of the widened intervals with all faults firing at once.
fuzzy = fuzzyfy(relative, config.psi)
print(f"fuzzy intervals: {[(f.lo, f.hi) for f in fuzzy]}")
integ = integrate(scenario, fuzzy, config, ctx, seed=2)
print(f"integrate: {integ.trials_used} trials, "
      f"{len(integ.combos)} combo(s) with at least one success")

# Step 5: rank by success rate, then requalify the winner.
ev = evaluate_repeatability(scenario, [b.combo for b in integ.combos], config, ctx,
                            seed=3)
best = ev.best
print(f"\nbest combo {best.combo}: success rate {best.successes / len(best):.4f} "
      f"over {len(best)} trials")
print("per-prefix hit rates:",
      [round(c / len(best), 4) for c in best.prefix_successes])
