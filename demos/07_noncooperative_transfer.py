"""Transferring parameters from a cooperative to a non-cooperative setup.

In a cooperative setup the target firmware asserts the trigger itself
and per-target partial success functions exist, so the cheap sweeping
flow works.  A real victim does neither: the trigger is the reset line
and only the final success is observable.  As long as the distance
between the fault targets is unchanged, only the first fault's offset
must be rebased -- every later fault is timed off its predecessor.
"""

from glitchsim import (ClockDomains, SimContext, deterministic_model,
                       load_scenario, nominal_combo, run_trials,
                       transfer_parameters)

domains = ClockDomains(oversampling=20)
ctx = SimContext(domains=domains, model=deterministic_model())

coop = load_scenario("dup_registers_coop")
noncoop = load_scenario("dup_registers_noncoop")  # same stream, later boot

combo = tuple(nominal_combo(coop, domains))
print(f"cooperative combo (relative ticks):     {list(combo)}")

moved = transfer_parameters(coop, combo, noncoop, domains)
print(f"transferred combo (trigger at reset):   {list(moved)}")
shift = moved[0][0] - combo[0][0]
print(f"only the first offset moved, by {shift} ticks "
      f"({shift // domains.oversampling} boot cycles)\n")

block = run_trials(noncoop, moved, 1000, ctx, "verify", 99)
rate = block.successes / len(block)
print(f"success rate on the non-cooperative target: {rate:.3f}")
