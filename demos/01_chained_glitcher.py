"""Chained fault units: how relative parameters become fault windows.

The glitcher is a chain of single fault units.  The first arms on the
external trigger; each later unit arms when its predecessor's window
ends.  This demo shows the offset/width arithmetic, window merging, and
splitting one wide fault into narrower ones.
"""

from glitchsim import (ChainConfig, ClockDomains, FaultSpec, simulate_chain,
                       split_fault, ticks_from_ns, translate_to_relative)

domains = ClockDomains(oversampling=20, dut_period_ns=100)
print(f"tick period: {domains.tick_period_ns} ns "
      f"({domains.oversampling} ticks per DUT cycle)\n")

# Two faults placed absolutely at ticks 100 and 200, then translated to
# the relative frame the hardware consumes (offset from predecessor end).
absolute = [(100, 5), (200, 7)]
relative = translate_to_relative(absolute)
print(f"absolute (offset, width): {absolute}")
print(f"relative (offset, width): {relative}")

cfg = ChainConfig(tuple(relative))
windows, done = simulate_chain(cfg, trigger_tick=0)
print(f"chain output windows:     {windows}, done at tick {done}\n")

# Back-to-back faults merge at the crowbar: the output is electrically
# OR-combined, so touching windows are indistinguishable from one.
merged, _ = simulate_chain(ChainConfig(((0, 4), (0, 4))), trigger_tick=5)
print(f"two back-to-back 4-tick faults from tick 5 merge into: {merged}")

# A shorter chain is fewer units: firing only the first one.
short = ChainConfig(cfg.units[:1])
print(f"chain shortened to 1 unit: {simulate_chain(short, 0)[0]}\n")

# Splitting a 400 ns fault into 170 ns + 140 ns with a 100 ns gap
# (the shape that evades a sampling brown-out detector, see demo 06).
wide = FaultSpec(0, ticks_from_ns(domains, 400))
parts = split_fault(
    wide,
    widths=[ticks_from_ns(domains, 170), ticks_from_ns(domains, 140)],
    gaps=[ticks_from_ns(domains, 100)],
)
print(f"400 ns fault: {(wide.offset, wide.width)} ticks")
print(f"split into:   {[(p.offset, p.width) for p in parts]} ticks")
