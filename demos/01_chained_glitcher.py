"""Chained fault units: how relative parameters become fault windows.

The glitcher is a chain of single fault units.  The first arms on the
external trigger; each later unit arms when its predecessor's window
ends.  This demo shows the offset/width arithmetic, window merging, and
one wide fault split into narrower ones as a chain of units.
"""

from glitchsim import ClockDomains, simulate_chain, ticks_from_ns, translate_to_relative
from glitchsim.campaign import BOD_SPLIT_NS, BOD_WIDE_NS

domains = ClockDomains(oversampling=20, dut_period_ns=100)
print(f"tick period: {domains.tick_period_ns} ns "
      f"({domains.oversampling} ticks per DUT cycle)\n")

# Two faults placed absolutely at ticks 100 and 200, then translated to
# the relative frame the hardware consumes (offset from predecessor end).
absolute = [(100, 5), (200, 7)]
relative = translate_to_relative(absolute)
print(f"absolute (offset, width): {absolute}")
print(f"relative (offset, width): {relative}")

windows, done = simulate_chain(relative, trigger_tick=0)
print(f"chain output windows:     {windows}, done at tick {done}\n")

# Back-to-back faults merge at the crowbar: the output is electrically
# OR-combined, so touching windows are indistinguishable from one.
merged, _ = simulate_chain(((0, 4), (0, 4)), trigger_tick=5)
print(f"two back-to-back 4-tick faults from tick 5 merge into: {merged}")

# A shorter chain is fewer units: firing only the first one.
print(f"chain shortened to 1 unit: {simulate_chain(relative[:1], 0)[0]}\n")

# Splitting a 400 ns fault into 170 ns + 140 ns with a 100 ns gap (the
# shape that evades a sampling brown-out detector, see demo 06) is a
# chain of two units in place of one: each (offset, width) in ns becomes
# ticks, and the chain fires both from the trigger.
for name, units_ns in (("400 ns fault", BOD_WIDE_NS), ("split", BOD_SPLIT_NS)):
    units = tuple((ticks_from_ns(domains, o), ticks_from_ns(domains, w))
                  for o, w in units_ns)
    print(f"{name}: units {units_ns} ns = {units} ticks")
    print(f"  fires windows {simulate_chain(units, 0)[0]}")
