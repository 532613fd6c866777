"""Tick-accurate model of the chained multi-fault glitcher.

A chain is its units: one (offset, width) pair per single fault unit.
The first unit is armed by the external trigger; each later unit is
armed by the done signal of its predecessor, which coincides with the
tick its fault window ends (zero-latency chaining).  An offset counts
ticks from the unit's arming.  The crowbar output is the OR of all unit
outputs, so touching or overlapping windows merge.

``chain_windows`` is the one closed form: the exhaustive walk calls it
per live child, every other trial through ``simulate_chain``, which
checks the units and the trigger first.  Offsets are never negative, so
the OR-merge reduces to joining a window onto its predecessor when its
offset is 0.  The per-tick unit state machines that cross-check this
closed form live in the test suite.
"""

from __future__ import annotations

from .errors import check_type

Window = tuple[int, int]  # [start_tick, end_tick)


def chain_windows(units, trigger_tick: int) -> tuple[list[Window], int]:
    """Crowbar windows and done tick of (offset, width) units chained
    from ``trigger_tick``; offsets must be >= 0 and widths >= 1."""
    windows: list[Window] = []
    end = trigger_tick
    for offset, width in units:
        start = end + offset
        end = start + width
        if offset == 0 and windows:  # touches its predecessor: OR-merge
            windows[-1] = (windows[-1][0], end)
        else:
            windows.append((start, end))
    return windows, end


def simulate_chain(units, trigger_tick: int) -> tuple[list[Window], int]:
    """Return the crowbar windows and the done tick of ``units`` fired at
    ``trigger_tick``, after checking both."""
    if not units:
        raise ValueError("a chain needs at least one fault unit")
    for o, w in units:
        if check_type(int, "unit offset", o) < 0:
            raise ValueError("unit offsets must be non-negative")
        if check_type(int, "unit width", w) < 1:
            raise ValueError("unit widths must be >= 1")
    if trigger_tick < 0:
        raise ValueError("trigger_tick must be non-negative")
    return chain_windows(units, trigger_tick)
