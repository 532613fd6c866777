"""Tick-accurate model of the chained multi-fault glitcher.

A chain is an ordered list of single fault units.  The first unit is
armed by the external trigger; each later unit is armed by the done
signal of its predecessor, which coincides with the tick its fault
window ends (zero-latency chaining).  The crowbar output is the OR of
all unit outputs, so touching or overlapping windows merge.

``chain_windows`` is the one closed form: the exhaustive walk calls it
per live child, every other trial through ``simulate_chain``, which
validates a :class:`ChainConfig` first.  Offsets are never negative, so
the OR-merge reduces to joining a window onto its predecessor when its
offset is 0.  ``simulate_chain_stepped`` drives actual per-tick unit
state machines as an independent cross-check of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import EmptyChain, check_type

Window = tuple[int, int]  # [start_tick, end_tick)


@dataclass(frozen=True)
class ChainConfig:
    """Demux state of the glitcher: one (offset, width) per chained unit;
    the chain's length is the number of units.

    Unit offsets are relative-frame values (ticks from the predecessor's
    done signal; the first unit counts from the trigger).
    """

    units: tuple[tuple[int, int], ...]  # (offset, width) per unit

    def __post_init__(self):
        units = tuple((o, w) for o, w in self.units)
        object.__setattr__(self, "units", units)
        for o, w in units:
            if check_type(int, "unit offset", o) < 0:
                raise ValueError("unit offsets must be non-negative")
            if check_type(int, "unit width", w) < 1:
                raise ValueError("unit widths must be >= 1")


def merge_windows(windows) -> list[Window]:
    """OR-combine windows into disjoint maximal intervals."""
    merged: list[list[int]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


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


def _check_firing(cfg: ChainConfig, trigger_tick: int) -> None:
    if not cfg.units:
        raise EmptyChain("a chain needs at least one fault unit")
    if trigger_tick < 0:
        raise ValueError("trigger_tick must be non-negative")


def simulate_chain(cfg: ChainConfig, trigger_tick: int) -> tuple[list[Window], int]:
    """Return the crowbar windows and the done tick for one trigger."""
    _check_firing(cfg, trigger_tick)
    return chain_windows(cfg.units, trigger_tick)


class SfuPhase(Enum):
    IDLE = "idle"
    COUNTING_OFFSET = "counting_offset"
    ASSERTING = "asserting"
    DONE = "done"


class SingleFaultUnit:
    """Per-tick counter machine producing one fault window per trigger."""

    def __init__(self, offset: int, width: int):
        self.offset = offset
        self.width = width
        self.phase = SfuPhase.IDLE
        self.remaining = 0

    def step(self, trigger: bool) -> tuple[bool, bool]:
        """Advance one tick; returns (fault_out, done_pulse)."""
        if self.phase is SfuPhase.IDLE and trigger:
            self.phase = SfuPhase.COUNTING_OFFSET
            self.remaining = self.offset

        if self.phase is SfuPhase.COUNTING_OFFSET:
            if self.remaining > 0:
                self.remaining -= 1
                return False, False
            self.phase = SfuPhase.ASSERTING
            self.remaining = self.width

        if self.phase is SfuPhase.ASSERTING:
            self.remaining -= 1
            if self.remaining == 0:
                # Done pulses on the final asserting tick; the successor
                # arms on the next tick, giving zero-latency chaining.
                self.phase = SfuPhase.DONE
                return True, True
            return True, False

        return False, False


def simulate_chain_stepped(cfg: ChainConfig, trigger_tick: int) -> tuple[list[Window], int]:
    """Reference implementation driving real unit state machines."""
    _check_firing(cfg, trigger_tick)

    units = [SingleFaultUnit(o, w) for o, w in cfg.units]
    horizon = trigger_tick + sum(o + w for o, w in cfg.units) + 1

    windows = []
    open_start = None
    done_tick = trigger_tick
    pending_trigger = [False] * len(units)
    for tick in range(trigger_tick, horizon + 1):
        fault_now = False
        # Snapshot the done pulses from the previous tick so a successor
        # arms on the tick *after* its predecessor finishes.
        fired, pending_trigger = pending_trigger, [False] * len(units)
        for i, unit in enumerate(units):
            trig = (tick == trigger_tick) if i == 0 else fired[i]
            out, done = unit.step(trig)
            fault_now = fault_now or out
            if done:
                if i + 1 < len(units):
                    pending_trigger[i + 1] = True
                else:
                    done_tick = tick + 1  # window end tick (exclusive)
        if fault_now and open_start is None:
            open_start = tick
        elif not fault_now and open_start is not None:
            windows.append((open_start, tick))
            open_start = None
    if open_start is not None:
        windows.append((open_start, horizon + 1))
    return windows, done_tick
