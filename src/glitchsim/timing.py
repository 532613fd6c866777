"""Clock-domain arithmetic and fault-window representation.

Ticks are the universal time unit throughout the library; nanoseconds
only appear at the configuration boundary.  One DUT cycle spans
``oversampling`` framework ticks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import EmptySplit

Rational = Union[int, float, Fraction, str]


def _as_fraction(value: Rational) -> Fraction:
    # Floats go through their repr so "100.1" means the decimal, not the
    # nearest binary double.
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(value)


@dataclass(frozen=True)
class ClockDomains:
    """Framework tick clock vs DUT instruction clock."""

    oversampling: int
    dut_period_ns: Rational = 100

    def __post_init__(self):
        if self.oversampling < 1:
            raise ValueError("oversampling must be >= 1")
        object.__setattr__(self, "dut_period_ns", _as_fraction(self.dut_period_ns))
        if self.dut_period_ns <= 0:
            raise ValueError("dut_period_ns must be positive")

    @property
    def tick_period_ns(self) -> Fraction:
        return self.dut_period_ns / self.oversampling


@dataclass(frozen=True)
class FaultSpec:
    """One voltage fault window in ticks, offset from the trigger tick."""

    offset: int
    width: int

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("offset must be non-negative")
        if self.width < 1:
            raise ValueError("width must be >= 1")

    @property
    def end(self) -> int:
        """End tick (exclusive)."""
        return self.offset + self.width


def ticks_from_ns(domains: ClockDomains, duration_ns: Rational) -> int:
    """Convert a duration to ticks, rounding half up.

    Round-half-up is fixed (rather than banker's rounding) so converted
    configurations are bit-reproducible across platforms.
    """
    duration = _as_fraction(duration_ns)
    if duration < 0:
        raise ValueError("duration_ns must be non-negative")
    ratio = duration / domains.tick_period_ns
    return int(ratio + Fraction(1, 2))  # floor(x + 1/2) == round half up


def split_fault(fault: FaultSpec, widths, gaps) -> list[FaultSpec]:
    """Split one absolute fault into several narrower absolute faults.

    The first sub-fault keeps the original offset; sub-fault ``i+1``
    starts ``gaps[i]`` ticks after sub-fault ``i`` ends.  Widths are
    copied verbatim; no equivalence heuristic is applied.
    """
    widths = list(widths)
    gaps = list(gaps)
    if not widths:
        raise EmptySplit("cannot split a fault into zero sub-faults")
    if len(gaps) != len(widths) - 1:
        raise ValueError("need exactly len(widths) - 1 gaps")
    if any(w < 1 for w in widths):
        raise ValueError("sub-fault widths must be >= 1")
    if any(g < 0 for g in gaps):
        raise ValueError("gaps must be non-negative")

    out = []
    start = fault.offset
    for i, width in enumerate(widths):
        out.append(FaultSpec(start, width))
        start += width
        if i < len(gaps):
            start += gaps[i]
    return out
