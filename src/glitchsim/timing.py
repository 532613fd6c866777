"""Clock-domain arithmetic: the tick and nanosecond conversion.

Ticks are the universal time unit throughout the library; nanoseconds
only appear at the configuration boundary.  One DUT cycle spans
``oversampling`` framework ticks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

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

