"""Deterministic seed derivation.

Every trial in a campaign gets its own 64-bit seed derived from the
master seed, a step identifier and the trial index.  The derivation is
pure integer arithmetic (splitmix64), so a trial's seed depends on its
index alone, never on the order trials run in.
"""

_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def mix64(*parts: int) -> int:
    """Combine integers into one well-mixed 64-bit seed."""
    h = 0x243F6A8885A308D3
    for p in parts:
        h = _splitmix64((h ^ (p & _MASK)) & _MASK)
    return h
