"""Deterministic seed derivation and the per-trial draws.

Every trial in a campaign gets its own 64-bit seed derived from the
master seed, a step identifier and the trial index.  The derivation is
pure integer arithmetic (splitmix64), so a trial's seed depends on its
index alone, never on the order trials run in.

A trial's random draws are counter-based: draw slot k of the trial at
seed s is the (k+1)-th output of a splitmix64 stream started at s, so
any slot can be read without the ones before it (Salmon et al., SC'11).
:func:`slot` states the rule; :func:`draw_key` and :func:`stall_draws`
make a trial's draws by it, each in one inlined pass.
"""

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15

# Version of the draw scheme recorded in every summary.json: 2 is the
# counter-based slots below (1 was a random.Random stream per trial).
RNG_SCHEME = 2

# A slot value m is uniform on [0, 2**53); m < p * SLOT_ONE is u < p for
# u = m / 2**53, exactly.
SLOT_ONE = float(1 << 53)


def _splitmix64(x: int) -> int:
    x = (x + _GAMMA) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def slot(seed: int, k: int) -> int:
    """Draw slot k of the trial at ``seed``: the top 53 bits of the
    splitmix64 output mix of (seed + (k+1)·γ) mod 2**64 (``_splitmix64``
    adds one γ itself)."""
    return _splitmix64((seed + k * _GAMMA) & _MASK) >> 11


def slot_offset(k: int) -> int:
    """What slot k adds to the seed: (k+1)·γ mod 2**64."""
    return ((k + 1) * _GAMMA) & _MASK


def draw_key(seed: int, draws) -> int:
    """Make every draw of ``draws``, (slot offset, threshold) pairs, for
    the trial at ``seed``: bit j of the key is set when draw j's slot value
    m is below its threshold.  A threshold p * SLOT_ONE makes the bit the
    draw u < p.  Same as ``slot``, without a call per draw."""
    key = 0
    bit = 1
    for offset, threshold in draws:
        x = (seed + offset) & _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        if (x ^ (x >> 31)) >> 11 < threshold:
            key |= bit
        bit <<= 1
    return key


def stall_draws(seed: int, k: int, n: int, span: int) -> tuple[int, ...]:
    """(m·span) >> 53, a uniform integer in [0, span), for each slot
    k..k+n-1 of the trial at ``seed``, in the inlined pass of
    :func:`draw_key`."""
    stalls = []
    z = (seed + k * _GAMMA) & _MASK
    for _ in range(n):
        z += _GAMMA
        x = z & _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        stalls.append((((x ^ (x >> 31)) >> 11) * span) >> 53)
    return tuple(stalls)


def mix64(*parts: int) -> int:
    """Combine integers into one well-mixed 64-bit seed."""
    h = 0x243F6A8885A308D3
    for p in parts:
        h = _splitmix64((h ^ (p & _MASK)) & _MASK)
    return h
