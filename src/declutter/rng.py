"""Seedable, portable pseudo-random number generator.

All randomness in the simulator flows through :class:`SplitMix64`, a 64-bit
generator with a tiny published reference algorithm (SplitMix).  The state
advances by the golden-ratio increment and each output is the state passed
through a three-round mixing finalizer::

    state  = (state + 0x9E3779B97F4A7C15) mod 2**64
    z      = state
    z      = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z      = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output = z ^ (z >> 31)

Floats in [0, 1) take the top 53 bits: ``(output >> 11) * 2**-53``.  The
algorithm is spelled out so that scene files can be regenerated bit-for-bit
from their seed by an implementation in any language.
"""

from __future__ import annotations

from functools import lru_cache

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        return _mix(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    # ``uniform`` inlines ``random``, ``next_u64`` and ``_mix``: the calls are
    # most of a draw's cost, and scene generation draws only through it.
    def uniform(self, lo: float, hi: float) -> float:
        z = self._state = (self._state + _GOLDEN) & MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return lo + (hi - lo) * (((z ^ (z >> 31)) >> 11) * 2.0**-53)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n).

        Uses simple modulo reduction; the bias is below 2**-32 for any n
        used here and the result is reproducible across platforms.
        """
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        return self.next_u64() % n


@lru_cache(maxsize=256)  # seed parts are a few names, hashed for every scene and trial
def fnv1a64(text: str) -> int:
    """FNV-1a hash of the UTF-8 encoding of ``text``."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & MASK64
    return h


def check_seed(seed: int, what: str, error: type[ValueError] = ValueError) -> int:
    """``seed`` when in [0, 2^64), else ``error`` naming ``what``: streams
    read a seed modulo 2^64, so one from outside that range runs as another."""
    if not 0 <= seed <= MASK64:
        raise error(f"{what} must be in [0, 2^64)")
    return seed


def derive_seed(base: int, *parts: int | str) -> int:
    """Derive a child seed as a pure function of ``base`` and ``parts``.

    Independent streams (one per scene, one per trial) are derived so that
    adding a policy or a scene to an experiment never perturbs the seeds of
    existing trials.
    """
    state = _mix(base & MASK64)
    for part in parts:
        value = fnv1a64(part) if isinstance(part, str) else part & MASK64
        state = _mix(state ^ value)
    return state
