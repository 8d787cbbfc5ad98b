"""Deterministic 64-bit PRNG used by the synthetic dataset generator.

The generator must produce identical streams on every platform and in every
language an instance file might be regenerated from, so the platform RNG is
off limits.  We use SplitMix64 (Steele, Lea & Flood; the stream-seeding
generator from the xorshift/xoshiro family), which is fully specified by a
handful of integer operations on 64-bit words:

    state += 0x9E3779B97F4A7C15            (all arithmetic mod 2**64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Reference vectors (first outputs for seed 0, frozen in tests/test_rng.py):

    0xE220A8397B1DCDAF  0x6E789E6AA1B965F4  0x06C45D188009454F

Derived draws (``below``, ``sample``) are defined here, not inherited from
any library, so they are part of the cross-platform contract too.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream with unbiased bounded draws and subset sampling."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), for 1 <= bound <= 2**64, via
        rejection of the biased tail."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        if bound > _MASK64 + 1:
            raise ValueError(f"bound must be at most 2**64, got {bound}")
        # Largest multiple of `bound` that fits in 64 bits; draws at or above
        # it would wrap unevenly under the modulo, so they are rejected.
        limit = ((_MASK64 + 1) // bound) * bound
        while True:
            z = self.next_u64()
            if z < limit:
                return z % bound

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.below(hi - lo + 1)

    def sample(self, n: int, size: int) -> tuple[int, ...]:
        """`size` distinct integers from [0, n), as a sorted tuple.

        Partial Fisher-Yates over [0, n); the swap sequence, and therefore
        the result, is fully determined by the stream position.  Only the
        displaced entries of the virtual array are kept: ``moved[j]`` is the
        value at position j, which is j itself when absent.
        """
        if not 0 <= size <= n:
            raise ValueError(f"cannot sample {size} items from range of {n}")
        moved: dict[int, int] = {}
        picked = []
        for i in range(size):
            j = i + self.below(n - i)
            picked.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return tuple(sorted(picked))
