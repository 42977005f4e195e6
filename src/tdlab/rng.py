"""Seeded random number generation with published constants.

Every stochastic quantity in this package is drawn from a SplitMix64
stream so that a (parameters, seed) pair pins down an experiment exactly.
The state update and output mix use the standard SplitMix64 constants;
normal variates come from the Box-Muller transform. Exact stream equality
with other SplitMix64 implementations is not a goal, but the algorithm is
documented precisely so results can be reproduced from this description
alone.

SplitMix64Rows advances many streams at once on numpy uint64 state (the
sweep harness draws all of a chunk's chains this way); row i yields
exactly the floats of SplitMix64(seeds[i]), call for call.
"""

from __future__ import annotations

import math

import numpy as np

from .core import check_integer

_MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit mix.

    Also used to derive per-cell and per-run seeds in the sweep harness
    (documented there), so the constants above are part of the
    reproducibility contract.
    """
    x = x & _MASK64  # not in place: x may be a numpy uint64 array
    x ^= x >> 30
    x = (x * _MIX_MUL_1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX_MUL_2) & _MASK64
    x ^= x >> 31
    return x


class SplitMix64:
    """Deterministic 64-bit generator with a splittable stream."""

    __slots__ = ("_state", "_spare_normal")

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & _MASK64
        return mix64(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Normal variate via Box-Muller; the second deviate is cached."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
        else:
            u1 = 1.0 - self.random()  # (0, 1]: keeps log(u1) finite
            u2 = self.random()
            r = math.sqrt(-2.0 * math.log(u1))
            a = 2.0 * math.pi * u2
            z = r * math.cos(a)
            self._spare_normal = r * math.sin(a)
        return mean + std * z

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) via the multiply-shift reduction."""
        check_integer(n, "n", low=1)
        return (self.next_u64() * n) >> 64

    def sample_without_replacement(self, n: int, m: int) -> list[int]:
        """m distinct indices from range(n), in draw order (partial Fisher-Yates)."""
        check_integer(n, "n", low=0)
        check_integer(m, "m", 0, n)
        pool = list(range(n))
        for i in range(m):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:m]

    def split(self) -> "SplitMix64":
        """Independent child generator seeded from this stream."""
        return SplitMix64(self.next_u64())


def _each(f, x: np.ndarray) -> np.ndarray:
    """f applied per element through Python floats."""
    return np.fromiter(map(f, x.tolist()), np.float64, x.shape[0])


class SplitMix64Rows:
    """One SplitMix64 stream per seed, all advanced by the same calls.

    Seeds are integers, taken mod 2**64, or a uint64 array.

    Wrapping uint64 arithmetic makes `random` exact, and the Box-Muller
    log/cos/sin go through `math` element by element, because numpy's
    versions differ from it by one ulp on some inputs. Every row makes
    the same calls, so a pending Box-Muller spare is one state for all.
    """

    __slots__ = ("_state", "_spare_normal")

    def __init__(self, seeds):
        if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
            seeds = [s & _MASK64 for s in seeds]
        self._state = np.array(seeds, dtype=np.uint64)
        self._spare_normal: np.ndarray | None = None

    def __len__(self) -> int:
        return self._state.shape[0]

    def next_u64(self) -> np.ndarray:
        self._state = self._state + np.uint64(GOLDEN_GAMMA)  # wraps mod 2**64
        return mix64(self._state)

    def random(self) -> np.ndarray:
        return (self.next_u64() >> np.uint64(11)) * 2.0**-53

    def normal(self, mean=0.0, std: float = 1.0) -> np.ndarray:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
        else:
            u1 = 1.0 - self.random()
            u2 = self.random()
            r = np.sqrt(-2.0 * _each(math.log, u1))  # sqrt is exactly rounded either way
            a = 2.0 * math.pi * u2
            z = r * _each(math.cos, a)
            self._spare_normal = r * _each(math.sin, a)
        return mean + std * z
