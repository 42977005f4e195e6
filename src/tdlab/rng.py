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
exactly the floats of SplitMix64(seeds[i]), call for call. The state
after j calls is seed + j * GOLDEN_GAMMA mod 2**64, so m calls' worth of
draws for every row is one counter pass over an (m, rows) array, and a
chain's draw batch (chain_draws) takes a few numpy passes however many
steps it covers.
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
    """f applied per element through Python floats, one at a time: a
    memoryview yields each element as a float, and no list of them is built."""
    return np.fromiter(map(f, memoryview(x.reshape(-1))), np.float64, x.size).reshape(x.shape)


def _mix_in_place(x: np.ndarray, shifted: np.ndarray) -> None:
    """mix64 on a uint64 array, in place (uint64 array arithmetic wraps mod
    2**64), with shifted as scratch space of x's shape."""
    for shift, mul in ((30, _MIX_MUL_1), (27, _MIX_MUL_2)):
        x ^= np.right_shift(x, shift, out=shifted)
        x *= np.uint64(mul)
    x ^= np.right_shift(x, 31, out=shifted)


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

    def _calls(self, calls: np.ndarray) -> np.ndarray:
        """(len(calls), rows) array: row j the floats of each stream's
        calls[j]-th random() call from now (1 for the next; calls is a
        uint64 array), drawn without advancing the streams."""
        x = self._state + calls[:, None] * np.uint64(GOLDEN_GAMMA)  # wraps mod 2**64
        u = np.empty(x.shape)
        _mix_in_place(x, u.view(np.uint64))
        return np.multiply(np.right_shift(x, np.uint64(11), out=x), 2.0**-53, out=u)

    def _advance(self, m: int) -> None:
        """Move every stream on by m calls: state + m * gamma, mod 2**64."""
        self._state = self._state + np.uint64(m * GOLDEN_GAMMA & _MASK64)

    def uniforms(self, m: int) -> np.ndarray:
        """(m, rows) array: m calls of random(), row j the j-th call's floats."""
        u = self._calls(np.arange(1, m + 1, dtype=np.uint64))
        self._advance(m)
        return u

    def random(self) -> np.ndarray:
        """Uniform floats in [0, 1) with 53 random bits, one per row."""
        return self.uniforms(1)[0]

    def chain_draws(self, steps: int, normals: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """What `steps` rounds of random(), then normal() when normals, draw:
        (steps, rows) arrays of the uniforms and the standard normals (None
        without normals), call for call as SplitMix64 draws them per row.

        A round that finds no Box-Muller spare draws its uniform, then the
        pair (u1, u2), keeps r sin(a) as the spare and returns r cos(a); the
        next round draws its uniform and returns the spare. The spare is
        carried from call to call. Each kind of draw is computed at its own
        call numbers, so no array of all the batch's draws is made.
        """
        if not normals:
            return self.uniforms(steps), None
        held = 0 if self._spare_normal is None else 1
        # round c's uniform (c = 1..steps) follows the c - 1 earlier rounds'
        # uniforms and the two calls of each earlier pair, (c - held) // 2 pairs
        calls = np.arange(1, steps + 1, dtype=np.uint64)
        calls += (calls - held) // 2 * 2
        u = self._calls(calls)
        pair = calls[held::2]  # the rounds that draw (u1, u2), right after their uniform
        # 1 - u1 in (0, 1] keeps log finite; sqrt is exactly rounded in numpy and math alike
        r = np.sqrt(-2.0 * _each(math.log, 1.0 - self._calls(pair + 1)))
        a = 2.0 * math.pi * self._calls(pair + 2)
        self._advance(steps + 2 * len(pair))
        z = np.empty((held + 2 * len(pair), len(self)))
        if held:
            z[0] = self._spare_normal
        np.multiply(r, _each(math.cos, a), out=z[held::2])
        np.multiply(r, _each(math.sin, a), out=z[held + 1 :: 2])
        self._spare_normal = z[steps].copy() if z.shape[0] > steps else None
        return u, z[:steps]
