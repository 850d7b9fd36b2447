"""Deterministic random number generation.

All randomness in this package flows through splitmix64 / xoshiro256**,
which are publicly specified bit-exact generators.  This guarantees that
shuffles, splits and bootstrap draws are reproducible across platforms
and Python versions, unlike library-specific shuffle implementations.
``bootstrap_draws`` and ``keyed_sample`` step many streams side by side
as numpy lanes, each drawing exactly what its scalar generator draws.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF


def _wrap(x):
    """x modulo 2**64: ints grow past 64 bits, while numpy uint64 arrays
    wrap by themselves and pass through unmasked."""
    return x & MASK64 if type(x) is int else x


def splitmix64_next(state):
    """Advance a splitmix64 state, returning (new_state, output); the
    state is an int, or a numpy uint64 array of states."""
    state = _wrap(state + 0x9E3779B97F4A7C15)
    z = _wrap((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9)
    z = _wrap((z ^ (z >> 27)) * 0x94D049BB133111EB)
    return state, z ^ (z >> 31)


def derive_seeds(master: int, n: int) -> list[int]:
    """Derive n independent 64-bit seeds from a master seed via splitmix64."""
    state = master & MASK64
    seeds = []
    for _ in range(n):
        state, out = splitmix64_next(state)
        seeds.append(out)
    return seeds


def _rotl(x, k: int):
    return _wrap((x << k) | (x >> (64 - k)))


def _xoshiro_next(s: list):
    """Advance a xoshiro256** state of four words in place and return its
    output; the words are ints, or numpy uint64 arrays of lanes."""
    result = _wrap(_rotl(_wrap(s[1] * 5), 7) * 9)
    t = _wrap(s[1] << 17)
    s[2] ^= s[0]
    s[3] ^= s[1]
    s[1] ^= s[2]
    s[0] ^= s[3]
    s[2] ^= t
    s[3] = _rotl(s[3], 45)
    return result


class Xoshiro256StarStar:
    """xoshiro256** generator, seeded from a 64-bit seed via splitmix64."""

    def __init__(self, seed: int):
        self.s = derive_seeds(seed, 4)

    def next_u64(self) -> int:
        return _xoshiro_next(self.s)

    def randbelow(self, n: int) -> int:
        """Unbiased draw from {0, ..., n-1} by rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        limit = (2**64 // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


def bootstrap_draws(seeds: list[int], n: int, count: int) -> np.ndarray:
    """The first ``count`` randbelow(n) draws of each seed's xoshiro256**,
    one row per seed: the four state words step as contiguous rows of lanes,
    and a lane that drew a rejected value is redrawn by Xoshiro256StarStar."""
    s = list(np.array([derive_seeds(x, 4) for x in seeds], dtype=np.uint64).T.copy())
    out = np.array([_xoshiro_next(s) for _ in range(count)]).T
    top = np.uint64(2**64 - 2**64 % n - 1)  # largest accepted; fits in uint64
    for i in np.flatnonzero((out > top).any(axis=1)):
        g = Xoshiro256StarStar(seeds[i])
        out[i] = np.array([g.randbelow(n) for _ in range(count)], dtype=np.uint64)
    return out % np.uint64(n)


def keyed_sample(keys: np.ndarray, n: int, k: int) -> np.ndarray:
    """k distinct indices from range(n) for each uint64 key, one row per
    key: a partial Fisher-Yates on the splitmix64 stream whose state
    starts at the key (rejecting as ``Xoshiro256StarStar.randbelow``
    does), so a draw depends on its key alone."""
    pool = np.tile(np.arange(n), (keys.size, 1))
    state, out, rows = keys.copy(), np.empty_like(keys), np.arange(keys.size)
    for i in range(k):
        top = np.uint64(2**64 - 2**64 % (n - i) - 1)
        redo = rows
        while redo.size:  # every key steps, then only the still-rejected ones
            state[redo], out[redo] = splitmix64_next(state[redo])
            redo = redo[out[redo] > top]
        j = i + (out % np.uint64(n - i)).astype(np.intp)
        pool[rows, i], pool[rows, j] = pool[rows, j], pool[rows, i]
    return pool[:, :k]
