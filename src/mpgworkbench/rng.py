"""Deterministic random number generation.

All randomness in this package flows through splitmix64 / xoshiro256**,
which are publicly specified bit-exact generators.  This guarantees that
shuffles, splits and bootstrap draws are reproducible across platforms
and Python versions, unlike library-specific shuffle implementations.
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


class XoshiroLanes:
    """Independent xoshiro256** streams, one per seed, advanced side by
    side as numpy ``uint64`` lanes.  Lane i draws exactly what
    ``Xoshiro256StarStar(seeds[i])`` draws; each call advances only the
    lanes it names (an array of distinct lane indices)."""

    def __init__(self, seeds: list[int]):
        self.s = np.array([derive_seeds(seed, 4) for seed in seeds],
                          dtype=np.uint64).T.copy()  # (4, lanes)

    def next_u64(self, lanes: np.ndarray) -> np.ndarray:
        s = list(self.s[:, lanes])
        result = _xoshiro_next(s)
        self.s[:, lanes] = s
        return result

    def randbelow(self, n: int, lanes: np.ndarray) -> np.ndarray:
        """Unbiased draws from {0, ..., n-1} by rejection sampling."""
        return _below(n, lambda sel: self.next_u64(lanes[sel]), len(lanes))

    def randbelow_each(self, n: int, count: int) -> np.ndarray:
        """(lanes, count) array: ``count`` successive randbelow(n) draws of
        every lane (n >= 1), in one pass over a copy of the state; a lane
        with a rejected draw keeps its state and is redrawn by randbelow."""
        s = list(self.s.copy())
        out = np.array([_xoshiro_next(s) for _ in range(count)])
        top = np.uint64(2**64 - 2**64 % n - 1)  # as _below's
        bad = (out > top).any(axis=0)
        self.s[:, ~bad] = np.array(s)[:, ~bad]
        if bad.any():
            out[:, bad] = [self.randbelow(n, np.flatnonzero(bad)) for _ in out]
        return (out % np.uint64(n)).T


def _below(n: int, draw, size: int) -> np.ndarray:
    """Unbiased draws from {0, ..., n-1} for ``size`` streams, rejected as
    ``Xoshiro256StarStar.randbelow`` rejects; ``draw(sel)`` advances the
    streams ``sel`` and returns their uint64 outputs."""
    if n <= 0:
        raise ValueError("randbelow requires n >= 1")
    top = np.uint64(2**64 - 2**64 % n - 1)  # largest accepted; fits in uint64
    out = draw(np.arange(size))
    redo = np.flatnonzero(out > top)
    while redo.size:
        out[redo] = draw(redo)
        redo = redo[out[redo] > top]
    return out % np.uint64(n)


def keyed_sample(keys: np.ndarray, n: int, k: int) -> np.ndarray:
    """k distinct indices from range(n) for each uint64 key, one row per
    key: a partial Fisher-Yates on the splitmix64 stream whose state
    starts at the key, so a draw depends on its key alone."""
    state = keys.copy()
    pool = np.tile(np.arange(n), (keys.size, 1))
    rows = np.arange(keys.size)

    def draw(sel):
        state[sel], out = splitmix64_next(state[sel])
        return out

    for i in range(k):
        j = i + _below(n - i, draw, keys.size).astype(np.intp)
        pool[rows, i], pool[rows, j] = pool[rows, j], pool[rows, i]
    return pool[:, :k]
