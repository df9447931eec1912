"""Deterministic random numbers for every stochastic step in the toolkit.

All synthetic data, weight initialisation and shuffling draw from SplitMix64,
a 64-bit shift/multiply generator, instead of the platform RNG.  The
algorithm is ~10 lines and fully specified in ``docs/prng.md``, so any other
implementation (another language, a spreadsheet) can reproduce every dataset,
every initial weight and every shuffle bit-for-bit from the seed alone.

The generator is counter-based: output ``i`` depends only on ``(seed, i)``,
which lets us evaluate whole blocks of the stream with vectorised uint64
arithmetic.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(z):
    """SplitMix64 finaliser on a Python int below 2**64 or a uint64 array.

    An array is overwritten: working in place avoids a temporary per step.
    The masks keep Python ints to 64 bits; uint64 arrays wrap by themselves.
    """
    z ^= z >> 30
    z *= _MIX1
    z &= _MASK
    z ^= z >> 27
    z *= _MIX2
    z &= _MASK
    z ^= z >> 31
    return z


def derive_seed(seed: int, *tags) -> int:
    """Derive an independent child seed from ``seed`` and a list of tags.

    Tags may be ints or strings; strings are folded in bytewise.  Used to
    give each sample / layer / purpose its own stream without coordination.
    Folding is sequential, so ``derive_seed(derive_seed(s, a), b)`` equals
    ``derive_seed(s, a, b)``.
    """
    state = int(seed) & _MASK
    for tag in tags:
        if isinstance(tag, str):
            for b in tag.encode("utf-8"):
                state = _mix((state + _GOLDEN & _MASK) ^ b)
        else:
            state = _mix((state + _GOLDEN & _MASK) ^ (int(tag) & _MASK))
    return state


class SplitMix64:
    """Counter-based SplitMix64 stream, or a block of streams drawn together.

    ``SplitMix64(seed)`` is one stream: ``raw(n)`` returns its next ``n``
    64-bit outputs, and everything else is built on top of it.
    ``SplitMix64([seed, ...])`` is one stream per seed: ``raw``,
    ``uniforms`` and ``normals`` return one row per seed, bit-equal to what
    that seed's own stream returns for the same call sequence; ``below``,
    ``shuffle`` and ``permutation`` need a single stream.  Equal ``(seed,
    call sequence)`` gives bit-equal results on every platform.
    """

    def __init__(self, seed):
        if isinstance(seed, (int, np.integer)):
            self._seed = np.uint64(int(seed) & _MASK)
        else:
            self._seed = np.array([int(s) & _MASK for s in seed], dtype=np.uint64)[:, None]
        self._counter = 0

    def raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix(self._seed + idx * _GOLDEN)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1), using the top 53 bits."""
        return (self.raw(n) >> 11).astype(np.float64) * (2.0 ** -53)

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normal doubles via the Box-Muller transform, in place:
        r * cos(theta), then r * sin(theta), with r = sqrt(-2 log(u1))."""
        m = (n + 1) // 2
        bits = self.raw(m)
        bits >>= 11
        # u1 in (0, 1] so the log is always finite.
        r = bits + 1.0
        r *= 2.0 ** -53
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta = self.uniforms(m)
        theta *= 2.0 * np.pi
        out = np.empty(r.shape[:-1] + (2 * m,))
        for half, fn in ((out[..., :m], np.cos), (out[..., m:], np.sin)):
            fn(theta, out=half)
            half *= r
        return out[..., :n]

    def below(self, bound: int) -> int:
        """One integer in [0, bound) via floor(u * bound)."""
        return min(int(self.uniforms(1)[0] * bound), bound - 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by ``below``.

        The ``n - 1`` draws come from one ``uniforms`` call; step ``i`` gets
        ``min(floor(u * (i + 1)), i)``, which is exactly ``below(i + 1)`` on
        the same stream position.
        """
        n = len(items)
        if n < 2:
            return
        bounds = np.arange(n, 1, -1)
        picks = np.minimum((self.uniforms(n - 1) * bounds).astype(np.int64), bounds - 1)
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> np.ndarray:
        order = list(range(n))
        self.shuffle(order)
        return np.asarray(order, dtype=np.int64)
