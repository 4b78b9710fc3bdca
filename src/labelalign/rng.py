"""Counter-based deterministic random numbers.

Every random stream is a pure function of a 64-bit key and a draw index, so
identical seeds reproduce identical datasets whatever the process count or
call order (``TestGenerator.test_deterministic_given_seed``). The
construction, to reimplement it:

* Raw stream: ``out[i] = mix64((key + (i + 1) * GOLDEN) mod 2^64)``, with
  ``GOLDEN = 0x9E3779B97F4A7C15`` and ``mix64`` the SplitMix64 finalizer
  (xor-shift 30, multiply 0xBF58476D1CE4E5B9, xor-shift 27, multiply
  0x94D049BB133111EB, xor-shift 31).
* Uniforms in [0, 1): the top 53 bits of a raw word divided by 2^53.
* Standard normals: Box-Muller on consecutive uniform pairs, the radius
  uniform shifted to (0, 1] as ``((raw >> 11) + 1) / 2^53``.
* Permutations: Fisher-Yates from the top index down, the swap partner
  ``floor(u * (i + 1))``.
* Key derivation: FNV-1a over the parts (ints as 8 little-endian bytes,
  strings as UTF-8, a 0xFF separator after each part), then ``mix64``.

A generator over a 1-D array of keys draws one row per key, each the values
of that key alone (``TestCounterRng.test_array_keys_give_each_key_its_scalar_stream``),
and :func:`derive_keys` gives the keys of a run of trailing indices at once.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_U = np.uint64


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> _U(30)
    x *= _U(_MIX1)
    x ^= x >> _U(27)
    x *= _U(_MIX2)
    x ^= x >> _U(31)
    return x


def _fnv(parts) -> int:
    h = _FNV_OFFSET
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            raise TypeError(f"key parts must be int or str, got {type(part).__name__}")
        data = (
            (part & _MASK).to_bytes(8, "little")
            if isinstance(part, int)
            else part.encode("utf-8")
        )
        for byte in data:
            h = ((h ^ byte) * _FNV_PRIME) & _MASK
        h = ((h ^ 0xFF) * _FNV_PRIME) & _MASK
    return h


def derive_key(*parts: int | str) -> int:
    """Hash a sequence of ints/strings into a 64-bit stream key."""
    return int(_mix64(np.array([_fnv(parts)], dtype=np.uint64))[0])


def derive_keys(*parts: int | str, count: int) -> np.ndarray:
    """``derive_key(*parts, i)`` for every ``i < count``, as one uint64 array
    (``TestCounterRng.test_derive_keys_are_the_derive_key_of_each_index``)."""
    i = np.arange(count, dtype=np.uint64)
    h = np.full(count, _fnv(parts), dtype=np.uint64)
    for shift in range(0, 64, 8):
        h ^= (i >> _U(shift)) & _U(0xFF)
        h *= _U(_FNV_PRIME)
    h ^= _U(0xFF)
    h *= _U(_FNV_PRIME)
    return _mix64(h)


class CounterRng:
    """Cursor over the counter-based stream of one key, or of each key of a
    1-D uint64 array, one row per key; it only remembers how many words have
    been consumed."""

    def __init__(self, key: int | np.ndarray):
        if isinstance(key, np.ndarray):
            self.key = key.astype(np.uint64)
            self._base = self.key[:, None]
        else:
            self.key = key & _MASK
            self._base = _U(self.key)
        self._index = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words (per key)."""
        idx = np.arange(self._index + 1, self._index + n + 1, dtype=np.uint64)
        self._index += n
        return _mix64(self._base + idx * _U(_GOLDEN))

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` float64 uniforms in [0, 1) (per key)."""
        return (self.raw(n) >> _U(11)).astype(np.float64) / float(1 << 53)

    def normals(self, n: int) -> np.ndarray:
        """Next ``n`` standard normals per key (Box-Muller; consumes 2*ceil(n/2) words)."""
        pairs = (n + 1) // 2
        u1 = ((self.raw(pairs) >> _U(11)).astype(np.float64) + 1.0) / float(1 << 53)
        u2 = (self.raw(pairs) >> _U(11)).astype(np.float64) / float(1 << 53)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(r.shape[:-1] + (2 * pairs,))
        out[..., 0::2] = r * np.cos(theta)
        out[..., 1::2] = r * np.sin(theta)
        return out[..., :n]

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Row-major (rows, cols) matrix of standard normals (per key)."""
        z = self.normals(rows * cols)
        return z.reshape(z.shape[:-1] + (rows, cols))

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n); for a single key only."""
        out = np.arange(n)
        if n < 2:
            return out
        u = self.uniforms(n - 1)
        for i in range(n - 1, 0, -1):
            j = int(u[n - 1 - i] * (i + 1))
            out[i], out[j] = out[j], out[i]
        return out
