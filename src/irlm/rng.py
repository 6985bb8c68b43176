"""Deterministic 64-bit mixing generator used by every random construction.

The contract is language portable: all state is unsigned 64-bit integer
arithmetic mod 2**64, signs come from single bits, and every entry of a
sign matrix is keyed independently by (master seed, kind code, flat entry
index).  Parallel evaluation order therefore cannot change any output.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 output scrambler on a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_key(*words: int) -> int:
    """Fold integer words into one 64-bit stream key."""
    key = 0
    for w in words:
        key = mix64((key + GOLDEN + (int(w) & MASK64)) & MASK64)
    return key


class SplitMix64:
    """Minimal sequential stream over the mixing function."""

    def __init__(self, key: int):
        self._state = int(key) & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def next_sign(self) -> int:
        """+1 or -1 from the high bit of the next word (-1 when set)."""
        return -1 if self.next_u64() >> 63 else 1

    def next_signs(self, count: int) -> np.ndarray:
        """The next `count` signs of next_sign, computed in one vector pass."""
        steps = np.arange(1, count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            words = _mix64_np(np.uint64(self._state) + steps * np.uint64(GOLDEN))
        self._state = (self._state + steps.size * GOLDEN) & MASK64
        return 1.0 - 2.0 * (words >> np.uint64(63)).astype(np.float64)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def sign_matrix(n_rows: int, n_cols: int, seed: int, kind_code: int) -> np.ndarray:
    """Matrix of +-1 floats, entry (i, j) keyed by mix(seed, kind, i*n_cols + j).

    The sign is the high bit of the first stream output under that key,
    mapped set -> -1, clear -> +1.
    """
    base = derive_key(seed, kind_code)
    idx = np.arange(n_rows * n_cols, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keys = _mix64_np(np.uint64(base) + np.uint64(GOLDEN) + idx)
        out = _mix64_np(keys + np.uint64(GOLDEN))
    bits = (out >> np.uint64(63)).astype(np.int64)
    signs = 1.0 - 2.0 * bits
    return signs.reshape(n_rows, n_cols)


def entry_sign(seed: int, kind_code: int, flat_index: int) -> int:
    """Scalar reference path for one entry; must agree with sign_matrix."""
    base = derive_key(seed, kind_code)
    key = mix64((base + GOLDEN + (flat_index & MASK64)) & MASK64)
    out = mix64((key + GOLDEN) & MASK64)
    return -1 if out >> 63 else 1
