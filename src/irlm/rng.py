"""Deterministic 64-bit mixing generator used by every random construction.

The contract is language portable: all state is unsigned 64-bit integer
arithmetic mod 2**64, signs come from single bits, and every entry of a
sign matrix is keyed independently by (master seed, kind code, flat entry
index).  Parallel evaluation order therefore cannot change any output.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def derive_keys(*words) -> np.ndarray:
    """Stream keys of integer words broadcast together: each uint64 entry folds
    the words at its index in order, key <- mix64(key + GOLDEN + (w mod 2^64))
    from key 0, in one vector pass per word.  The words are integers or
    arrays of them, reduced mod 2^64 as Python ints."""
    words = [np.asarray(np.asarray(w, dtype=object) & MASK64, dtype=np.uint64) for w in words]
    key = np.zeros(np.broadcast_shapes(*(w.shape for w in words)), dtype=np.uint64)
    scratch = np.empty_like(key)
    for w in words:
        key += np.uint64(GOLDEN)
        key += w
        _mix64_np(key, scratch)
    return key


class SplitMix64:
    """Sequential stream: each output is mix64 of the state advanced by GOLDEN."""

    def __init__(self, key: int):
        self._state = int(key) & MASK64

    def next_signs(self, count: int) -> np.ndarray:
        """Signs of the next `count` outputs (-1.0 where the top bit is set, else +1.0)."""
        steps = np.arange(1, count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            steps *= np.uint64(GOLDEN)
            steps += np.uint64(self._state)
        self._state = (self._state + count * GOLDEN) & MASK64
        return _top_bit_signs(steps, np.empty_like(steps))


def _mix64_np(z: np.ndarray, scratch: np.ndarray, final: bool = True) -> None:
    """mix64 (the SplitMix64 output scrambler) on every word of `z` in place,
    with `scratch` (same shape) as the one temporary.  Without `final` the
    last xor-shift is skipped: it leaves the top bit as it is, so a caller
    that reads only that bit may skip it.  Array arithmetic wraps mod 2^64
    without an overflow check, which numpy makes only on scalars."""
    for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= np.uint64(mult)
    if final:
        np.right_shift(z, np.uint64(31), out=scratch)
        z ^= scratch


# The bits of the float64 1.0 and of the sign bit: a word holding the sign
# bit of its own and the rest of 1.0 is +1.0 or -1.0.
_ONE_BITS = np.uint64(0x3FF0000000000000)
_TOP_BIT = np.uint64(1 << 63)


def _top_bit_signs(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """+1.0 where the top bit of mix64(z) is clear, -1.0 where it is set,
    written over `z` and returned as its float64 view; overwrites
    `scratch`."""
    _mix64_np(z, scratch, final=False)
    z &= _TOP_BIT
    z |= _ONE_BITS
    return z.view(np.float64)


# Words mixed at once by sign_matrix (256 KB of uint64, which stays in a
# core's L2 cache through the mixing steps).
_DRAW_CHUNK = 1 << 15


def sign_matrix(
    n_rows: int, n_cols: int, seed: int | Sequence[int], kind_code: int
) -> np.ndarray:
    """S' for the +-1 matrix S (n_rows x n_cols) whose entry (i, j) is keyed
    by mix(seed, kind, i*n_cols + j), as a C-contiguous int8 array: n_cols x
    n_rows for one seed, and for a sequence of k seeds the stack of their
    draws (k x n_cols x n_rows), each equal to the draw of its seed alone.

    The sign is the high bit of the first stream output under that key,
    mapped set -> -1, clear -> +1.  The keys are mixed in chunks of whole
    rows of S of at most ``_DRAW_CHUNK`` words (one row where a row is
    longer), whole seeds sharing a chunk where they fit, and each chunk is
    written into its columns of S', so the temporaries are one chunk of
    words and one of scratch.  Every entry is keyed on its own, so the
    chunking cannot change a sign.
    """
    single = np.ndim(seed) == 0
    seeds = [seed] if single else seed
    out = np.empty((len(seeds), n_cols, n_rows), dtype=np.int8)
    if out.size:
        # entry idx under base b is keyed by mix64(b + GOLDEN + idx)
        keys = derive_keys(seeds, kind_code)
        keys += np.uint64(GOLDEN)
        rows = min(n_rows, max(1, _DRAW_CHUNK // n_cols))
        group = min(len(seeds), max(1, _DRAW_CHUNK // (n_rows * n_cols)))
        offsets = np.arange(rows * n_cols, dtype=np.uint64)
        words = np.empty(group * offsets.size, dtype=np.uint64)
        scratch = np.empty_like(words)
        for lo in range(0, len(seeds), group):
            hi = min(len(seeds), lo + group)
            for first in range(0, n_rows, rows):
                last = min(n_rows, first + rows)
                size = (hi - lo) * (last - first) * n_cols
                z = words[:size].reshape(hi - lo, -1)
                np.add(keys[lo:hi, None] + np.uint64(first * n_cols), offsets[: z.shape[1]], out=z)
                signs = _signs_of_keys(z, scratch[:size].reshape(z.shape))
                out[lo:hi, :, first:last] = signs.reshape(hi - lo, -1, n_cols).transpose(0, 2, 1)
    return out[0] if single else out


def _signs_of_keys(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The sign of every entry key in `z` (+1.0 or -1.0, the top bit of the
    first stream output under that key), written over `z` and returned as
    its float64 view; overwrites `scratch`."""
    _mix64_np(z, scratch)
    z += np.uint64(GOLDEN)
    return _top_bit_signs(z, scratch)
