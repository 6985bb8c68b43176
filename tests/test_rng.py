from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irlm import matrices, rng
from oracles import ScalarSplitMix64, derive_key, entry_sign, mix64


def _entry_signs(seed, kind_code, n_rows, n_cols) -> np.ndarray:
    """S' (n_cols x n_rows) from the scalar reference path, one entry at a
    time: entry (i, j) of S is keyed by the flat index i * n_cols + j."""
    flat = [entry_sign(seed, kind_code, i) for i in range(n_rows * n_cols)]
    return np.array(flat, dtype=np.int8).reshape(n_rows, n_cols).T


def _assert_is_s_prime(signs, n_rows, n_cols):
    assert signs.dtype == np.int8 and signs.flags.c_contiguous
    assert signs.shape == (n_cols, n_rows)


def test_scalar_matches_vectorized():
    signs = rng.sign_matrix(7, 5, seed=123, kind_code=1)
    _assert_is_s_prime(signs, 7, 5)
    for i in range(7):
        for j in range(5):
            assert signs[j, i] == entry_sign(123, 1, i * 5 + j)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_mix64_stays_in_range(z):
    out = mix64(z)
    assert 0 <= out < 2**64


def test_derive_key_order_sensitive():
    assert derive_key(1, 2) != derive_key(2, 1)
    assert derive_key(0) != derive_key(0, 0)


def test_derive_keys_order_sensitive():
    assert int(rng.derive_keys(1, 2)) != int(rng.derive_keys(2, 1))
    assert int(rng.derive_keys(0)) != int(rng.derive_keys(0, 0))


def test_sign_matrix_deterministic_and_kind_separated():
    a = rng.sign_matrix(16, 8, seed=5, kind_code=1)
    b = rng.sign_matrix(16, 8, seed=5, kind_code=1)
    c = rng.sign_matrix(16, 8, seed=5, kind_code=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.dtype == np.int8 and set(np.unique(a)) == {-1, 1}


def test_sign_balance_is_plausible():
    mat = rng.sign_matrix(200, 200, seed=9, kind_code=1)
    mean = mat.mean()
    assert abs(mean) < 0.02


def test_stream_signs_deterministic():
    s1 = rng.SplitMix64(derive_key(3, 4)).next_signs(32)
    s2 = rng.SplitMix64(derive_key(3, 4)).next_signs(32)
    assert np.array_equal(s1, s2)


@pytest.mark.parametrize("key", [0, 1, derive_key(3, 4), 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 7, 95, 1000])
def test_next_signs_matches_scalar_stream(key, count):
    vector = rng.SplitMix64(key)
    scalar = ScalarSplitMix64(key)
    signs = vector.next_signs(count)
    assert signs.dtype == np.float64 and signs.shape == (count,)
    assert signs.tolist() == [float(scalar.next_sign()) for _ in range(count)]
    # mix64 is a bijection on 64-bit words, so equal states give equal
    # next outputs
    assert vector._state == scalar.state


@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=5),
    n_rows=st.integers(min_value=0, max_value=6),
    n_cols=st.integers(min_value=0, max_value=6),
    kind_code=st.integers(min_value=0, max_value=3),
)
def test_sign_matrix_seed_sequence_stacks_the_per_seed_draws(seeds, n_rows, n_cols, kind_code):
    stack = rng.sign_matrix(n_rows, n_cols, seeds, kind_code)
    assert stack.dtype == np.int8 and stack.flags.c_contiguous
    assert stack.shape == (len(seeds), n_cols, n_rows)
    for seed, signs in zip(seeds, stack):
        assert np.array_equal(signs, rng.sign_matrix(n_rows, n_cols, seed, kind_code))
        assert np.array_equal(signs, _entry_signs(seed, kind_code, n_rows, n_cols))


@given(
    chunk=st.integers(min_value=1, max_value=64),
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=5),
    n_rows=st.integers(min_value=0, max_value=9),
    n_cols=st.integers(min_value=0, max_value=9),
    kind_code=st.integers(min_value=0, max_value=3),
)
def test_chunked_sign_draws_match_the_per_entry_keys(chunk, seeds, n_rows, n_cols, kind_code):
    # chunks of 1 to 64 words: several whole rows, one row where a row is
    # longer, or groups of whole seeds, at every offset; no chunking may
    # move a sign
    unchunked = rng.sign_matrix(n_rows, n_cols, seeds, kind_code)
    with mock.patch.object(rng, "_DRAW_CHUNK", chunk):
        stack = rng.sign_matrix(n_rows, n_cols, seeds, kind_code)
        singles = [rng.sign_matrix(n_rows, n_cols, seed, kind_code) for seed in seeds]
    assert stack.dtype == np.int8 and stack.flags.c_contiguous
    assert stack.shape == (len(seeds), n_cols, n_rows)
    assert np.array_equal(stack, unchunked)
    for seed, signs, single in zip(seeds, stack, singles):
        _assert_is_s_prime(single, n_rows, n_cols)
        assert np.array_equal(single, signs)
        assert np.array_equal(signs, _entry_signs(seed, kind_code, n_rows, n_cols))


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
@pytest.mark.parametrize("seed", [3, [], [1, 2]])
def test_chunked_sign_draws_of_no_entries(shape, seed):
    signs = rng.sign_matrix(*shape, seed, 1)
    assert signs.dtype == np.int8
    assert signs.shape == (shape[::-1] if np.ndim(seed) == 0 else (len(seed), *shape[::-1]))


def test_chunked_sign_draws_cross_the_default_chunk():
    # 7-word rows of 3 x 2^15 + 5 words under one seed: four chunks of
    # whole rows, the last one short
    n_cols = 7
    n_rows = (3 * rng._DRAW_CHUNK + 5 + n_cols - 1) // n_cols
    signs = rng.sign_matrix(n_rows, n_cols, 11, 2)
    _assert_is_s_prime(signs, n_rows, n_cols)
    for flat in (0, rng._DRAW_CHUNK - 1, rng._DRAW_CHUNK, 3 * rng._DRAW_CHUNK, signs.size - 1):
        assert signs.T.flat[flat] == entry_sign(11, 2, flat)
    # whole seeds share a chunk: 40 seeds of 9 x 100 words take two chunks
    stack = rng.sign_matrix(9, 100, list(range(40)), 1)
    for k in (0, 35, 36, 39):
        assert np.array_equal(stack[k], rng.sign_matrix(9, 100, k, 1))


def test_chunked_sign_draws_of_short_and_long_rows():
    # one chunk, several chunks of whole rows, rows of one word, and rows
    # longer than a chunk (one row per chunk): entries of S' at a stride
    # and at both sides of every chunk's end are the scalar reference's
    # signs at their flat indices
    for n_rows, n_cols in ((1, 1), (257, 129), (700, 48), (40000, 1), (3, 40000)):
        signs = rng.sign_matrix(n_rows, n_cols, 5, matrices.KIND_RANDOM_SIGN)
        _assert_is_s_prime(signs, n_rows, n_cols)
        count = n_rows * n_cols
        chunk = max(1, rng._DRAW_CHUNK // n_cols) * n_cols
        ends = range(chunk, count, chunk)
        flats = sorted({*range(0, count, 97), count - 1, *ends, *(end - 1 for end in ends)})
        rows, cols = np.divmod(flats, n_cols)
        assert signs[cols, rows].tolist() == [
            entry_sign(5, matrices.KIND_RANDOM_SIGN, flat) for flat in flats]
    # random_sign holds the draw as S', and its float factors are the draw
    # over the rank and its transpose
    a = matrices.make_random_sign(700, 48, 5)
    signs = rng.sign_matrix(700, 48, 5, matrices.KIND_RANDOM_SIGN)
    assert a._signs.tobytes() == signs.tobytes()
    assert a.left.tobytes() == (signs.T / 48).tobytes()
    assert a.right.tobytes() == signs.astype(np.float64).tobytes()


_WORDS = st.integers(min_value=0, max_value=2**64 - 1) | st.integers(
    min_value=2**64 - 64, max_value=2**64 - 1)


@given(st.lists(st.lists(_WORDS, min_size=3, max_size=3), min_size=1, max_size=6), _WORDS)
def test_vector_key_fold_matches_scalar_derive_key(rows, lead):
    # one scalar word broadcast against a column of words and a row of
    # words, as make_block_sparse folds its block seeds; seeds near 2^64 - 1
    # wrap in the first addition
    words = np.array(rows, dtype=np.uint64)
    keys = rng.derive_keys(lead, words[:, :1], words[:, 1:])
    assert keys.dtype == np.uint64 and keys.shape == (len(rows), 2)
    for (a, b, c), row in zip(rows, keys):
        assert [int(k) for k in row] == [derive_key(lead, a, b), derive_key(lead, a, c)]
    # ints are reduced mod 2^64 as derive_key reduces them
    assert int(rng.derive_keys(-1, 2**64 + 5)) == derive_key(-1, 2**64 + 5)


@given(st.integers(min_value=0, max_value=2**64 - 1) | st.integers(min_value=2**64 - 8,
                                                                  max_value=2**64 - 1),
       st.integers(min_value=1, max_value=20))
def test_block_seeds_match_scalar_keys_and_keep_the_master_seed(master, n_blocks):
    seeds = matrices._block_seeds(master, n_blocks)
    assert seeds.shape == (n_blocks, matrices._BLOCK_ATTEMPTS)
    assert int(seeds[0, 0]) == master
    for block in range(n_blocks):
        for attempt in range(matrices._BLOCK_ATTEMPTS):
            if block or attempt:
                assert int(seeds[block, attempt]) == derive_key(
                    master, matrices.KIND_BLOCK_SPARSE, block, attempt)
