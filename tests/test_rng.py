import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irlm import rng


def test_scalar_matches_vectorized():
    mat = rng.sign_matrix(7, 5, seed=123, kind_code=1)
    for i in range(7):
        for j in range(5):
            assert mat[i, j] == rng.entry_sign(123, 1, i * 5 + j)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_mix64_stays_in_range(z):
    out = rng.mix64(z)
    assert 0 <= out < 2**64


def test_derive_key_order_sensitive():
    assert rng.derive_key(1, 2) != rng.derive_key(2, 1)
    assert rng.derive_key(0) != rng.derive_key(0, 0)


def test_sign_matrix_deterministic_and_kind_separated():
    a = rng.sign_matrix(16, 8, seed=5, kind_code=1)
    b = rng.sign_matrix(16, 8, seed=5, kind_code=1)
    c = rng.sign_matrix(16, 8, seed=5, kind_code=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert set(np.unique(a)) == {-1.0, 1.0}


def test_sign_balance_is_plausible():
    mat = rng.sign_matrix(200, 200, seed=9, kind_code=1)
    mean = mat.mean()
    assert abs(mean) < 0.02


def test_stream_signs_deterministic():
    s1 = rng.SplitMix64(rng.derive_key(3, 4)).next_signs(32)
    s2 = rng.SplitMix64(rng.derive_key(3, 4)).next_signs(32)
    assert np.array_equal(s1, s2)


@pytest.mark.parametrize("key", [0, 1, rng.derive_key(3, 4), 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 7, 95, 1000])
def test_next_signs_matches_scalar_stream(key, count):
    vector = rng.SplitMix64(key)
    scalar = rng.SplitMix64(key)
    signs = vector.next_signs(count)
    assert signs.dtype == np.float64 and signs.shape == (count,)
    assert signs.tolist() == [float(scalar.next_sign()) for _ in range(count)]
    assert vector.next_u64() == scalar.next_u64()


@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=5),
    n_rows=st.integers(min_value=0, max_value=6),
    n_cols=st.integers(min_value=0, max_value=6),
    kind_code=st.integers(min_value=0, max_value=3),
)
def test_sign_matrix_seed_sequence_stacks_the_per_seed_draws(seeds, n_rows, n_cols, kind_code):
    stack = rng.sign_matrix(n_rows, n_cols, seeds, kind_code)
    assert stack.dtype == np.float64 and stack.shape == (len(seeds), n_rows, n_cols)
    for seed, mat in zip(seeds, stack):
        assert np.array_equal(mat, rng.sign_matrix(n_rows, n_cols, seed, kind_code))
        assert mat.ravel().tolist() == [
            float(rng.entry_sign(seed, kind_code, i)) for i in range(n_rows * n_cols)
        ]
