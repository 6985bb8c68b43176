import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from irlm import (
    approx_error,
    distribution_function,
    from_factors,
    make_block_sparse,
    make_identity,
    make_random_sign,
    numerical_rank,
    submatrix,
)
from irlm import matrices
from irlm.cli import resolve_gamma
from irlm.errors import ConstructionError, ParameterError
from irlm.storage import read_matrix, write_matrix

from oracles import (
    binomial_two_sided_tail,
    block_draws_one_at_a_time,
    block_gram_dense,
    column_range_split,
    dense_numerical_rank,
    dense_scan_distribution,
    dense_scan_error,
    diagonal_block_split,
    float_factors_as_built,
    write_matrix_v1,
)


# -- random_sign ------------------------------------------------------------


def test_orthogonal_sign_vectors_give_zero_cross_entry():
    x = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0]])
    a = from_factors(x / 4.0, x.T, kind="custom")
    dense = a.dense()
    assert dense[0, 1] == 0.0
    assert dense[0, 0] == 1.0 and dense[1, 1] == 1.0


@given(
    n_dim=st.integers(min_value=1, max_value=24),
    rank=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=2**63),
)
def test_random_sign_diagonal_and_lattice(n_dim, rank, seed):
    rank = min(rank, n_dim)
    a = make_random_sign(n_dim, rank, seed)
    dense = a.dense()
    assert np.all(np.diagonal(dense) == 1.0)
    # entries lie on {-1 + 2k/rank}: (value + 1) * rank / 2 is an integer
    scaled = (dense + 1.0) * rank / 2.0
    assert np.allclose(scaled, np.round(scaled), atol=1e-9)
    assert np.all(np.abs(dense) <= 1.0)


def test_random_sign_rejects_bad_dimensions():
    with pytest.raises(ParameterError):
        make_random_sign(4, 5, 0)
    with pytest.raises(ParameterError):
        make_random_sign(4, 0, 0)


def test_random_sign_deterministic_bit_identical():
    a = make_random_sign(64, 16, 99).dense()
    b = make_random_sign(64, 16, 99).dense()
    assert np.array_equal(a, b)


def test_approx_error_matches_dense_scan():
    a = make_random_sign(256, 64, 3)
    dense = a.dense()
    scan = max(
        abs(dense[i, j] - (1.0 if i == j else 0.0))
        for i in range(0, 256, 7)
        for j in range(256)
    )
    err = approx_error(a)
    assert 0.0 < err < 1.0
    assert err >= scan - 1e-15
    off = np.abs(dense - np.eye(256)).max()
    assert err == off


def test_approx_error_trivial_cases():
    assert approx_error(make_identity(5)) == 0.0
    zero = from_factors(np.zeros((4, 1)), np.zeros((1, 4)), kind="custom")
    assert approx_error(zero) == 1.0


# -- distribution function ---------------------------------------------------


def test_distribution_identity_cases():
    eye = make_identity(8)
    assert distribution_function(eye, 0.5).global_density == 1.0 / 8.0
    assert distribution_function(eye, 1.0).global_density == 0.0


def test_distribution_rejects_negative_gamma():
    with pytest.raises(ParameterError):
        distribution_function(make_identity(4), -0.1)


@pytest.mark.parametrize("build", [
    lambda: make_random_sign(64, 16, 1),
    lambda: from_factors(np.random.default_rng(3).standard_normal((8, 3)),
                         np.random.default_rng(4).standard_normal((3, 8))),
], ids=["sign-64/16", "gaussian-8/3"])
def test_distribution_rejects_nan_gamma(build):
    with pytest.raises(ParameterError):
        distribution_function(build(), math.nan)


def test_distribution_matches_binomial_tail():
    a = make_random_sign(1024, 64, 1)
    profile = distribution_function(a, 0.5 / math.sqrt(64))
    oracle = binomial_two_sided_tail(64, 35)
    assert abs(profile.global_density - oracle) < 0.02


@given(seed=st.integers(min_value=0, max_value=2**32))
def test_distribution_monotone_and_edge_values(seed):
    a = make_random_sign(24, 8, seed)
    dense = a.dense()
    gammas = [0.0, 0.1, 0.25, 0.5, 0.9, 1.0]
    densities = [distribution_function(a, g).global_density for g in gammas]
    assert all(x >= y for x, y in zip(densities, densities[1:]))
    assert densities[0] == distribution_function(a, 0.0).nnz_fraction
    top = float(np.abs(dense).max())
    assert distribution_function(a, top).global_density == 0.0


def test_column_density_mean_equals_global():
    a = make_random_sign(100, 20, 7)
    profile = distribution_function(a, 0.3)
    assert abs(profile.column_densities.mean() - profile.global_density) < 1e-12


# -- numerical rank -----------------------------------------------------------


def test_numerical_rank_identity_and_outer_product():
    assert numerical_rank(make_identity(9), 1e-10) == 9
    outer = from_factors(np.arange(1.0, 6.0).reshape(5, 1), np.ones((1, 5)), kind="custom")
    assert numerical_rank(outer, 1e-10) == 1


def test_numerical_rank_random_sign_fixture_seeds():
    for seed in range(1, 11):
        a = make_random_sign(256, 64, seed)
        assert numerical_rank(a, 1e-10) == 64
        assert numerical_rank(a, 1e-10) <= a.rank_budget


def _spectrum_factors(n_dim, rank, ratio, seed=0):
    """L = U diag(s) and R = V' with orthonormal U, V and s = 1 except the
    last value, which is `ratio`: A = L @ R has exactly these singular values."""
    gen = np.random.default_rng(seed)
    u = np.linalg.qr(gen.standard_normal((n_dim, rank)))[0]
    v = np.linalg.qr(gen.standard_normal((n_dim, rank)))[0]
    s = np.ones(rank)
    s[-1] = ratio
    return from_factors(u * s, v.T, kind="custom")


def _dropped_column(n_dim, rank, side):
    """Gaussian factors with one column of L (or row of R) repeated, so the
    product has rank r - 1."""
    gen = np.random.default_rng(rank)
    left = gen.standard_normal((n_dim, rank))
    right = gen.standard_normal((rank, n_dim))
    if side == "left":
        left[:, -1] = left[:, 0]
    else:
        right[-1] = right[0]
    return from_factors(left, right, kind="custom")


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: _spectrum_factors(200, 24, 1.0), 24),
        (lambda: _spectrum_factors(200, 24, 1e-8), 24),
        (lambda: _spectrum_factors(200, 24, 1e-12), 23),
        (lambda: _dropped_column(60, 12, "left"), 11),
        (lambda: _dropped_column(60, 12, "right"), 11),
        (lambda: from_factors(np.ones((5, 8)), np.eye(8)[:, :5], kind="custom"), 1),
        (lambda: from_factors(np.eye(6, 9), np.eye(9, 6) * 2.0, kind="custom"), 6),
        (lambda: make_identity(17), 17),
    ],
    ids=["cond-1", "cond-1e8", "cond-1e12", "deficient-L", "deficient-R", "r>N-rank-1",
         "r>N-full", "identity"],
)
def test_numerical_rank_matches_dense_svd_oracle(build, expected):
    a = build()
    assert numerical_rank(a, 1e-10) == dense_numerical_rank(a, 1e-10) == expected


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_numerical_rank_block_sparse_matches_dense_svd_oracle(seed):
    a = make_block_sparse(1024, 500, seed, alpha=4.0, beta=2.0)
    assert numerical_rank(a, 1e-10) == dense_numerical_rank(a, 1e-10) == 500


def _refuse_svd(*args, **kwargs):
    raise AssertionError("numerical_rank reached the SVD fallback")


def test_numerical_rank_certificate_clears_full_rank_fixtures_without_svd(monkeypatch):
    sign = make_random_sign(4096, 128, 1)
    block = make_block_sparse(1024, 500, 1, alpha=4.0, beta=2.0)
    monkeypatch.setattr(matrices.np.linalg, "svd", _refuse_svd)
    assert numerical_rank(sign, 1e-10) == 128
    assert numerical_rank(block, 1e-10) == 500


def _refuse_cholesky(*args, **kwargs):
    raise AssertionError("numerical_rank tried the certificate")


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: make_identity(9), 9),
        (lambda: make_random_sign(96, 96, 1), 96),
        (lambda: make_random_sign(256, 256, 2), 256),
        (lambda: from_factors(np.eye(6, 9), np.eye(9, 6) * 2.0, kind="custom"), 6),
    ],
    ids=["identity-9", "sign-96/96", "sign-256/256", "r>N"],
)
def test_numerical_rank_square_and_wide_factors_skip_the_certificate(monkeypatch, build,
                                                                     expected):
    a = build()
    monkeypatch.setattr(matrices.np.linalg, "cholesky", _refuse_cholesky)
    assert numerical_rank(a, 1e-10) == dense_numerical_rank(a, 1e-10) == expected


def _svd_calls(monkeypatch) -> list:
    """The shapes of every SVD numerical_rank computes from here on."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(matrices.np.linalg, "svd", counting_svd)
    return calls


def test_numerical_rank_ill_conditioned_factors_reach_the_svd(monkeypatch):
    a = _spectrum_factors(200, 24, 1e-8)
    calls = _svd_calls(monkeypatch)
    assert numerical_rank(a, 1e-10) == 24
    assert calls == [(24, 200)]
    # a tolerance that the certificate's floor cannot separate from also
    # goes to the SVD, even on a perfectly conditioned matrix
    calls.clear()
    assert numerical_rank(make_identity(9), 1e-6) == 9
    assert calls == [(9, 9)]


def _cholesky_sizes(monkeypatch) -> list:
    """The orders of every Cholesky numerical_rank computes from here on."""
    sizes = []
    cholesky = np.linalg.cholesky

    def counting_cholesky(mat, *args, **kwargs):
        sizes.append(mat.shape[0])
        return cholesky(mat, *args, **kwargs)

    monkeypatch.setattr(matrices.np.linalg, "cholesky", counting_cholesky)
    return sizes


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_numerical_rank_certificate_factors_each_diagonal_block(monkeypatch, seed):
    # block 1024/500: 18 random blocks of odd size; the certificate's
    # blocks are the construction's, rank indices col..col + rank using
    # columns row..row + size of S', and these integer Grams have no zero
    # entry, so they are also the finest blocks of S'S; one Gram and one
    # Cholesky each
    a = make_block_sparse(1024, 500, seed, alpha=4.0, beta=2.0)
    blocks = [(col, col + rank, row, row + size)
              for row, size, rank, col, _ in a.provenance.params["blocks"]]
    assert matrices._diagonal_blocks(a._signs) == blocks
    assert [(lo, hi) for lo, hi, _, _ in blocks] == diagonal_block_split(a.right @ a.right.T)
    expected = dense_numerical_rank(a, 1e-10)
    sizes = _cholesky_sizes(monkeypatch)
    calls = _svd_calls(monkeypatch)
    assert numerical_rank(a, 1e-10) == expected == 500
    assert sizes == [hi - lo for lo, hi, _, _ in blocks] and calls == []


def test_numerical_rank_with_one_singular_block_reaches_the_svd(monkeypatch):
    # one random block's last column repeats its first: that block's Gram is
    # singular, its Cholesky fails, and the SVD counts r - 1
    a = make_block_sparse(1024, 500, 1, alpha=4.0, beta=2.0)
    _, _, rank, col, _ = a.provenance.params["blocks"][5]
    signs = a._signs.astype(np.float64)
    signs[col + rank - 1] = signs[col]
    b = from_factors(signs.T / a._row_scale[:, None], signs)
    assert b._row_scale is not None
    blocks = matrices._diagonal_blocks(b._signs)
    assert blocks == matrices._diagonal_blocks(a._signs)
    assert [(lo, hi) for lo, hi, _, _ in blocks] == diagonal_block_split(signs @ signs.T)
    assert not matrices._gram_floor_certified(b._signs, b.n_dim)
    expected = dense_numerical_rank(b, 1e-10)
    calls = _svd_calls(monkeypatch)
    assert numerical_rank(b, 1e-10) == expected == 499
    assert calls == [(500, 1024)]


@given(
    blocks=st.lists(st.tuples(st.integers(min_value=1, max_value=6),
                              st.integers(min_value=0, max_value=6)), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**32),
    fill=st.sampled_from([0.0, 0.3, 1.0]),
    scattered=st.booleans(),
)
def test_diagonal_blocks_are_the_finest_split(blocks, seed, fill, scattered):
    # sign factors S' made of blocks of (rank indices, columns), sparse or
    # empty, with empty column ranges and rows of zeros; or, scattered, one
    # sparse sign matrix whose rows' column ranges overlap: the split equals
    # the one found one cut at a time, with as many chunks of S' as rows
    gen = np.random.default_rng(seed)
    r, n = sum(size for size, _ in blocks), max(1, sum(width for _, width in blocks))
    signs = np.zeros((r, n), dtype=np.int8)
    lo = start = 0
    for size, width in blocks:
        signs[lo : lo + size, start : start + width] = gen.integers(-1, 2, size=(size, width))
        lo, start = lo + size, start + width
    if scattered:
        signs = gen.integers(-1, 2, size=(r, n)).astype(np.int8)
    signs[gen.random(signs.shape) >= fill] = 0
    want = column_range_split(signs)
    for rows in (1, r):
        with mock.patch.multiple(matrices, _BAND_ROWS=1, _BAND_COLS=rows * n):
            assert matrices._diagonal_blocks(signs) == want
    # no column is shared across blocks, so S'S is zero outside them
    gram = signs.astype(np.int64) @ signs.T.astype(np.int64)
    inside = np.zeros_like(gram, dtype=bool)
    for lo, hi, start, stop in want:
        inside[lo:hi, lo:hi] = True
        assert np.array_equal(gram[lo:hi, lo:hi], matrices._sign_gram(signs[lo:hi, start:stop]))
    assert not gram[~inside].any()


def test_numerical_rank_tol_validation():
    with pytest.raises(ParameterError):
        numerical_rank(make_identity(3), 0.0)
    with pytest.raises(ParameterError):
        numerical_rank(make_identity(3), 1.0)


def test_numerical_rank_lattice_with_a_repeated_column_reaches_the_svd(monkeypatch):
    # S'S is singular, so its Cholesky fails and the SVD counts r - 1
    signs = np.random.default_rng(4).choice([-1.0, 1.0], size=(200, 24))
    signs[:, -1] = signs[:, 0]
    a = from_factors(signs / 24, signs.T)
    assert a._row_scale is not None
    expected = dense_numerical_rank(a, 1e-10)
    calls = _svd_calls(monkeypatch)
    assert numerical_rank(a, 1e-10) == expected == 23
    assert calls == [(24, 200)]


@pytest.mark.parametrize("args, kwargs", [
    ((40, 36, 1), dict(alpha=1.2, beta=2.0)),
    ((8, 6, 1), dict(alpha=1.0, beta=1.0)),
], ids=["block-40/36", "block-8/6-short-identity"])
def test_numerical_rank_certificate_clears_blocks_with_identity_rows(monkeypatch, args, kwargs):
    # identity rows have scale 1 and random-block rows r_b, so the bound
    # carries the spread w_max / w_min = r_b
    a = make_block_sparse(*args, **kwargs)
    params = a.provenance.params
    ranks = {rank for _, _, rank, _, exact in params["blocks"] if not exact}
    assert any(exact for *_, exact in params["blocks"]) and len(ranks) == 1
    assert a._row_scale.max() / a._row_scale.min() == ranks.pop()
    expected = dense_numerical_rank(a, 1e-10)
    calls = _svd_calls(monkeypatch)
    assert numerical_rank(a, 1e-10) == expected == a.rank_budget
    assert calls == []


# (1e-8 is in test_numerical_rank_ill_conditioned_factors_reach_the_svd)
@pytest.mark.parametrize("ratio, expected", [(1.0, 24), (1e-12, 23)])
def test_numerical_rank_off_lattice_factors_take_the_svd(monkeypatch, ratio, expected):
    a = _spectrum_factors(200, 24, ratio)
    assert a._row_scale is None
    want = dense_numerical_rank(a, 1e-10)
    calls = _svd_calls(monkeypatch)
    assert numerical_rank(a, 1e-10) == want == expected
    assert calls == [(24, 200)]


# -- block sparse --------------------------------------------------------------


def test_block_sparse_exact_identity_blocks():
    a = make_block_sparse(6, 6, 0, alpha=1.5)
    assert approx_error(a) == 0.0
    profile = distribution_function(a, 0.0)
    block_size = a.provenance.params["block_size"]
    assert block_size == 3
    assert profile.nnz_fraction == 6 / 36  # identity blocks carry only diagonals
    assert profile.nnz_fraction <= block_size / 6


def test_block_sparse_single_block_reduces_to_random_sign():
    blocked = make_block_sparse(64, 48, 7, alpha=16.0)
    plain = make_random_sign(64, 48, 7)
    assert blocked.provenance.params["n_blocks"] == 1
    assert np.array_equal(blocked.dense(), plain.dense())


def test_block_sparse_off_block_entries_exactly_zero():
    a = make_block_sparse(40, 36, 5, alpha=1.2, beta=2.0)
    dense = a.dense()
    mask = np.zeros((40, 40), dtype=bool)
    for start, size, _rank, _col, _exact in a.provenance.params["blocks"]:
        mask[start : start + size, start : start + size] = True
    assert np.all(dense[~mask] == 0.0)
    assert distribution_function(a, 0.0).nnz_fraction <= a.provenance.params["block_size"] / 40


def test_block_sparse_infeasible_sizing_raises_with_named_constraint():
    with pytest.raises(ConstructionError, match="required"):
        make_block_sparse(8, 1, 3)
    with pytest.raises(ConstructionError, match="block"):
        make_block_sparse(4096, 96, 3)


def test_block_sparse_rank_within_budget():
    a = make_block_sparse(40, 36, 5, alpha=1.2, beta=2.0)
    assert numerical_rank(a, 1e-10) <= a.rank_budget


def _assert_one_at_a_time_draws(a):
    """The factors, attempts and block errors of a make_block_sparse matrix
    are those of drawing its blocks one attempt at a time."""
    params = a.provenance.params
    draws = block_draws_one_at_a_time(a)
    assert params["attempts"] == tuple(attempt for _, _, attempt in draws)
    assert params["block_errors"] == tuple(err for _, err, _ in draws)
    nonzero = 0
    for (start, size, rank, col, _), (x, _, _) in zip(params["blocks"], draws):
        # an identity block's rows have scale 1, a random block's its rank
        signs, scale = (np.eye(size), 1) if x is None else (x.T, rank)
        rows, cols = slice(start, start + size), slice(col, col + rank)
        assert np.array_equal(a.left[rows, cols], signs / scale)
        assert np.array_equal(a.right[cols, rows], signs.T)
        nonzero += np.count_nonzero(signs)
    # and nothing outside the blocks
    assert np.count_nonzero(a.left) == np.count_nonzero(a.right) == nonzero


def test_block_retries_keep_the_one_at_a_time_draws_on_late_passes():
    # blocks 8 and 15 pass on attempts 5 and 12; every other block fails
    # all 16 attempts and keeps attempt 0
    a = make_block_sparse(160, 116, 2, alpha=1.0, beta=2.0)
    attempts = a.provenance.params["attempts"]
    errors = a.provenance.params["block_errors"]
    assert {b: t for b, t in enumerate(attempts) if t} == {8: 5, 15: 12}
    assert all((e <= 1 / 3) == (b in (8, 15)) for b, e in enumerate(errors))
    _assert_one_at_a_time_draws(a)


@pytest.mark.parametrize("args, kwargs", [
    *(((1024, 500, seed), dict(alpha=4.0, beta=2.0)) for seed in (1, 2, 3, 4)),
    ((4096, 2048, 1), dict(alpha=32.0)),
], ids=["block-1024/500-s1", "block-1024/500-s2", "block-1024/500-s3", "block-1024/500-s4",
        "block-4096/2048"])
def test_block_retries_keep_the_one_at_a_time_draws(args, kwargs):
    _assert_one_at_a_time_draws(make_block_sparse(*args, **kwargs))


@given(
    n_dim=st.integers(min_value=2, max_value=48),
    rank=st.integers(min_value=1, max_value=48),
    seed=st.integers(min_value=0, max_value=2**32),
    alpha=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    tile_entries=st.integers(min_value=1, max_value=400),
)
def test_block_retries_in_batches_keep_the_one_at_a_time_draws(n_dim, rank, seed, alpha,
                                                               tile_entries):
    # small tiles give batches of 1 to 16 attempts, and a short last batch
    rank = min(rank, n_dim)
    with mock.patch.object(matrices, "_TILE_ENTRIES", tile_entries):
        try:
            a = make_block_sparse(n_dim, rank, seed, alpha=alpha, beta=0.5)
        except ConstructionError:
            assume(False)
    _assert_one_at_a_time_draws(a)


# sha256 of the left then the right factor's bytes of the analyze_large
# inputs, recorded before the block retries were batched
@pytest.mark.parametrize("build, digest", [
    (lambda: make_random_sign(4096, 128, 1),
     "7fc2d3ab32da4cac410f8faad2af3f0ee1dbbb956531497493bb32efb53844ff"),
    (lambda: make_random_sign(4096, 128, 2),
     "270f1ca6f33fdee06732e4ccc1693337327d99485fa455536d7409eb1cf25dd1"),
    (lambda: make_random_sign(4096, 128, 3),
     "f9f1037bf148796c9345c5b35c96a6100d66555fac5ea4e58253658d3e0cd0c8"),
    (lambda: make_random_sign(4096, 128, 4),
     "74177b608e772f490290591cc09e4ca27d2c8d37b27f2cbaf720808b17c9200d"),
    (lambda: make_block_sparse(1024, 500, 1, alpha=4.0, beta=2.0),
     "78737f81bac89846324c43f7985db50b1655506d1d0013e90e0284c2ac4c60bd"),
    (lambda: make_block_sparse(1024, 500, 2, alpha=4.0, beta=2.0),
     "99a7c7cde87f9885d3adb6258f070926f92e85343e91cb0ebf7c8f949785000e"),
    (lambda: make_block_sparse(1024, 500, 3, alpha=4.0, beta=2.0),
     "eaf4f47e612dd82b4c64af739e05b35fe9f3c2a4a1952d05b817588fd4636e5a"),
    (lambda: make_block_sparse(1024, 500, 4, alpha=4.0, beta=2.0),
     "2cec01736bdc247dd5d12a4ae93eff4f42226d433ba8f7ebfcbf4c6067115335"),
], ids=[f"{kind}-s{seed}" for kind in ("sign-4096/128", "block-1024/500") for seed in (1, 2, 3, 4)])
def test_analyze_large_inputs_keep_their_factor_bytes(build, digest):
    a = build()
    assert hashlib.sha256(a.left.tobytes() + a.right.tobytes()).hexdigest() == digest


# -- submatrix ----------------------------------------------------------------


def test_submatrix_matches_dense_slice():
    a = make_random_sign(32, 8, 11)
    idx = np.array([0, 3, 5, 21, 31])
    sub = submatrix(a, idx)
    assert np.array_equal(sub.dense(), a.dense()[np.ix_(idx, idx)])
    assert np.all(np.diagonal(sub.dense()) == 1.0)


@pytest.mark.parametrize("indices", [[-1, 0], [0, -4], [0.5, 1], [0.0, 1.0], [0, 4], [9],
                                     [True, False, True, False], []],
                         ids=["minus_1", "minus_n", "half", "integral_floats", "n", "past_n",
                              "mask", "empty"])
@pytest.mark.parametrize("parent", [lambda: make_identity(4),
                                    lambda: from_factors(np.arange(8.0).reshape(4, 2) / 7,
                                                         np.ones((2, 4)))],
                         ids=["lattice", "float"])
def test_submatrix_rejects_indices_outside_0_to_n(parent, indices):
    # negative indices would wrap, non-integers truncate, and N or above
    # would raise a bare IndexError
    with pytest.raises(ParameterError):
        submatrix(parent(), indices)


# -- exact lattice materialization and the tiled statistics pass ---------------


def _lattice_factors(n_dim, rank, seed):
    """Row i of the left factor is signs (zeros included) over an integer
    scale w_i in 1..5, as on the lattice, but the right factor holds small
    integers, not sign(L)', so the factors are off it.  Also returns the
    row scales."""
    rng = np.random.default_rng(seed)
    row_scale = rng.integers(1, 6, size=n_dim).astype(np.float64)
    left = rng.integers(-1, 2, size=(n_dim, rank)) / row_scale[:, None]
    right = rng.integers(-2, 3, size=(rank, n_dim)).astype(np.float64)
    return left, right, row_scale


def _build(kind, n_dim, rank, seed):
    rng = np.random.default_rng(seed)
    if kind == "identity":
        return make_identity(n_dim)
    if kind == "random_sign":
        return make_random_sign(n_dim, rank, seed)
    if kind == "slice":
        parent = make_random_sign(n_dim + 5, rank, seed)
        return submatrix(parent, rng.choice(n_dim + 5, size=n_dim, replace=False))
    if kind == "identity_blocks":
        return make_block_sparse(6, 6, seed, alpha=1.5)
    if kind == "mixed_blocks":
        return make_block_sparse(40, 36, seed, alpha=1.2, beta=2.0)
    if kind == "block_slice":
        parent = make_block_sparse(40, 36, seed, alpha=1.2, beta=2.0)
        return submatrix(parent, rng.choice(40, size=n_dim, replace=False))
    if kind == "lattice_factors":
        return from_factors(*_lattice_factors(n_dim, rank, seed)[:2])
    if kind == "symmetric_lattice":
        # R == sign(L)' with row scales w in 1..5: unlike block_sparse, whose
        # cross-block entries are 0, nonzero entries join rows of different
        # scale, so A[j, i] = V[i, j] / w_j differs from A[i, j]
        signs = rng.integers(-1, 2, size=(n_dim, rank)).astype(np.float64)
        row_scale = rng.integers(1, 6, size=n_dim)
        return from_factors(signs / row_scale[:, None], signs.T)
    left = rng.standard_normal((n_dim, rank))
    left[rng.random(left.shape) < 0.3] = 0.0
    return from_factors(left, rng.standard_normal((rank, n_dim)))


# kinds whose factors lie on the lattice, so that distribution_function
# takes band tiles of the symmetric Gram
SYMMETRIC_KINDS = ["identity", "random_sign", "slice", "identity_blocks", "mixed_blocks",
                   "block_slice", "symmetric_lattice"]

GAMMA_PICKS = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=64),
    st.tuples(st.integers(min_value=0, max_value=64), st.sampled_from([-math.inf, math.inf])),
    st.sampled_from([1.0, 1.25, 2.0, 7.0]),
)


def _gamma(gamma_pick, rank):
    """An integer pick is the lattice point k/n, clipped into [0, 1]; a pair
    (k, direction) is the float next to k/n in that direction."""
    if isinstance(gamma_pick, int):
        return min(gamma_pick, rank) / rank
    if isinstance(gamma_pick, tuple):
        k, toward = gamma_pick
        return max(0.0, float(np.nextafter(min(k, rank) / rank, toward)))
    return gamma_pick


def _tile_rows(tile_rows, n_dim):
    """Row tiles and row bands of `tile_rows` rows each."""
    return mock.patch.multiple(matrices, _TILE_ENTRIES=tile_rows * n_dim, _BAND_ROWS=tile_rows)


def _profile_and_routes(a, gamma):
    """distribution_function(a, gamma) and the `band` argument of every
    _gram_tiles pass it made."""
    with mock.patch.object(matrices, "_gram_tiles", wraps=matrices._gram_tiles) as tiles:
        profile = distribution_function(a, gamma)
    return profile, [call.kwargs.get("band", False) for call in tiles.call_args_list]


@given(
    kind=st.sampled_from(SYMMETRIC_KINDS + ["lattice_factors", "float_factors"]),
    n_dim=st.integers(min_value=1, max_value=24),
    rank=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32),
    tile_rows=st.sampled_from([1, 3, 7]),
    gamma_pick=GAMMA_PICKS,
)
# rows of scale 1 and 4 share a band; the mirror's counts and column
# maxima differ from the band's own here
@example(kind="symmetric_lattice", n_dim=6, rank=4, seed=0, tile_rows=3, gamma_pick=1)
def test_tiled_pass_matches_dense_scan(kind, n_dim, rank, seed, tile_rows, gamma_pick):
    rank = min(rank, n_dim)
    gamma = _gamma(gamma_pick, rank)
    reference = _build(kind, n_dim, rank, seed)
    a = _build(kind, n_dim, rank, seed)
    symmetric = a._row_scale is not None
    assert symmetric or kind not in SYMMETRIC_KINDS
    with _tile_rows(tile_rows, a.n_dim):
        profile, routes = _profile_and_routes(a, gamma)
        mat = a.dense()
        error = approx_error(a)
    assert routes == [symmetric]
    density, columns, nnz = dense_scan_distribution(mat, gamma)
    assert profile.error == dense_scan_error(mat)
    assert profile.global_density == density
    assert np.array_equal(profile.column_densities, columns)
    assert profile.nnz_fraction == nnz
    # the float product may move by an ulp with the tile height, so the
    # error is compared at the same height for every kind
    assert error == profile.error
    if symmetric:
        # lattice kinds are exact, so the tile height cannot move a bit, nor
        # can reading only some of the columns
        assert np.array_equal(mat, reference.dense())
        assert approx_error(reference) == profile.error
        cols = np.flatnonzero(np.random.default_rng(seed).random(a.n_dim) < 0.5)
        with _tile_rows(tile_rows, a.n_dim):
            assert np.array_equal(a.dense(cols), mat[:, cols])
            assert np.array_equal(a.dense(cols[:0]), mat[:, :0])


def _assert_dense_scan_profile(profile, mat):
    density, columns, nnz = dense_scan_distribution(mat, profile.gamma)
    assert profile.global_density == density
    assert np.array_equal(profile.column_densities, columns)
    assert profile.nnz_fraction == nnz
    assert profile.error == dense_scan_error(mat)


def _assert_same_profile(got, want):
    assert got.gamma == want.gamma
    assert got.global_density == want.global_density
    assert np.array_equal(got.column_densities, want.column_densities)
    assert got.nnz_fraction == want.nnz_fraction
    assert got.error == want.error


@given(
    kind=st.sampled_from(SYMMETRIC_KINDS),
    n_dim=st.integers(min_value=1, max_value=40),
    rank=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32),
    tile_rows=st.sampled_from([1, 3, 7]),
    band_cols=st.integers(min_value=1, max_value=12),
    gamma_pick=GAMMA_PICKS,
)
@example(kind="symmetric_lattice", n_dim=6, rank=4, seed=0, tile_rows=3, band_cols=512,
         gamma_pick=1)
# 40 rows of blocks of 8 and 9 in bands of 3 and tiles of 6 columns:
# off-diagonal tiles, a short last tile, bands that use some rank indices
# and tiles right of a block that are not computed
@example(kind="mixed_blocks", n_dim=40, rank=36, seed=5, tile_rows=3, band_cols=7, gamma_pick=1)
@example(kind="symmetric_lattice", n_dim=29, rank=5, seed=0, tile_rows=1, band_cols=5,
         gamma_pick=1)
def test_symmetric_band_pass_matches_the_general_loop(kind, n_dim, rank, seed, tile_rows,
                                                      band_cols, gamma_pick):
    # the general loop: the dense scan of the full-row tiles' dense form;
    # band tiles of `band_cols` columns rounded down to a multiple of the
    # band height
    rank = min(rank, n_dim)
    gamma = _gamma(gamma_pick, rank)
    a = _build(kind, n_dim, rank, seed)
    with _tile_rows(tile_rows, a.n_dim), mock.patch.object(matrices, "_BAND_COLS", band_cols):
        profile, routes = _profile_and_routes(a, gamma)
        mat = a.dense()
    assert routes == [True]
    _assert_dense_scan_profile(profile, mat)


@pytest.mark.parametrize("build", [
    lambda: make_random_sign(4096, 128, 1),
    lambda: make_block_sparse(1024, 500, 1, alpha=4.0, beta=2.0),
    lambda: _build("symmetric_lattice", 3000, 16, 5),
    lambda: submatrix(make_random_sign(3000, 64, 2), np.arange(0, 3000, 2)),
], ids=["sign-4096/128", "block-1024/500", "symmetric_lattice-3000/16", "sign-slice-1500/64"])
def test_symmetric_band_pass_matches_the_general_loop_at_default_heights(build):
    gammas = (0.0, 0.00195, 0.0123, 0.05, 0.1, 0.35, 2.0)
    a = build()
    assert a._row_scale is not None
    mat = a.dense()
    for gamma in gammas:
        profile, routes = _profile_and_routes(a, gamma)
        assert routes == [True]
        _assert_dense_scan_profile(profile, mat)


@given(
    n_dim=st.integers(min_value=1, max_value=24),
    rank=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_symmetric_route_skips_lattice_factors_whose_right_is_not_the_signs(n_dim, rank, seed):
    # their rows are signs over integer scales, but they are off the lattice
    rank = min(rank, n_dim)
    a = _build("lattice_factors", n_dim, rank, seed)
    assume(not np.array_equal(np.sign(a.left), a.right.T))
    assert a._row_scale is None
    profile, routes = _profile_and_routes(a, 0.25)
    assert routes == [False]
    _assert_dense_scan_profile(profile, a.dense())


def _lattice_facts(a):
    """(S', w) of a matrix held on the lattice, None off it, after
    checking that the held form is the one the decision made: S' and w
    without float factors, or the float factors with both facts None."""
    if a._signs is None:
        assert a._row_scale is None and "left" in vars(a) and "right" in vars(a)
        return None
    assert _float_factors_unbuilt(a)
    assert a._signs.dtype == np.int8 and not a._signs.flags.writeable
    assert a._row_scale.dtype == np.float64
    return a._signs, a._row_scale


def _assert_same_facts(a, b):
    facts_a, facts_b = _lattice_facts(a), _lattice_facts(b)
    assert (facts_a is None) == (facts_b is None)
    if facts_a is not None:
        assert all(np.array_equal(x, y) for x, y in zip(facts_a, facts_b))


@pytest.mark.parametrize("kind", SYMMETRIC_KINDS + ["lattice_factors", "float_factors"])
def test_submatrix_inherits_the_parents_lattice_facts(kind):
    # a parent on the lattice gives its columns of S' and its row scales at
    # the indices; one off it gives a slice that decides for itself.
    # Either way the slice holds what a fresh matrix of its factors decides
    parent = _build(kind, 24, 8, 3)
    idx = np.random.default_rng(5).choice(parent.n_dim, size=min(parent.n_dim, 13), replace=False)
    sub = submatrix(parent, idx)
    if _lattice_facts(parent) is not None:
        assert np.array_equal(sub._signs, parent._signs[:, idx])
        assert np.array_equal(sub._row_scale, parent._row_scale[idx])
    fresh = from_factors(parent.left[idx], parent.right[:, idx])
    _assert_same_facts(sub, fresh)
    _assert_same_profile(distribution_function(sub, 0.25), distribution_function(fresh, 0.25))


@pytest.mark.parametrize("build", [
    lambda: make_identity(9),
    lambda: make_random_sign(50, 12, 3),
    lambda: make_block_sparse(6, 6, 0, alpha=1.5),
    lambda: make_block_sparse(8, 6, 1, alpha=1.0, beta=1.0),
    lambda: make_block_sparse(40, 36, 5, alpha=1.2, beta=2.0),
], ids=["identity", "sign", "identity_blocks", "mixed_blocks-short-last", "mixed_blocks"])
def test_constructors_record_the_lattice_facts_a_fresh_matrix_detects(build, tmp_path):
    # the float factors the constructor once built, wrapped by hand, are
    # decided on the lattice when they are wrapped and hold the S' and w
    # the constructor holds, as a file read back does, with no float
    # factor kept
    a = build()
    assert _lattice_facts(a) is not None
    write_matrix(a, tmp_path / "a.irlm")
    fresh = from_factors(*float_factors_as_built(a))
    for other in (fresh, read_matrix(tmp_path / "a.irlm")):
        _assert_same_facts(a, other)


def _float_factors_unbuilt(a) -> bool:
    return "left" not in vars(a) and "right" not in vars(a)


LIBRARY_BUILDS = {
    "identity": lambda: make_identity(9),
    "sign": lambda: make_random_sign(50, 12, 3),
    "sign-chunks": lambda: make_random_sign(700, 48, 5),
    "identity_blocks": lambda: make_block_sparse(6, 6, 0, alpha=1.5),
    "mixed_blocks-short-last": lambda: make_block_sparse(8, 6, 1, alpha=1.0, beta=1.0),
    "mixed_blocks": lambda: make_block_sparse(40, 36, 5, alpha=1.2, beta=2.0),
    "block-1024/500": lambda: make_block_sparse(1024, 500, 1, alpha=4.0, beta=2.0),
}


@pytest.mark.parametrize("build", LIBRARY_BUILDS.values(), ids=LIBRARY_BUILDS.keys())
def test_lattice_matrices_build_the_constructors_float_factors_on_demand(build, tmp_path):
    # every library kind, a slice of it and its IRLM0002 and IRLM0001 read
    # backs: L and R, built on first access from S' and w (or read as
    # floats), are the float factors the constructors built, bit for bit
    # (+0.0 zeros included), float64, C-contiguous and read-only
    a = build()
    left, right = float_factors_as_built(a)
    idx = np.random.default_rng(7).permutation(a.n_dim)[: max(1, a.n_dim // 2)]
    write_matrix(a, tmp_path / "v2.irlm")
    cases = [
        (submatrix(a, idx), left[idx], right[:, idx]),
        (read_matrix(tmp_path / "v2.irlm"), left, right),
    ]
    assert _float_factors_unbuilt(a)
    # the IRLM0001 writer reads both float factors of a
    write_matrix_v1(a, tmp_path / "v1.irlm")
    cases += [(a, left, right), (read_matrix(tmp_path / "v1.irlm"), left, right)]
    for mat, want_left, want_right in cases:
        for got, want in ((mat.left, want_left), (mat.right, want_right)):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert not got.flags.writeable
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert mat.left is mat.left and mat.right is mat.right


# the fixtures whose rank certificate clears: the others are square, or
# (mixed_blocks) have a block of 5 rows and rank 4 with a singular Gram
CERTIFIED = ["sign", "sign-chunks", "mixed_blocks-short-last", "block-1024/500"]


@pytest.mark.parametrize("build", LIBRARY_BUILDS.values(), ids=LIBRARY_BUILDS.keys())
def test_lattice_passes_leave_the_float_factors_unbuilt(build, request, tmp_path, monkeypatch):
    # the density pass, the rank certificate, slicing and the file round
    # trip read S' and w only
    a = build()
    path = tmp_path / "a.irlm"
    write_matrix(a, path)
    loaded = read_matrix(path)
    sub = submatrix(loaded, np.arange(0, loaded.n_dim, 2))
    certified = request.node.callspec.id in CERTIFIED
    monkeypatch.setattr(matrices.np.linalg, "svd", _refuse_svd)
    for mat in (a, loaded, sub):
        distribution_function(mat, 0.25)
        approx_error(mat)
        # a slice's rows may not span every rank index, so only the full
        # matrices are sure to clear the certificate
        if certified and mat is not sub:
            assert numerical_rank(mat, 1e-10) == mat.rank_budget
        assert _float_factors_unbuilt(mat)


def test_lattice_matrices_are_immutable():
    a = make_random_sign(20, 4, 1)
    for name in ("left", "n_dim", "_signs"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        del a.provenance
    with pytest.raises(ValueError):
        a._signs[0, 0] = 1
    with pytest.raises(ValueError):
        a.right[0, 0] = 1.0


@pytest.mark.parametrize("seed", [1, 2])
def test_sign_draw_and_file_read_stay_under_2_mb(seed, tmp_path):
    # S' of sign 4096/128 is 0.5 MB as int8; the float64 factors would be 8 MB
    path = tmp_path / "rs.irlm"
    tracemalloc.start()
    try:
        a = make_random_sign(4096, 128, seed)
        _, draw_peak = tracemalloc.get_traced_memory()
        write_matrix(a, path)
        del a
        tracemalloc.reset_peak()
        loaded = read_matrix(path)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert draw_peak < 2 * 2**20 and read_peak < 2 * 2**20
    assert _float_factors_unbuilt(loaded)


@pytest.mark.parametrize("spoil", ["left", "right"])
def test_off_lattice_parent_slices_still_take_the_lattice_route(spoil):
    # row 0 of L off the lattice (its scale is not an integer), or column 0
    # of R not sign(L)': the parent is off the lattice, the slice without
    # index 0 is on it and finds its row scales itself
    a = make_random_sign(40, 12, 2)
    left, right = a.left.copy(), a.right.copy()
    if spoil == "left":
        left[0] *= 1.3
    else:
        right[0, 0] = 2.0
    parent = from_factors(left, right)
    assert _lattice_facts(parent) is None
    idx = np.arange(1, 40)
    sub = submatrix(parent, idx)
    # decided when the slice is built: S' and w, the floats dropped
    _assert_same_facts(sub, submatrix(a, idx))
    profile, routes = _profile_and_routes(sub, 0.25)
    assert routes == [True]
    _assert_same_profile(profile, distribution_function(submatrix(a, idx), 0.25))


@given(
    n_dim=st.integers(min_value=1, max_value=24),
    rank=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32),
    max_scale=st.sampled_from([1, 3, 16, 2**40]),
    negative_zeros=st.booleans(),
    spoiler=st.sampled_from([None, "one_ulp_off", "mixed_scales"]),
)
@example(n_dim=5, rank=3, seed=0, max_scale=3, negative_zeros=True, spoiler=None)
@example(n_dim=5, rank=3, seed=0, max_scale=3, negative_zeros=True, spoiler="mixed_scales")
def test_lattice_decision_holds_the_given_factors_as_signs_and_scales(n_dim, rank, seed,
                                                                     max_scale, negative_zeros,
                                                                     spoiler):
    # from_factors on L = S / w[:, None], R = S' (zero rows of scale 1,
    # zeros as -0.0 or +0.0) holds what the constructors' route holds for
    # the same S' and w, gives L and R back equal to the ones given (+0.0
    # zeros), and the same dense form, profiles and rank; a spoiled row
    # keeps the given floats, bit for bit, off the lattice
    gen = np.random.default_rng(seed)
    signs = gen.integers(-1, 2, size=(n_dim, rank)).astype(np.int8)
    signs[gen.random(n_dim) < 0.25] = 0
    scale = gen.integers(1, max_scale, size=n_dim, endpoint=True).astype(np.float64)
    scale[~signs.any(axis=1)] = 1.0
    zero = -0.0 if negative_zeros else 0.0
    left = np.where(signs != 0, signs / scale[:, None], zero)
    right = np.where(signs.T != 0, signs.T.astype(np.float64), zero)
    if spoiler is not None:
        assume(rank >= 2 or spoiler == "one_ulp_off")
        row, col = int(gen.integers(n_dim)), min(1, rank - 1)
        left[row, : col + 1], right[: col + 1, row] = 1.0 / scale[row], 1.0
        left[row, col] = (np.nextafter(left[row, col], 2.0) if spoiler == "one_ulp_off"
                          else 1.0 / (scale[row] + 1.0))
    given_left, given_right = left.tobytes(), right.tobytes()
    a = from_factors(left, right)
    if spoiler is not None:
        assert a._signs is None and a._row_scale is None
        assert a.left.tobytes() == given_left and a.right.tobytes() == given_right
        return
    b = matrices._lattice_matrix(signs.T, scale, matrices.Provenance("custom"))
    _assert_same_facts(a, b)
    assert np.array_equal(a.left, left) and np.array_equal(a.right, right)
    assert not np.signbit(a.left[a.left == 0]).any()
    assert not np.signbit(a.right[a.right == 0]).any()
    assert a.dense().tobytes() == b.dense().tobytes()
    for gamma in (0.0, 1.0 / 3.0, 0.5):
        _assert_same_profile(distribution_function(a, gamma), distribution_function(b, gamma))
    assert numerical_rank(a, 1e-10) == numerical_rank(b, 1e-10)


def _zero_rows_lattice(n_dim, rank, seed):
    """Factors on the lattice whose sign matrix has zero rows (rows of L of
    scale 1, columns of R) and zero columns (rank indices no row uses)."""
    gen = np.random.default_rng(seed)
    signs = gen.integers(-1, 2, size=(n_dim, rank)).astype(np.float64)
    signs[gen.random(n_dim) < 0.3] = 0.0
    signs[:, gen.random(rank) < 0.3] = 0.0
    return from_factors(signs / gen.integers(1, 6, size=n_dim)[:, None], signs.T)


LATTICE_KINDS = SYMMETRIC_KINDS + ["zero_rows"]


def _build_lattice(kind, n_dim, rank, seed):
    if kind == "zero_rows":
        return _zero_rows_lattice(n_dim, rank, seed)
    return _build(kind, n_dim, rank, seed)


@given(
    kind=st.sampled_from(LATTICE_KINDS),
    n_dim=st.integers(min_value=1, max_value=40),
    rank=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32),
    tile_cols=st.sampled_from([1, 3, 7, 256]),
)
def test_sign_gram_tiles_match_the_float64_product(kind, n_dim, rank, seed, tile_cols):
    # column chunks of 1, 3, 7 and 256 must give the float64 product bit
    # for bit
    a = _build_lattice(kind, n_dim, min(rank, n_dim), seed)
    assert a._row_scale is not None
    with mock.patch.multiple(matrices, _BAND_ROWS=1, _BAND_COLS=tile_cols * a.rank_budget):
        gram = matrices._sign_gram(a.right)
    want = a.right @ a.right.T
    assert gram.dtype == want.dtype and gram.tobytes() == want.tobytes()


@pytest.mark.parametrize("build", [
    lambda: make_identity(300),
    lambda: make_random_sign(4096, 128, 1),
    lambda: make_block_sparse(1024, 500, 1, alpha=4.0, beta=2.0),
    lambda: make_block_sparse(300, 280, 2, alpha=1.0, beta=2.0),
    lambda: submatrix(make_block_sparse(1024, 500, 2, alpha=4.0, beta=2.0), np.arange(3, 1024, 3)),
    lambda: _zero_rows_lattice(700, 40, 1),
], ids=["identity-300", "sign-4096/128", "block-1024/500", "mixed-blocks-300/280",
        "block-slice", "zero-rows-700/40"])
def test_sign_gram_matches_the_float64_product_at_default_tiles(build):
    a = build()
    assert a._row_scale is not None
    want = a.right @ a.right.T
    assert matrices._sign_gram(a.right).tobytes() == want.tobytes()


@given(
    kind=st.sampled_from(LATTICE_KINDS),
    n_dim=st.integers(min_value=2, max_value=40),
    rank=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_numerical_rank_on_the_lattice_matches_the_dense_oracle(kind, n_dim, rank, seed):
    a = _build_lattice(kind, n_dim, min(rank, n_dim), seed)
    assert numerical_rank(a, 1e-10) == dense_numerical_rank(a, 1e-10)


@pytest.mark.parametrize("gamma", [0.0, 1 / 63])
def test_band_column_counts_pass_255_hits_in_one_tile(gamma):
    # odd r leaves no zero entry in S S', so at gamma = 0 every column count
    # is N = 512 and a 256-row band tile gives each of its columns 256 hits
    # and each of its rows 256 mirror hits (a uint8 count would wrap to 0);
    # at gamma = 1/63 the cut is 1 and the counts still pass 255
    a = make_random_sign(512, 63, 3)
    assert (matrices._BAND_ROWS, matrices._BAND_COLS) == (256, 512)
    values = np.ones((256, 512), dtype=np.float32)
    counts, mirror, nnz, error = matrices._tile_stats(0, 0, values, 1.0, np.float32(0.0), True)
    assert counts.tolist() == [256] * 512 and mirror.tolist() == [256] * 256
    assert (nnz, error) == (3 * 2**16, 1.0)
    profile = distribution_function(a, gamma)
    mat = a.dense()
    _assert_dense_scan_profile(profile, mat)
    counts = profile.column_densities * a.n_dim
    assert counts.min() > 300
    if gamma == 0.0:
        assert np.array_equal(counts, np.full(a.n_dim, 512.0))
        assert profile.global_density == profile.nnz_fraction == 1.0


@pytest.mark.parametrize("width", [65535, 65536, 70000])
def test_band_mirror_counts_pass_2_to_the_16_columns(width):
    # the first 2-row band of rank-1 signs, |V| = 1 everywhere, with `width`
    # columns right of its square: no tile is 2^16 columns wide, and the
    # mirror counts the tiles add to each of the band's own columns sum past
    # what a uint16 holds from 65536 columns on
    a = make_random_sign(2 + width, 1, 5)
    col_counts = np.zeros(a.n_dim, dtype=np.int64)
    nnz, error, cols = 0, 0.0, []
    with mock.patch.object(matrices, "_BAND_ROWS", 2):
        for start, col, values in matrices._gram_tiles(a, band=True):
            if start > 0:
                break
            cols.append((col, values.shape[1]))
            counts, mirror, tile_nnz, tile_error = matrices._tile_stats(
                start, col, values, 1.0, np.float32(0.0), True)
            col_counts[col : col + counts.size] += counts
            col_counts[start : start + mirror.size] += mirror
            nnz, error = nnz + tile_nnz, max(error, tile_error)
    assert max(w for _, w in cols) == matrices._BAND_COLS < 2**16
    assert [c for c, _ in cols] == list(range(0, a.n_dim, matrices._BAND_COLS))
    assert col_counts.tolist() == [2 + width] * 2 + [2] * width
    assert nnz == 4 + 4 * width
    assert error == 1.0


def _counts_digest(profile, n_dim):
    counts = np.rint(profile.column_densities * n_dim).astype(np.int64)
    assert np.array_equal(counts / n_dim, profile.column_densities)
    return hashlib.sha256(counts.tobytes()).hexdigest()[:16]


# The two analyze_large inputs at seed 1, as full-row tiles reported them
# before band tiles existed.  Their theorem gamma (c = 0.25) lies below
# one lattice step, so F* there equals the nonzero fraction and the counts
# equal those at gamma = 0.
@pytest.mark.parametrize(
    "build, theorem_gamma, error, nnz, digest, digest_01, f_star_01",
    [
        (lambda: make_random_sign(4096, 128, 1), 0.001953125, 0.453125, 0.9297443628311157,
         "d7cff4665b7e9fa7", "b6f4656510ddfa33", 0.2505621910095215),
        (lambda: make_block_sparse(1024, 500, 1, alpha=4.0, beta=2.0), 0.0005,
         0.7777777777777778, 0.0492706298828125, "b5015daf2bbfe1be", "a2c37c0b330d6514",
         0.033863067626953125),
    ],
    ids=["sign-4096/128", "block_sparse-1024/500"],
)
def test_analyze_large_inputs_keep_their_profiles(build, theorem_gamma, error, nnz, digest,
                                                  digest_01, f_star_01):
    a = build()
    assert resolve_gamma(("theorem", 0.25), a.n_dim, a.rank_budget) == theorem_gamma
    for gamma in (0.0, theorem_gamma):
        profile = distribution_function(a, gamma)
        assert profile.error == error
        assert profile.nnz_fraction == nnz
        assert profile.global_density == nnz
        assert _counts_digest(profile, a.n_dim) == digest
    profile = distribution_function(a, 0.1)
    assert (profile.error, profile.nnz_fraction) == (error, nnz)
    assert profile.global_density == f_star_01
    assert _counts_digest(profile, a.n_dim) == digest_01


def test_lattice_factors_are_exact_where_the_float_product_rounds():
    left = np.full((1, 10), 0.1)
    right = np.ones((10, 1))
    assert (left @ right)[0, 0] != 1.0
    a = from_factors(left, right)
    assert a.dense()[0, 0] == 1.0
    assert approx_error(a) == 0.0


def _integer_right_factors(peak):
    """Sign rows over the scale 3 against an integer right factor that
    reaches `peak`: column 0 of row 0 sums four entries of `peak`.  Also
    returns the exact quotient of their int64 Gram, which the float product
    misses."""
    gen = np.random.default_rng(3)
    signs = gen.choice([-1.0, 1.0], size=(8, 4))
    signs[0] = 1.0
    right = gen.integers(-peak, peak + 1, size=(4, 8)).astype(np.float64)
    right[:, 0] = peak
    scale = np.full(8, 3.0)
    left = signs / scale[:, None]
    exact = (signs.astype(np.int64) @ right.astype(np.int64)) / scale[:, None]
    return left, right, exact


@pytest.mark.parametrize("peak, on_lattice", [(2**22 + 1, False)])
def test_lattice_bound_is_rank_times_peak_at_most_2_to_the_24(peak, on_lattice):
    # an integer right factor other than sign(L)' is off the lattice at any
    # peak, one whose Gram exceeds 2^24 included
    left, right, exact = _integer_right_factors(peak)
    assert not np.array_equal(left @ right, exact)
    dense = from_factors(left, right).dense()
    assert np.array_equal(dense, exact if on_lattice else left @ right)


@st.composite
def integer_cut_cases(draw):
    """(w, gamma, lo, hi): an integer row scale, gamma at k/w or at one of
    its float neighbours, and the integers lo..hi to compare over, either
    all of 0..hi or the top 2^12 below the lattice bound 2^24."""
    scale = draw(st.one_of(st.integers(min_value=1, max_value=64),
                           st.integers(min_value=1, max_value=2**24)))
    hi = draw(st.one_of(st.integers(min_value=0, max_value=2**12), st.just(2**24)))
    lo = 0 if hi <= 2**12 else hi - 2**12
    k = draw(st.integers(min_value=max(0, lo - 1), max_value=hi + 1))
    gamma = k / scale
    toward = draw(st.sampled_from([None, -math.inf, math.inf]))
    if toward is not None:
        gamma = max(0.0, float(np.nextafter(gamma, toward)))
    return scale, gamma, lo, hi


@given(integer_cut_cases())
# floor(fl(gamma * w)) is one below the cut at 61/7 and one above it just
# below 5/3
@example((7, 61 / 7, 0, 64))
@example((3, float(np.nextafter(5 / 3, -math.inf)), 0, 64))
def test_integer_cut_agrees_with_the_divided_comparison(case):
    scale, gamma, lo, hi = case
    cut = matrices._integer_cut(gamma, np.array([float(scale)]))
    v = np.arange(lo, hi + 1, dtype=np.float64)
    assert np.array_equal(v > cut[0], v / scale > gamma)


def test_integer_cut_edges():
    scale = np.array([1.0, 3.0, 2.0**24])
    assert np.array_equal(matrices._integer_cut(0.0, scale), [0.0, 0.0, 0.0])
    assert np.array_equal(matrices._integer_cut(math.inf, scale), [2.0**24] * 3)
    assert np.array_equal(matrices._integer_cut(1e308, scale), [2.0**24] * 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("factor", ["left", "right"])
def test_non_finite_factors_are_rejected(factor, bad):
    left, right, _ = _lattice_factors(6, 3, 1)
    (left if factor == "left" else right)[1, 2] = bad
    with pytest.raises(ParameterError, match="finite"):
        from_factors(left, right)


def test_factors_whose_product_may_overflow_are_rejected():
    # every entry is finite, but max|L| max|R| r = 8e400 exceeds the float64
    # range; these factors gave an approximation error of inf
    left = np.full((4, 8), 1e200)
    right = np.where(np.arange(32).reshape(8, 4) % 2 == 0, 1e200, -1e200)
    with pytest.raises(ParameterError, match="overflow"):
        from_factors(left, right)
    # 8e300 stays in range and is accepted
    assert from_factors(left * 1e-50, right * 1e-50).rank_budget == 8


@pytest.mark.parametrize(
    "left, right",
    [
        # row 0 mixes the scales 2 and 3
        (np.array([[0.5, 1.0 / 3.0], [0.5, 0.0]]), np.array([[1.0, 2.0], [1.0, -1.0]])),
        # a lattice left factor against a non-integer right factor
        (np.full((1, 10), 0.1), np.full((10, 1), 0.5)),
        # one entry one ulp above 1/3
        (np.array([[1.0 / 3.0, np.nextafter(1.0 / 3.0, 1.0)]]), np.ones((2, 1))),
        # row 0 mixes 1/3 and 1/6, whose scales 3 and 6 differ
        (np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 3.0, 0.0]]), np.array([[1.0, 2.0], [3.0, -1.0]])),
        # sign rows over integer scales against small integers, not sign(L)'
        *(_lattice_factors(24, 16, seed)[:2] for seed in (1, 2)),
        # an integer right factor whose Gram reaches 2^24
        _integer_right_factors(2**22)[:2],
    ],
    ids=["mixed_row_scales", "non_integer_right", "one_ulp_off", "thirds_and_sixths",
         "integer_right-s1", "integer_right-s2", "integer_right_peak_2_to_the_22"],
)
def test_off_lattice_factors_materialize_as_the_float_product(left, right):
    a = from_factors(left, right)
    assert matrices._lattice_scale(left, right) is None and a._row_scale is None
    assert np.array_equal(a.dense(), left @ right)


def test_block_sparse_dense_is_the_per_block_integer_gram():
    for a in (make_block_sparse(40, 36, 5, alpha=1.2, beta=2.0),
              make_block_sparse(1024, 500, 1, alpha=4.0, beta=2.0)):
        assert np.array_equal(a.dense(), block_gram_dense(a))


# 1448 is the largest N of one tile; the dense forms are 16 MB and 512 MB
@pytest.mark.parametrize("n_dim, bound_mb", [(1448, 16), (8192, 64)])
def test_distribution_function_streams_in_bounded_memory(n_dim, bound_mb):
    a = make_random_sign(n_dim, 64, 1)
    tracemalloc.start()
    try:
        distribution_function(a, 0.125)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


def test_distribution_function_tiles_stay_under_24_mb():
    # sign factors take band tiles of 256 x 512 (512 KB of float32, far
    # under the bound); the full-row tiles of other factors are 2^21
    # entries (16 MB of float64)
    a = make_random_sign(8192, 64, 1)
    tracemalloc.start()
    try:
        distribution_function(a, 0.125)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


# One band tile of float32 entries (512 KB at the default 256 x 512).
_TILE_BYTES = 4 * 256 * 512


def _transient_peak(build, call):
    """The tracemalloc peak of call(a) above what the built matrix holds,
    and what it holds."""
    tracemalloc.start()
    try:
        a = build()
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        call(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held, held


@pytest.mark.parametrize("n_dim", [2048, 8192])
@pytest.mark.parametrize("call", [
    lambda a: distribution_function(a, 0.125),
    lambda a: numerical_rank(a, 1e-10),
], ids=["distribution_function", "numerical_rank"])
def test_lattice_passes_hold_tiles_not_bands(n_dim, call):
    # the matrix's int8 S' and float64 row scales ((n + 8) N bytes) plus
    # three band tiles at both N: a band of 256 x N float32 alone was 8 MB
    # at N = 8192, a whole float32 copy of S' 2 MB, and certificate chunks
    # of 2^21 float32 entries 8 MB
    assert matrices._BAND_ROWS * matrices._BAND_COLS * 4 == _TILE_BYTES
    transient, held = _transient_peak(lambda: make_random_sign(n_dim, 64, 1), call)
    assert transient < 3 * _TILE_BYTES
    assert held + transient < (64 + 8) * n_dim + 3 * _TILE_BYTES


def test_numerical_rank_holds_one_block_gram_at_a_time():
    # block_sparse 4096/2048 alpha=32: 8 blocks of 512 rows at rank 256, so
    # the certificate holds one 256 x 256 Gram (512 KB) and the float32
    # chunks it is summed from, not the 2048 x 2048 float64 Gram (32 MB) of
    # the whole S'S
    transient, _ = _transient_peak(lambda: make_block_sparse(4096, 2048, 1, alpha=32.0),
                                   lambda a: numerical_rank(a, 1e-10))
    assert transient < 8 * _TILE_BYTES
