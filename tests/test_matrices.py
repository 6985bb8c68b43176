import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
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
from irlm.errors import ConstructionError, ParameterError

from oracles import (
    binomial_two_sided_tail,
    block_gram_dense,
    dense_scan_distribution,
    dense_scan_error,
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


def test_numerical_rank_tol_validation():
    with pytest.raises(ParameterError):
        numerical_rank(make_identity(3), 0.0)
    with pytest.raises(ParameterError):
        numerical_rank(make_identity(3), 1.0)


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


# -- submatrix ----------------------------------------------------------------


def test_submatrix_matches_dense_slice():
    a = make_random_sign(32, 8, 11)
    idx = np.array([0, 3, 5, 21, 31])
    sub = submatrix(a, idx)
    assert np.array_equal(sub.dense(), a.dense()[np.ix_(idx, idx)])
    assert np.all(np.diagonal(sub.dense()) == 1.0)


# -- exact lattice materialization and the tiled statistics pass ---------------


def _lattice_factors(n_dim, rank, seed):
    """Factors on an exact sign lattice: row i of the left factor is signs
    (zeros included) over an integer scale w_i in 1..5, and the right factor
    holds small integers.  Also returns the row scales."""
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
    left = rng.standard_normal((n_dim, rank))
    left[rng.random(left.shape) < 0.3] = 0.0
    return from_factors(left, rng.standard_normal((rank, n_dim)))


@given(
    kind=st.sampled_from(
        ["identity", "random_sign", "slice", "identity_blocks", "mixed_blocks",
         "block_slice", "lattice_factors", "float_factors"]
    ),
    n_dim=st.integers(min_value=1, max_value=24),
    rank=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32),
    tile_rows=st.sampled_from([1, 3, 7]),
    gamma_pick=st.one_of(
        st.just(0.0),
        st.integers(min_value=0, max_value=64),
        st.tuples(st.integers(min_value=0, max_value=64), st.sampled_from([-math.inf, math.inf])),
        st.sampled_from([1.0, 1.25, 2.0, 7.0]),
    ),
)
def test_tiled_pass_matches_dense_scan(kind, n_dim, rank, seed, tile_rows, gamma_pick):
    rank = min(rank, n_dim)
    # an integer pick is the lattice point k/n, clipped into [0, 1]; a pair
    # (k, direction) is the float next to k/n in that direction
    if isinstance(gamma_pick, int):
        gamma = min(gamma_pick, rank) / rank
    elif isinstance(gamma_pick, tuple):
        k, toward = gamma_pick
        gamma = max(0.0, float(np.nextafter(min(k, rank) / rank, toward)))
    else:
        gamma = gamma_pick
    reference = _build(kind, n_dim, rank, seed)
    a = _build(kind, n_dim, rank, seed)
    with mock.patch.object(matrices, "_TILE_ENTRIES", tile_rows * a.n_dim):
        profile = distribution_function(a, gamma)
        mat = a.dense()
    density, columns, nnz = dense_scan_distribution(mat, gamma)
    assert profile.error == dense_scan_error(mat)
    assert profile.global_density == density
    assert np.array_equal(profile.column_densities, columns)
    assert profile.nnz_fraction == nnz
    assert approx_error(a) == profile.error
    if kind != "float_factors":
        # lattice kinds are exact, so the tile height cannot move a bit
        assert np.array_equal(mat, reference.dense())


@given(
    n_dim=st.integers(min_value=1, max_value=24),
    rank=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_lattice_factors_materialize_as_exact_integer_gram(n_dim, rank, seed):
    left, right, row_scale = _lattice_factors(n_dim, rank, seed)
    gram = np.sign(left).astype(np.int64) @ right.astype(np.int64)
    assert np.array_equal(from_factors(left, right).dense(), gram / row_scale[:, None])


def test_lattice_factors_are_exact_where_the_float_product_rounds():
    left = np.full((1, 10), 0.1)
    right = np.ones((10, 1))
    assert (left @ right)[0, 0] != 1.0
    a = from_factors(left, right)
    assert a.dense()[0, 0] == 1.0
    assert approx_error(a) == 0.0


@pytest.mark.parametrize("peak, on_lattice", [(2**22, True), (2**22 + 1, False)])
def test_lattice_bound_is_rank_times_peak_at_most_2_to_the_24(peak, on_lattice):
    # rank 4: column 0 of row 0 sums four entries of `peak`, so at 2^22 the
    # Gram reaches the bound 2^24 exactly (still the lattice, checked against
    # the int64 Gram); one more puts rank * max |R| past it (float product)
    gen = np.random.default_rng(3)
    signs = gen.choice([-1.0, 1.0], size=(8, 4))
    signs[0] = 1.0
    right = gen.integers(-peak, peak + 1, size=(4, 8)).astype(np.float64)
    right[:, 0] = peak
    scale = np.full(8, 3.0)
    left = signs / scale[:, None]
    exact = (signs.astype(np.int64) @ right.astype(np.int64)) / scale[:, None]
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


@pytest.mark.parametrize(
    "left, right",
    [
        # row 0 mixes the scales 2 and 3
        (np.array([[0.5, 1.0 / 3.0], [0.5, 0.0]]), np.array([[1.0, 2.0], [1.0, -1.0]])),
        # a lattice left factor against a non-integer right factor
        (np.full((1, 10), 0.1), np.full((10, 1), 0.5)),
    ],
    ids=["mixed_row_scales", "non_integer_right"],
)
def test_off_lattice_factors_materialize_as_the_float_product(left, right):
    assert np.array_equal(from_factors(left, right).dense(), left @ right)


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
    assert "_dense" not in vars(a)


def test_distribution_function_tiles_stay_under_24_mb():
    # one float32 Gram tile (8 MB), its bool mask (2 MB) and the float32
    # right factor (2 MB) are the whole pass
    a = make_random_sign(8192, 64, 1)
    tracemalloc.start()
    try:
        distribution_function(a, 0.125)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
