import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irlm import from_factors, geometry, make_identity, make_random_sign, matrices, prooftrace
from irlm.bounds import gamma_threshold
from irlm.errors import ParameterError
from irlm.matrices import distribution_function, min_pairwise_linf
from irlm.geometry import _independent_prefix as independent_prefix
from irlm.prooftrace import (
    TraceConfig,
    dumps_canonical,
    epsilon_choice,
    final_density_inequality,
    halve_by_density,
    large_small_split,
    net_inequality,
    trace,
)

from oracles import blocked_min_pairwise_linf, exact_min_pairwise_linf


# -- elementary steps -----------------------------------------------------------


def test_epsilon_choice_values():
    assert abs(epsilon_choice(1024, 64, 1.0) - math.log(512) / 128.0) <= 1e-15
    assert abs(epsilon_choice(1024, 64, 1.0) - 0.0487369) <= 1e-6
    assert epsilon_choice(1024, 4, 1.0) == 0.5
    # epsilon decreases toward zero as the net constant grows
    vals = [epsilon_choice(1024, 64, c) for c in (1.0, 4.0, 16.0, 256.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3


@given(
    st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=1, max_size=20),
    st.floats(min_value=0, max_value=1.5, allow_nan=False),
)
def test_large_small_split_properties(values, gamma):
    x = np.array(values)
    w, z = large_small_split(x, gamma)
    assert np.array_equal(w + z, x)
    assert not np.any((w != 0) & (z != 0))
    assert np.all(np.abs(z) <= gamma)
    assert np.all((np.abs(w) > gamma) | (w == 0))


def test_large_small_split_extremes():
    x = np.array([0.1, -0.2, 0.05])
    w, z = large_small_split(x, 0.5)
    assert np.all(w == 0) and np.array_equal(z, x)
    w, z = large_small_split(x, 0.01)
    assert np.array_equal(w, x) and np.all(z == 0)


def test_net_inequality_zero_support_convention():
    lhs, rhs, holds = net_inequality(4096, 16, 0, 0.5, 1.0)
    assert lhs == 1.0 * (0 + 16 * 0.5)  # the (e n / m)^m factor reads as 1
    assert not holds  # exp(8) < 4096 fails
    lhs2, _, holds2 = net_inequality(2, 16, 0, 0.5, 1.0)
    assert holds2


def test_net_inequality_example_value():
    lhs, rhs, holds = net_inequality(64, 16, 2, 0.5, 1.0)
    assert abs(lhs - (2.0 * math.log(8 * math.e) + 10.0)) <= 1e-12
    assert rhs == math.log(64)
    assert holds


def test_net_inequality_full_support():
    lhs, _, _ = net_inequality(4, 16, 16, 0.5, 1.0)
    assert lhs >= 16.0  # (e n / n)^n alone contributes n


def test_final_density_inequality_values():
    lhs, rhs, holds = final_density_inequality(0.1, 1024, 64, 1.0)
    assert abs(lhs - 0.29957) <= 1e-5
    assert abs(rhs - 0.024368) <= 1e-6
    assert holds
    lhs, _, _ = final_density_inequality(1.0, 1024, 64, 0.5)
    assert lhs == 0.0  # kappa = 2 C1 makes the log vanish
    _, rhs, _ = final_density_inequality(0.5, 3, 1, 1.0)
    assert abs(rhs - math.log(1.5) / 4.0) <= 1e-12


def test_final_density_kappa_zero_limit():
    lhs, rhs, holds = final_density_inequality(0.0, 1024, 64, 1.0)
    assert lhs == 0.0
    assert not holds
    lhs, rhs, holds = final_density_inequality(0.0, 2, 64, 1.0)
    assert holds  # rhs = 0 at N = 2


def test_halve_identity_keeps_everything():
    a = make_identity(12)
    kept, kappa, sub = halve_by_density(a, 0.5)
    assert kept.size == 12
    assert kappa == 1.0 / 12.0
    assert np.array_equal(sub.dense(), a.dense()[np.ix_(kept, kept)])


def test_halve_removes_constructed_outlier():
    mat = np.eye(8)
    mat[:, 3] = 0.9
    mat[3, 3] = 1.0
    a = from_factors(mat, np.eye(8), kind="custom")
    kept, kappa, sub = halve_by_density(a, 0.5)
    assert 3 not in kept
    assert kept.size == 7
    assert np.array_equal(sub.dense(), mat[np.ix_(kept, kept)])


def test_halve_keeps_at_least_half():
    for seed in (1, 2, 3):
        a = make_random_sign(64, 8, seed)
        for gamma in (0.05, 0.2, 0.5):
            kept, kappa, sub = halve_by_density(a, gamma)
            assert kept.size >= 32
            assert 0.0 <= kappa <= 1.0
            assert np.array_equal(sub.dense(), a.dense()[np.ix_(kept, kept)])
            # a precomputed profile of the same matrix gives the same result
            again = halve_by_density(a, gamma, distribution_function(a, gamma))
            assert np.array_equal(again[0], kept) and again[1] == kappa


# -- pairwise sup-norm separation -------------------------------------------------


@st.composite
def square_matrices(draw):
    """Square matrices that stress the bound-ordered search: uniform floats,
    a coarse lattice (ties), a lattice with a repeated row (distance 0), the
    identity plus lattice noise, and +-1 off the diagonal with a zero
    diagonal, where every bound is 1 and most distances are 2, so nearly
    every pair must be evaluated.  Sizes reach 48 rows (1128 pairs), so with
    a few rows per comparison block a row's candidates span many blocks."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(min_value=3, max_value=48)))
    kind = draw(st.sampled_from(["floats", "lattice", "repeated", "near_identity", "far"]))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "floats":
        return gen.uniform(-2.0, 2.0, (n, n))
    if kind == "far":
        mat = np.where(gen.random((n, n)) < 0.5, -1.0, 1.0)
        np.fill_diagonal(mat, 0.0)
        return mat
    mat = gen.integers(-4, 5, (n, n)) / 4.0
    if kind == "near_identity":
        return np.eye(n) + mat / 8.0
    if kind == "repeated" and n >= 2:
        src, dst = gen.choice(n, size=2, replace=False)
        mat[dst] = mat[src]
    return mat


@settings(max_examples=300)
@given(square_matrices(), st.sampled_from([1, 3, None]))
def test_min_pairwise_linf_equals_blocked_scan(mat, block_rows):
    # block_rows: candidate rows per comparison block (None: the default)
    n = mat.shape[0]
    entries = matrices._PAIR_BLOCK_ENTRIES if block_rows is None else block_rows * max(n, 1)
    with mock.patch.object(matrices, "_PAIR_BLOCK_ENTRIES", entries):
        dist, _, evaluated = min_pairwise_linf(mat)
    assert dist == blocked_min_pairwise_linf(mat)
    assert 0 <= evaluated <= n * (n - 1) // 2
    if n < 2:
        assert dist == math.inf and evaluated == 0
    elif np.unique(mat, axis=0).shape[0] < n:
        assert dist == 0.0


@given(square_matrices(), st.sampled_from([1, 3]), st.sampled_from([1, 3, None]))
def test_min_pairwise_linf_equals_blocked_scan_in_short_bound_tiles(mat, tile_rows, block_rows):
    # tile_rows: rows per tile of pair bounds; block_rows as above
    n = mat.shape[0]
    entries = matrices._PAIR_BLOCK_ENTRIES if block_rows is None else block_rows * max(n, 1)
    with mock.patch.multiple(
        matrices, _BOUND_TILE_ENTRIES=tile_rows * max(n, 1), _PAIR_BLOCK_ENTRIES=entries
    ):
        dist, _, evaluated = min_pairwise_linf(mat)
    assert dist == blocked_min_pairwise_linf(mat)
    assert 0 <= evaluated <= n * (n - 1) // 2


@pytest.mark.parametrize("tile_rows", [1, 3])
def test_min_pairwise_linf_evaluates_every_pair_once_in_short_bound_tiles(tile_rows):
    gen = np.random.default_rng(7)
    mat = np.where(gen.random((48, 48)) < 0.5, -1.0, 1.0)
    np.fill_diagonal(mat, 0.0)
    with mock.patch.object(matrices, "_BOUND_TILE_ENTRIES", tile_rows * 48):
        dist, _, evaluated = min_pairwise_linf(mat)
    assert dist == 2.0
    assert evaluated == 48 * 47 // 2


@pytest.mark.parametrize("kind", ["far", "sign"])
def test_min_pairwise_linf_holds_one_bound_tile_and_one_block(kind):
    # 384 rows: +-1 off a zero diagonal, where every pair is evaluated and
    # the blocks are full, and the columns of sign 384/384 seed 1.  Beyond
    # the input, one tile of bounds and one block of candidate rows may be
    # held, plus the index arrays of one block's pairs (128 KiB)
    if kind == "far":
        mat = np.where(np.random.default_rng(7).random((384, 384)) < 0.5, -1.0, 1.0)
        np.fill_diagonal(mat, 0.0)
    else:
        mat = np.ascontiguousarray(make_random_sign(384, 384, 1).dense().T)
    tracemalloc.start()
    try:
        dist, _, _ = min_pairwise_linf(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist == blocked_min_pairwise_linf(mat)
    assert peak <= 8 * (matrices._BOUND_TILE_ENTRIES + matrices._PAIR_BLOCK_ENTRIES) + (1 << 17)


def test_factored_search_subtracts_the_diagonal_in_its_own_bound_tiles():
    # factors off the lattice, as the trace's B = P Q: sign 384/64 with L
    # scaled by 1 + 2^-30.  The two GEMM outputs of a tile are its bounds and
    # their mirror, so the search holds about two tiles of 170 x 384 float64
    # (2.4 with the block's index arrays), not four
    a = make_random_sign(384, 64, 1)
    b = from_factors(a.left * (1 + 2.0**-30), a.right)
    assert b._signs is None
    tile = 8 * (matrices._BOUND_TILE_ENTRIES // 384) * 384
    tracemalloc.start()
    try:
        dist, _, _ = min_pairwise_linf(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist == 0.46875000043655746
    assert peak <= 3 * tile


def test_min_pairwise_linf_evaluates_every_pair_when_bounds_are_loose():
    # every bound is 1 and every distance 2: nothing can be pruned
    gen = np.random.default_rng(7)
    mat = np.where(gen.random((48, 48)) < 0.5, -1.0, 1.0)
    np.fill_diagonal(mat, 0.0)
    dist, _, evaluated = min_pairwise_linf(mat)
    assert dist == blocked_min_pairwise_linf(mat) == 2.0
    assert evaluated == 48 * 47 // 2


def test_min_pairwise_linf_memory_stays_linear_per_row():
    # the columns of sign 2048/2048 seed 1, as the volume check searches them:
    # beyond the 32 MB input only one 2 MB block of candidate rows may be
    # held, never row 0's (N-1) x N comparison nor an array per pair
    mat = np.ascontiguousarray(make_random_sign(2048, 2048, 1).dense().T)
    tracemalloc.start()
    try:
        dist, _, _ = min_pairwise_linf(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist == 0.8994140625
    assert peak < 6e6


def test_min_pairwise_linf_partitions_each_bound_tile_once(monkeypatch):
    # 384 x 384 +-1 off a zero diagonal: every pair is evaluated.  Each tile
    # partitions its bounds once; the remaining pairs are scanned in blocks
    # instead of re-partitioning the tile for every block
    mat = np.where(np.random.default_rng(7).random((384, 384)) < 0.5, -1.0, 1.0)
    np.fill_diagonal(mat, 0.0)
    calls, per_tile = [], []
    argpartition, tile_search = np.argpartition, matrices._tile_search

    def partition_spy(*args, **kwargs):
        calls.append(1)
        return argpartition(*args, **kwargs)

    def tile_spy(*args):
        before = len(calls)
        result = tile_search(*args)
        per_tile.append(len(calls) - before)
        return result

    monkeypatch.setattr(np, "argpartition", partition_spy)
    monkeypatch.setattr(matrices, "_tile_search", tile_spy)
    dist, _, evaluated = min_pairwise_linf(mat)
    assert (dist, evaluated) == (2.0, 384 * 383 // 2)
    assert per_tile == [1, 1, 1]


@st.composite
def exact_factors(draw):
    """Factors L (n x r) and R (r x n) of small integers times powers of two,
    so that every entry of L @ R is exact in any summation order: random
    lattice factors, the same with a repeated row of L (distance 0), and
    the identity plus lattice noise at r = n."""
    n = draw(st.integers(min_value=1, max_value=48))
    kind = draw(st.sampled_from(["lattice", "repeated", "near_identity"]))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    r = n if kind == "near_identity" else draw(st.integers(min_value=1, max_value=8))
    left = gen.integers(-4, 5, (n, r)) / 4.0
    right = gen.integers(-4, 5, (r, n)) / 2.0
    if kind == "near_identity":
        left = np.eye(n) + left / 16.0
        right = np.eye(n) + right / 16.0
    if kind == "repeated" and n >= 2:
        src, dst = gen.choice(n, size=2, replace=False)
        left[dst] = left[src]
    return left, right


@settings(max_examples=300)
@given(exact_factors(), st.sampled_from([None, 1, 3]), st.sampled_from([None, 1, 3]))
def test_min_pairwise_linf_of_factors_equals_blocked_scan_of_their_product(
    factors, tile_rows, block_rows
):
    # tile_rows: rows per tile of pair bounds; block_rows: candidate rows per
    # comparison block (None: the defaults)
    left, right = factors
    n = left.shape[0]
    tile = matrices._BOUND_TILE_ENTRIES if tile_rows is None else tile_rows * n
    block = matrices._PAIR_BLOCK_ENTRIES if block_rows is None else block_rows * n
    with mock.patch.multiple(matrices, _BOUND_TILE_ENTRIES=tile, _PAIR_BLOCK_ENTRIES=block):
        dist, _, evaluated = min_pairwise_linf(from_factors(left, right))
    assert dist == blocked_min_pairwise_linf(left @ right)
    assert 0 <= evaluated <= n * (n - 1) // 2


def _search_margin(left, right):
    # the rounding margin min_pairwise_linf's docstring states
    rank = left.shape[1]
    rho = np.linalg.norm(left, axis=1).max() * np.linalg.norm(right, axis=0).max()
    return 4 * (rank + 2) * np.finfo(np.float64).eps * rho


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
    st.sampled_from([None, 1, 3]),
)
def test_min_pairwise_linf_of_float_factors_is_within_its_margin(n, rank, seed, repeat, tile_rows):
    # float factors: the tiles, the diagonal and the gathered rows compute
    # the product's entries in different orders, so the result may differ
    # from the dense scan of one GEMM, but by no more than the stated margin
    gen = np.random.default_rng(seed)
    left = gen.uniform(-2.0, 2.0, (n, rank))
    right = gen.uniform(-2.0, 2.0, (rank, n))
    if repeat:
        left[1] = left[0]
    tile = matrices._BOUND_TILE_ENTRIES if tile_rows is None else tile_rows * n
    with mock.patch.multiple(matrices, _BOUND_TILE_ENTRIES=tile, _PAIR_BLOCK_ENTRIES=tile):
        dist, _, evaluated = min_pairwise_linf(from_factors(left, right))
    assert abs(dist - blocked_min_pairwise_linf(left @ right)) <= _search_margin(left, right)
    assert 0 < evaluated <= n * (n - 1) // 2


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["uniform", "repeated", "near_lattice"]),
    st.sampled_from([None, 1, 3]),
)
def test_min_pairwise_linf_of_float_factors_brackets_the_exact_minimum(
    n, rank, seed, kind, tile_rows
):
    # no pair of rows of the exact product is closer than distance - margin,
    # and the exact minimum is within the margin of the distance: checked
    # against the minimum in rational arithmetic, on uniform factors, on a
    # repeated row, and on half-integer factors a few ulps off the lattice,
    # where many pairs tie or nearly tie
    gen = np.random.default_rng(seed)
    if kind == "near_lattice":
        ulps = 1.0 + gen.integers(-2, 3, (2, n * rank)) * np.finfo(np.float64).eps
        left = gen.integers(-2, 3, (n, rank)) / 2.0 * ulps[0].reshape(n, rank)
        right = gen.integers(-2, 3, (rank, n)) / 2.0 * ulps[1].reshape(rank, n)
    else:
        left = gen.uniform(-2.0, 2.0, (n, rank))
        right = gen.uniform(-2.0, 2.0, (rank, n))
    if kind == "repeated":
        left[1] = left[0]
    tile = matrices._BOUND_TILE_ENTRIES if tile_rows is None else tile_rows * n
    with mock.patch.multiple(matrices, _BOUND_TILE_ENTRIES=tile, _PAIR_BLOCK_ENTRIES=tile):
        dist, margin, _ = min_pairwise_linf(from_factors(left, right))
    exact = exact_min_pairwise_linf(left, right)
    assert Fraction(dist) - Fraction(margin) <= exact <= Fraction(dist) + Fraction(margin)


@pytest.mark.parametrize("n", [256, 512])
def test_min_pairwise_linf_of_factored_hadamard_ties_evaluates_as_the_dense_scan(n):
    # for the Sylvester-Hadamard H, H / N @ H' is the N x N identity, exactly:
    # every pair of rows ties at distance 1 with bound 1, so the first pair
    # evaluated settles the search, on the factors as on the dense identity
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    dist, _, evaluated = min_pairwise_linf(from_factors(h / n, h.T))
    dense_dist, dense_margin, dense_evaluated = min_pairwise_linf(np.eye(n))
    assert dist == dense_dist == 1.0 and dense_margin == 0.0
    assert evaluated == dense_evaluated


def test_min_pairwise_linf_of_factored_b_prunes_on_sign_384_64(monkeypatch):
    # the factored B of the lemmaB trace of sign 384/64 seed 1: the search
    # equals the dense scan of P @ Q after at most 1% of the pairs
    seen = []

    def spy(mat):
        result = min_pairwise_linf(mat)
        seen.append((mat, result))
        return result

    monkeypatch.setattr(prooftrace, "min_pairwise_linf", spy)
    gamma = gamma_threshold(384, 64, 0.25)
    report = trace(make_random_sign(384, 64, 1), TraceConfig(gamma=gamma, basis_mode="lemmaB"))
    ((b_sub, (dist, margin, evaluated)),) = seen
    assert isinstance(b_sub, matrices.FactoredMatrix)
    n = b_sub.n_dim
    assert dist == blocked_min_pairwise_linf(b_sub.left @ b_sub.right)
    assert report.step("separation").outputs["min_pairwise_distance"] == dist
    # the check reads the certified lower end
    assert report.step("separation").check.lhs == dist - margin > 0.0
    assert evaluated <= 0.01 * n * (n - 1) / 2


def test_min_pairwise_linf_trace_tail_holds_no_square_array(monkeypatch):
    # lemmaB on sign 4096/64 keeps all 4096 rows (|I| x |I| float64 is
    # 128 MB).  From the large/small split on, B and the small parts' inner
    # products are read in row tiles, so the peak, including what the trace
    # already holds, stays below one |I| x |I| array (about 40 MB here)
    split = prooftrace.large_small_split

    def split_spy(x, gamma):
        tracemalloc.reset_peak()
        return split(x, gamma)

    monkeypatch.setattr(prooftrace, "large_small_split", split_spy)
    gamma = gamma_threshold(4096, 64, 0.25)
    a = make_random_sign(4096, 64, 1)
    tracemalloc.start()
    try:
        report = trace(a, TraceConfig(gamma=gamma, basis_mode="lemmaB"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = report.step("row_selection").outputs["I"]
    assert rows == 4096
    assert peak < 8 * rows * rows


@pytest.mark.parametrize("n_dim, rank, basis", [(96, 96, "lemmaA"), (384, 64, "lemmaB")])
def test_trace_reads_only_the_contact_columns(monkeypatch, n_dim, rank, basis):
    # row selection reads the k contact columns of the kept submatrix; no
    # step materializes all of its columns
    seen = []
    materialize = matrices._materialize

    def spy(a, cols=None):
        seen.append((a.n_dim, cols))
        return materialize(a, cols)

    monkeypatch.setattr(matrices, "_materialize", spy)
    gamma = gamma_threshold(n_dim, rank, 0.25)
    trace(make_random_sign(n_dim, rank, 1), TraceConfig(gamma=gamma, basis_mode=basis))
    assert seen
    for n_kept, cols in seen:
        assert cols is not None
        assert np.unique(cols).size < n_kept


def test_contact_selection_reaches_target_on_sign_512_48(monkeypatch):
    # all 48 contacts here are independent; an absolute 1e-12 floor on their
    # D-Gram determinant kept only 41 of them, below the target of 46
    seen = []

    def spy(vectors, ell):
        kept = independent_prefix(vectors, ell)
        seen.append(len(kept))
        return kept

    monkeypatch.setattr(geometry, "_independent_prefix", spy)
    gamma = gamma_threshold(512, 48, 0.25)
    report = trace(make_random_sign(512, 48, 1), TraceConfig(gamma=gamma))
    assert seen == [48]
    step = report.step("contact_selection")
    assert (step.inputs["target_k"], step.outputs["k"]) == (46, 46)
    assert report.holds("contact_selection")
    assert report.step("frame_completion").outputs["complement"] == 2


@pytest.mark.parametrize("n_dim, rank", [(96, 96), (256, 32)])
def test_lemma_a_trace_factors_the_ellipsoid_shape_once(monkeypatch, n_dim, rank):
    # mvee's certificate, contact selection, frame completion and the
    # expansion all whiten with the one Cholesky factor of the ellipsoid
    shapes = []
    factored = []
    mvee, cholesky = geometry.mvee, np.linalg.cholesky

    def mvee_spy(points, tol):
        ell, contacts = mvee(points, tol)
        shapes.append(ell.shape)
        return ell, contacts

    def cholesky_spy(a):
        factored.append(np.array(a))
        return cholesky(a)

    monkeypatch.setattr(geometry, "mvee", mvee_spy)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky_spy)
    gamma = gamma_threshold(n_dim, rank, 0.25)
    trace(make_random_sign(n_dim, rank, 1), TraceConfig(gamma=gamma))
    (shape,) = shapes
    assert sum(np.array_equal(a, shape) for a in factored) == 1


# -- canonical serialization -------------------------------------------------------


def test_canonical_floats():
    assert dumps_canonical(-0.0) == "0\n"
    assert dumps_canonical(0.5) == "0.5\n"
    assert dumps_canonical(1.0 / 3.0) == "0.33333333333333331\n"
    assert dumps_canonical({"a": True, "b": None, "c": [1, 2]}) == (
        '{\n  "a": true,\n  "b": null,\n  "c": [\n    1,\n    2\n  ]\n}\n'
    )


def test_canonical_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps_canonical(math.nan)
    with pytest.raises(ValueError):
        dumps_canonical(math.inf)


# -- full traces --------------------------------------------------------------------


def test_identity_trace_all_steps_hold():
    report = trace(make_identity(16), TraceConfig(gamma=0.01))
    assert report.premise_ok
    names = [s.name for s in report.steps]
    assert names == [
        "premise",
        "density_halving",
        "rank_factorization",
        "mvee",
        "contact_selection",
        "frame_completion",
        "expansion",
        "norm_chain",
        "l1_bound",
        "gate",
        "row_selection",
        "large_small_split",
        "matrix_B",
        "separation",
        "support_bookkeeping",
        "net_inequality",
        "final_density",
    ]
    for step in report.steps:
        if step.check is not None:
            assert step.check.holds, step.name
    assert report.measured_constants["kappa"] == 1.0 / 16.0


def test_manual_eps_can_fail_gate_and_downstream_still_reported():
    base = TraceConfig(gamma=0.017)
    ok = trace(make_identity(16), base)
    assert ok.holds("gate")
    assert ok.config["eps_rule"] == "paper"
    flipped = trace(make_identity(16), TraceConfig(gamma=0.017, manual_eps=0.001))
    assert not flipped.holds("gate")
    assert flipped.config["eps_rule"] == "manual"
    assert flipped.measured_constants["eps"] == 0.001
    for name in ("matrix_B", "separation", "net_inequality", "final_density"):
        assert flipped.holds(name)


def test_premise_violation_reported_not_raised():
    a = make_random_sign(16, 4, 1)
    report = trace(a, TraceConfig(gamma=0.25))
    assert not report.premise_ok
    assert not report.step("premise").check.holds
    assert report.step("final_density").check is not None


def test_lemma_b_branch_runs_and_is_labeled():
    a = make_random_sign(64, 16, 2)
    gamma = gamma_threshold(64, 16, 0.25)
    report = trace(a, TraceConfig(gamma=gamma, basis_mode="lemmaB"))
    assert report.basis_mode == "lemmaB"
    names = [s.name for s in report.steps]
    assert "auerbach_basis" in names and "mvee" not in names
    assert "reconstructed" in report.step("auerbach_basis").notes
    assert report.measured_constants["c0_hat"] is None
    assert report.holds("l1_bound")


def test_trace_fixture_measured_invariants():
    a = make_random_sign(64, 16, 3)
    gamma = gamma_threshold(64, 16, 0.25)
    report = trace(a, TraceConfig(gamma=gamma))
    # reconstruction and norm chain always hold
    assert report.holds("expansion")
    assert report.holds("norm_chain")
    assert report.holds("l1_bound")
    # support bookkeeping: every selected row has at most m large entries
    assert report.holds("support_bookkeeping")
    m = report.measured_constants["m"]
    k = report.measured_constants["k"]
    kappa = report.measured_constants["kappa"]
    assert m == math.floor(2 * kappa * k)


def test_trace_reports_are_byte_identical():
    a = make_random_sign(64, 16, 5)
    gamma = gamma_threshold(64, 16, 0.25)
    r1 = trace(a, TraceConfig(gamma=gamma)).to_json()
    r2 = trace(make_random_sign(64, 16, 5), TraceConfig(gamma=gamma)).to_json()
    assert r1 == r2


def test_premise_satisfying_noisy_identity_passes_every_step():
    # full-rank identity plus +-0.008 off-diagonal noise: the premise holds,
    # gamma = 0.01 splits rows into a nontrivial large/small decomposition
    # (w = diagonal spike, z = noise), and the entire chain must validate
    gen = np.random.default_rng(424242)
    n_dim = 12
    noise = 0.008 * np.where(gen.random((n_dim, n_dim)) < 0.5, -1.0, 1.0)
    np.fill_diagonal(noise, 0.0)
    mat = from_factors(np.eye(n_dim) + noise, np.eye(n_dim), kind="custom")
    report = trace(mat, TraceConfig(gamma=0.01))
    assert report.premise_ok
    for step in report.steps:
        if step.check is not None:
            assert step.check.holds, step.name
    split = report.step("large_small_split")
    assert split.outputs["max_small_inner"] > 0.0  # the split actually bites
    assert split.outputs["max_small_inner"] <= 1.0 / 15.0


@pytest.mark.parametrize("n_dim, seed", [(160, 1), (256, 2)])
def test_premise_holding_sign_traces_pass_every_step(n_dim, seed):
    # full-rank sign fixtures where the premise holds; rounding alone once
    # missed frame_completion's absolute 1e-10 orthogonality here (1.5e-9
    # and 1.0e-10)
    gamma = gamma_threshold(n_dim, n_dim, 0.25)
    report = trace(make_random_sign(n_dim, n_dim, seed), TraceConfig(gamma=gamma))
    assert report.premise_ok
    failed = [s.name for s in report.steps if s.check is not None and not s.check.holds]
    assert failed == []
    assert report.step("frame_completion").check.lhs <= 1e-14


@pytest.mark.parametrize("n_dim, seed", [(96, 1), (96, 2), (96, 3), (96, 4), (256, 1)])
def test_l1_bound_facets_are_the_seeded_pattern_set(n_dim, seed):
    # the facet count depends on k and the seed alone; the signs of the
    # expansion's rounding-noise coefficients used to join the pattern set,
    # which made it follow the BLAS (97 at 96/96 and 257 at 256/256 seed 1)
    gamma = gamma_threshold(n_dim, n_dim, 0.25)
    report = trace(make_random_sign(n_dim, n_dim, seed), TraceConfig(gamma=gamma))
    k = report.measured_constants["k"]
    patterns = geometry._sample_patterns(k, prooftrace.L1_SAMPLES, prooftrace.SAMPLE_SEED)
    assert report.step("l1_bound").inputs["facets"] == len(patterns)


def test_mvee_certificate_residual_is_at_rounding_on_sign_256_256():
    # the John certificate sum w (L'p)(L'p)' = I through the Cholesky factor
    # of the shape; an eigh-based square root read 4.5e-2 here
    gamma = gamma_threshold(256, 256, 0.25)
    report = trace(make_random_sign(256, 256, 1), TraceConfig(gamma=gamma))
    assert report.step("mvee").outputs["certificate_residual"] <= 1e-10


def test_structural_failure_aborts_with_step_name():
    from irlm.errors import TraceAborted

    zero = from_factors(np.zeros((8, 1)), np.zeros((1, 8)), kind="custom")
    with pytest.raises(TraceAborted) as exc:
        trace(zero, TraceConfig(gamma=0.1))
    assert exc.value.step == "rank_factorization"


def test_trace_config_validation():
    for gamma in (-0.1, math.nan, math.inf):
        with pytest.raises(ParameterError):
            TraceConfig(gamma=gamma)
    for manual_eps in (0.0, 1.5):
        with pytest.raises(ParameterError):
            TraceConfig(gamma=0.1, manual_eps=manual_eps)
    with pytest.raises(ParameterError):
        TraceConfig(gamma=0.1, basis_mode="other")
    with pytest.raises(ParameterError):
        TraceConfig(gamma=0.1, c_net=0.0)
