"""Rank-constrained approximations of the identity and elementwise metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from . import rng
from .errors import ConstructionError, ParameterError

KIND_IDENTITY = 0
KIND_RANDOM_SIGN = 1
KIND_BLOCK_SPARSE = 2

KIND_NAMES = {
    KIND_IDENTITY: "identity",
    KIND_RANDOM_SIGN: "random_sign",
    KIND_BLOCK_SPARSE: "block_sparse",
}
KIND_CODES = {name: code for code, name in KIND_NAMES.items()}


@dataclass(frozen=True)
class Provenance:
    """Construction descriptor: enough to rebuild the matrix exactly."""

    kind: str
    seed: int | None = None
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class FactoredMatrix:
    """N x N matrix stored as left (N x r) times right (r x N).

    The materialized product has rank at most r by construction.  Instances
    are immutable and their factors finite; the dense form is computed
    lazily and cached.  Every matrix is computed in row tiles as V / w (see
    ``_gram_tiles``).  For the library kinds and the files they are written
    to, V is an exact integer Gram, computed in float32, and w a per-row
    integer scale, so the diagonal is exactly 1 and values are identical
    across platforms and BLAS implementations.
    """

    n_dim: int
    rank_budget: int
    left: np.ndarray
    right: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        if self.n_dim < 1:
            raise ParameterError(f"n_dim must be >= 1, got {self.n_dim}")
        if self.rank_budget < 1:
            raise ParameterError(f"rank_budget must be >= 1, got {self.rank_budget}")
        left = np.ascontiguousarray(np.asarray(self.left, dtype=np.float64))
        right = np.ascontiguousarray(np.asarray(self.right, dtype=np.float64))
        if left.shape != (self.n_dim, self.rank_budget):
            raise ParameterError(
                f"left factor shape {left.shape} != ({self.n_dim}, {self.rank_budget})"
            )
        if right.shape != (self.rank_budget, self.n_dim):
            raise ParameterError(
                f"right factor shape {right.shape} != ({self.rank_budget}, {self.n_dim})"
            )
        # min and max propagate NaN, so four reductions check every entry
        # without an array-sized temporary
        if not np.all(np.isfinite([left.min(), left.max(), right.min(), right.max()])):
            raise ParameterError("factor entries must be finite")
        left.flags.writeable = False
        right.flags.writeable = False
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @cached_property
    def _row_scale(self) -> np.ndarray | None:
        return _lattice_scale(self.left, self.right)

    @cached_property
    def _dense(self) -> np.ndarray:
        mat = _materialize(self)
        mat.flags.writeable = False
        return mat

    def dense(self) -> np.ndarray:
        """Dense row-major materialization (read-only view, cached)."""
        return self._dense


# Entries per row tile of the statistics pass and of the dense form (8 MB
# of float32 Gram on the lattice, 16 MB of float64 off it).
_TILE_ENTRIES = 1 << 21

# Largest rank * max |R| of a lattice: float32 holds every integer up to
# 2^24, so every partial sum of the Gram is exact in any summation order.
_LATTICE_BOUND = 2.0**24


def _lattice_scale(left: np.ndarray, right: np.ndarray) -> np.ndarray | None:
    """Row scales w when the factors lie on an exact sign lattice, else None.

    The lattice: every row of L is sign(L[i]) / w_i for an integer w_i >= 1,
    and R is integer-valued with rank * max |R| <= 2^24.  Then
    A = (sign(L) @ R) / w[:, None], where sign(L) @ R is an integer Gram,
    exact in float32 in any summation order, and every entry is one
    correctly rounded float64 division.
    """
    n_dim, rank = left.shape
    peak = np.abs(left).max(axis=1)
    with np.errstate(divide="ignore"):
        scale = np.where(peak > 0, np.rint(1.0 / peak), 1.0)
    exact = (
        bool(np.all(np.isfinite(scale) & (scale >= 1.0)))
        and np.array_equal(left, np.sign(left) / scale[:, None])
        and np.array_equal(right, np.rint(right))
        and float(np.abs(right).max()) * rank <= _LATTICE_BOUND
    )
    return scale if exact else None


def _tile_bounds(n_dim: int) -> list[tuple[int, int]]:
    step = max(1, _TILE_ENTRIES // n_dim)
    return [(start, min(n_dim, start + step)) for start in range(0, n_dim, step)]


def _gram_tiles(a: FactoredMatrix):
    """Yield (start, V, w) over every row tile, with A[start:stop] = V / w
    row by row: the float32 integer Gram sign(L) @ R and the row scales on
    the lattice, the float64 product L @ R and None (w = 1) off it.  V is
    one reused buffer, valid until the next tile, which the caller may
    overwrite.  The float32 factors are made per pass, so a matrix holds no
    copy of its factors between passes."""
    scale = a._row_scale
    right = a.right if scale is None else a.right.astype(np.float32)
    bounds = _tile_bounds(a.n_dim)
    buf = np.empty((bounds[0][1], a.n_dim), dtype=right.dtype)
    for start, stop in bounds:
        lead = a.left[start:stop]
        if scale is not None:
            lead = np.sign(lead).astype(np.float32)
        values = np.matmul(lead, right, out=buf[: stop - start])
        yield start, values, None if scale is None else scale[start:stop]


def _materialize(a: FactoredMatrix) -> np.ndarray:
    # Assembled from the same row tiles the statistics pass computes, so
    # both see identical values even where the float product depends on the
    # tile height.
    mat = np.empty((a.n_dim, a.n_dim))
    for start, values, scale in _gram_tiles(a):
        rows = mat[start : start + values.shape[0]]
        if scale is None:
            rows[...] = values
        else:
            np.divide(values, scale[:, None], out=rows)
    return mat


def make_identity(n_dim: int) -> FactoredMatrix:
    if n_dim < 1:
        raise ParameterError(f"N must be >= 1, got {n_dim}")
    eye = np.eye(n_dim)
    return FactoredMatrix(n_dim, n_dim, eye, eye.copy(), Provenance("identity", 0))


def make_random_sign(n_dim: int, rank: int, seed: int) -> FactoredMatrix:
    """Sign-vector Gram approximation: A[i, j] = <x_i, x_j> / rank.

    Row i of the sign matrix is keyed by (seed, kind, i*rank + column), so
    the construction is reproducible entry by entry.  The diagonal is
    exactly 1 and off-diagonal entries live on the lattice {-1 + 2k/rank}.
    """
    if not 1 <= rank <= n_dim:
        raise ParameterError(f"need 1 <= n <= N, got n={rank}, N={n_dim}")
    x = rng.sign_matrix(n_dim, rank, seed, KIND_RANDOM_SIGN)
    return FactoredMatrix(
        n_dim,
        rank,
        x / rank,
        x.T.copy(),
        Provenance("random_sign", int(seed)),
    )


# Draws of one random block of make_block_sparse before the first is kept.
_BLOCK_ATTEMPTS = 16


def _block_seed(master: int, block: int, attempt: int) -> int:
    # Block 0, attempt 0 uses the master seed unchanged so that a single
    # block construction coincides bit for bit with make_random_sign.
    if block == 0 and attempt == 0:
        return int(master)
    return rng.derive_key(master, KIND_BLOCK_SPARSE, block, attempt)


def make_block_sparse(
    n_dim: int,
    rank: int,
    seed: int,
    alpha: float = 1.0,
    beta: float = 8.0,
) -> FactoredMatrix:
    """Block-diagonal identity approximation with O(log(N)/n) fill.

    Block size B = min(N, ceil(alpha * N * ln(N) / n)); the rank budget is
    split evenly over the ceil(N/B) blocks.  A block whose share covers its
    size becomes an exact identity block; otherwise it is a random-sign
    approximation, which must be allotted at least ceil(beta * ln(B+1))
    columns or the sizing is infeasible (for a single block this is the
    precondition n >= beta * ln(N+1)).  Each random block is drawn up to
    _BLOCK_ATTEMPTS times looking for block error <= 1/3; if no attempt
    reaches that, the first attempt is kept and the shortfall is recorded
    in the provenance.
    """
    if not 1 <= rank <= n_dim:
        raise ParameterError(f"need 1 <= n <= N, got n={rank}, N={n_dim}")
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise ParameterError("alpha and beta must be positive and finite")
    log_n = math.log(n_dim) if n_dim > 1 else 0.0
    block_size = max(1, min(n_dim, math.ceil(alpha * n_dim * log_n / rank)))
    n_blocks = math.ceil(n_dim / block_size)
    if n_blocks > rank:
        raise ConstructionError(
            f"infeasible sizing: {n_blocks} blocks of size {block_size} exceed "
            f"the rank budget n={rank} at one column per block"
        )
    sizes = [block_size] * (n_blocks - 1) + [n_dim - (n_blocks - 1) * block_size]
    base_share, extra = divmod(rank, n_blocks)
    shares = [base_share + (1 if b < extra else 0) for b in range(n_blocks)]
    ranks = [min(share, size) for share, size in zip(shares, sizes)]
    for b, (size, r_b) in enumerate(zip(sizes, ranks)):
        if r_b == size:
            continue  # exact identity block, no probabilistic sizing needed
        required = math.ceil(beta * math.log(size + 1))
        if r_b < required:
            raise ConstructionError(
                f"infeasible sizing: block {b} of size {size} gets rank {r_b}, "
                f"below the required ceil(beta*ln(B+1))={required}"
            )

    left = np.zeros((n_dim, rank))
    right = np.zeros((rank, n_dim))
    blocks = []
    attempts_used = []
    block_errors = []
    row = 0
    col = 0
    for b, (size, r_b) in enumerate(zip(sizes, ranks)):
        exact = r_b == size
        if exact:
            left[row : row + size, col : col + r_b] = np.eye(size)
            right[col : col + r_b, row : row + size] = np.eye(size)
            attempts_used.append(0)
            block_errors.append(0.0)
        else:
            chosen = None
            for attempt in range(_BLOCK_ATTEMPTS):
                x = rng.sign_matrix(size, r_b, _block_seed(seed, b, attempt), KIND_RANDOM_SIGN)
                # x x^T is an exact integer Gram and division is monotone,
                # so one division of its off-diagonal maximum is the error
                gram = x @ x.T
                np.fill_diagonal(gram, 0.0)
                err = float(np.abs(gram).max()) / r_b
                if chosen is None:
                    chosen = (x, err, attempt)
                if err <= 1.0 / 3.0:
                    chosen = (x, err, attempt)
                    break
            x, err, attempt = chosen
            left[row : row + size, col : col + r_b] = x / r_b
            right[col : col + r_b, row : row + size] = x.T
            attempts_used.append(attempt)
            block_errors.append(float(err))
        blocks.append((row, size, r_b, col, exact))
        row += size
        col += r_b
    params = {
        "alpha": float(alpha),
        "beta": float(beta),
        "block_size": block_size,
        "n_blocks": n_blocks,
        "blocks": tuple(blocks),
        "attempts": tuple(attempts_used),
        "block_errors": tuple(block_errors),
    }
    return FactoredMatrix(n_dim, rank, left, right, Provenance("block_sparse", int(seed), params))


def from_factors(
    left: np.ndarray,
    right: np.ndarray,
    kind: str = "custom",
    seed: int | None = None,
    **params: Any,
) -> FactoredMatrix:
    """Wrap explicit factors.  The rank budget is the inner dimension, which
    library constructors keep at most N but hand-built factors may exceed."""
    left = np.atleast_2d(np.asarray(left, dtype=np.float64))
    right = np.atleast_2d(np.asarray(right, dtype=np.float64))
    return FactoredMatrix(left.shape[0], left.shape[1], left, right, Provenance(kind, seed, params))


def submatrix(a: FactoredMatrix, indices: np.ndarray) -> FactoredMatrix:
    """Principal submatrix on the given indices, still in factored form."""
    indices = np.asarray(indices, dtype=np.intp)
    if indices.size == 0:
        raise ParameterError("submatrix needs at least one index")
    return FactoredMatrix(
        int(indices.size),
        a.rank_budget,
        a.left[indices],
        np.ascontiguousarray(a.right[:, indices]),
        Provenance(
            "custom", a.provenance.seed, {"parent": a.provenance.kind, "size": int(indices.size)}
        ),
    )


def approx_error(a: FactoredMatrix) -> float:
    """max_{i,j} |A[i, j] - delta[i, j]|: the elementwise distance to I."""
    return distribution_function(a, 0.0).error


@dataclass(frozen=True)
class DensityProfile:
    """Large-entry statistics of a matrix at one threshold, and its
    elementwise distance to the identity."""

    gamma: float
    global_density: float
    column_densities: np.ndarray
    nnz_fraction: float
    error: float

    def __post_init__(self):
        cols = np.asarray(self.column_densities, dtype=np.float64)
        cols.flags.writeable = False
        object.__setattr__(self, "column_densities", cols)


def _integer_cut(gamma: float, scale: np.ndarray) -> np.ndarray:
    """Per row, the largest integer t <= 2^24 with fl(t / w) <= gamma.

    fl(v / w) is monotone in v, so for every integer v in [0, 2^24],
    fl(v / w) > gamma exactly when v > t.  floor(fl(gamma * w)) is at most
    one away from t; one step each way settles it.
    """
    with np.errstate(over="ignore"):
        cut = np.minimum(np.floor(gamma * scale), _LATTICE_BOUND)
    cut += (cut + 1.0) / scale <= gamma
    cut -= cut / scale > gamma
    return np.minimum(cut, _LATTICE_BOUND)


def _tile_stats(
    start: int, values: np.ndarray, scale: np.ndarray | None, gamma: float
) -> tuple[np.ndarray, int, float]:
    """Column counts of |A| > gamma, nonzero count and max |A - I| over the
    row tile A = V / w that starts at row `start` (w None: A = V).  On the
    lattice the counts compare |V| with the integer cut of each row and the
    error divides one maximum per row, so the tile is never divided.  V is
    overwritten.  A function of its own so that a tile's temporaries are
    freed before the next tile is computed."""
    local = np.arange(values.shape[0])
    diag = (local, start + local)
    diag_dev = values[diag].astype(np.float64)
    if scale is None:
        cut = gamma
    else:
        diag_dev /= scale
        cut = _integer_cut(gamma, scale).astype(values.dtype)[:, None]
    diag_dev -= 1.0
    mags = np.abs(values, out=values)
    mask = mags > cut
    counts = mask.sum(axis=0, dtype=np.int32)
    nnz = int(np.count_nonzero(np.not_equal(mags, 0, out=mask)))
    mags[diag] = 0
    row_max = mags.max(axis=1).astype(np.float64)
    if scale is not None:
        row_max /= scale
    return counts, nnz, float(max(row_max.max(), np.abs(diag_dev).max()))


def distribution_function(a: FactoredMatrix, gamma: float) -> DensityProfile:
    """Fraction of ordered pairs (i, j) with |A[i, j]| strictly above gamma,
    together with per-column densities, the exact nonzero fraction and
    max |A - I|, from one pass over the ``_gram_tiles`` row tiles at every
    N: the pass neither reads nor builds the dense form."""
    if gamma < 0:
        raise ParameterError(f"gamma must be >= 0, got {gamma}")
    n = a.n_dim
    col_counts = np.zeros(n, dtype=np.int64)
    nnz = 0
    error = 0.0
    for start, values, scale in _gram_tiles(a):
        counts, tile_nnz, tile_error = _tile_stats(start, values, scale, gamma)
        col_counts += counts
        nnz += tile_nnz
        error = max(error, tile_error)
    return DensityProfile(
        gamma=float(gamma),
        global_density=float(col_counts.sum()) / (n * n),
        column_densities=col_counts / n,
        nnz_fraction=float(nnz) / (n * n),
        error=error,
    )


# Entries of the candidate rows one comparison block of min_pairwise_linf
# holds (2 MB of float64).
_PAIR_BLOCK_ENTRIES = 1 << 18


def min_pairwise_linf(mat: np.ndarray) -> tuple[float, int]:
    """Smallest sup-norm distance between two rows of the square matrix
    `mat` (inf below two rows), and the number of row pairs evaluated.

    Columns i and j give every pair the lower bound
    L[i, j] = max(|m_ij - m_jj|, |m_ji - m_ii|) <= ||m_i - m_j||_inf, with
    the same IEEE values the full distance takes its maximum over.  Row i is
    compared, in blocks of rows, with exactly the j > i whose L is below the
    best distance found before the block, so the result is the exact minimum
    and the extra memory is one block.
    """
    n = mat.shape[0]
    diag = np.diagonal(mat)
    block = max(1, _PAIR_BLOCK_ENTRIES // max(n, 1))
    best, evaluated = math.inf, 0
    for i in range(n - 1):
        row, col = mat[i, i + 1 :] - diag[i + 1 :], mat[i + 1 :, i] - diag[i]
        bound = np.maximum(np.abs(row), np.abs(col))
        js = np.flatnonzero(bound < best)
        while js.size:
            head, js = js[:block], js[block:]
            diff = mat[i + 1 + head]
            diff -= mat[i]
            best = min(best, float(np.abs(diff, out=diff).max(axis=1).min()))
            evaluated += head.size
            js = js[bound[js] < best]
    return best, evaluated


def numerical_rank(a: FactoredMatrix, tol: float) -> int:
    """Count of singular values above tol times the largest one.  With
    L = QR they are those of the thin core R @ right; Q is never formed."""
    if not 0 < tol < 1:
        raise ParameterError(f"tol must be in (0, 1), got {tol}")
    s = np.linalg.svd(np.linalg.qr(a.left, mode="r") @ a.right, compute_uv=False)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))
