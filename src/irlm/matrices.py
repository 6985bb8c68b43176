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
    are immutable and their factors finite; no dense copy is kept, and
    ``dense`` computes the columns asked for on each call.  Every matrix is
    computed in row tiles as V / w (see ``_gram_tiles``).  The library
    kinds, their slices and the files they are written to lie on the sign
    lattice L = S / w[:, None], R = S' (see ``_lattice_scale``): V is then
    the symmetric integer Gram S S', exact in float32, and w a per-row
    integer scale, so the diagonal is exactly 1 and values are identical
    across platforms and BLAS implementations.  The statistics pass
    computes only V's upper band, in band tiles of the same loop; ``dense``
    always takes full-row tiles.  The library constructors record w on the
    instance; for other factors, files read back included, it is detected
    from the factors on first use.
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
        # without an array-sized temporary.  A product entry sums r terms of
        # at most max|L| max|R| each; that bound is taken in Python floats.
        l_lo, l_hi, r_lo, r_hi = map(float, (left.min(), left.max(), right.min(), right.max()))
        if not all(map(math.isfinite, (l_lo, l_hi, r_lo, r_hi))):
            raise ParameterError("factor entries must be finite")
        if max(-l_lo, l_hi) * max(-r_lo, r_hi) * self.rank_budget > np.finfo(np.float64).max:
            raise ParameterError("factor product may overflow float64")
        left.flags.writeable = False
        right.flags.writeable = False
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @cached_property
    def _row_scale(self) -> np.ndarray | None:
        return _lattice_scale(self.left, self.right)

    def dense(self, cols: np.ndarray | None = None) -> np.ndarray:
        """A[:, cols] (all of A by default), row-major, computed from the row
        tiles on every call."""
        return _materialize(self, cols)


# Entries per row tile of the statistics pass and of the dense form (8 MB
# of float32 Gram on the lattice, 16 MB of float64 off it).
_TILE_ENTRIES = 1 << 21

# Entries per row tile of a factor's transposed copy (256 KB of float64,
# which stays in a core's L2 cache while the tile is written).
_SCAN_ENTRIES = 1 << 15

# Rows per band tile of the symmetric statistics pass, at most one tile of
# entries.  Bands of 2^20 / N rows cover the whole matrix up to N = 1024,
# where 256-row bands took 0.55-0.75 of the time; from N = 2048 to 8192,
# 64 to 512 rows measured alike.
_BAND_ROWS = 256

# Largest rank of a lattice: float32 holds every integer up to 2^24, so
# every partial sum of the Gram is exact in any summation order.
_LATTICE_BOUND = 2.0**24


def _lattice_scale(left: np.ndarray, right: np.ndarray) -> np.ndarray | None:
    """Row scales w when the factors lie on the sign lattice, else None.

    The lattice: L = S / w[:, None] and R = S' for a sign matrix S with
    entries in {-1, 0, 1}, integer row scales w_i >= 1 and rank <= 2^24.
    Then A = (S S') / w[:, None], where S S' is a symmetric integer Gram,
    exact in float32 in any summation order, and every entry is one
    correctly rounded float64 division.  S = sign(L), so the test is one
    comparison R == sign(L)' and one test of the row scales.
    """
    # the sign test first, so that its temporaries are freed before |L| is
    # allocated
    if left.shape[1] > _LATTICE_BOUND or not np.array_equal(np.sign(left), right.T):
        return None
    mags = np.abs(left)
    peak = mags.max(axis=1)
    with np.errstate(divide="ignore"):
        scale = np.where(peak > 0, np.rint(1.0 / peak), 1.0)
    # fl(1/w) > 0 and -1/w rounds to -fl(1/w), so a row is sign(L[i]) / w_i
    # exactly when each of its nonzero magnitudes equals fl(1/w_i)
    exact = (
        bool(np.all(np.isfinite(scale) & (scale >= 1.0)))
        and np.count_nonzero(mags == (1.0 / scale)[:, None]) == np.count_nonzero(mags)
    )
    return scale if exact else None


def _gram_tiles(a: FactoredMatrix, cols: np.ndarray | None = None, band: bool = False):
    """Yield (start, V) over every row tile, with A[start:stop, cols] = V / w
    row by row (all columns when cols is None): the float32 integer Gram
    S @ S'[:, cols] and the row scales on the lattice, the float64 product
    L @ R[:, cols] and w = 1 off it.  V is one reused buffer, valid until
    the next tile, which the caller may overwrite.  The float32 factors are
    made per pass, so a matrix holds no copy of its factors between passes.

    With `band`, for all columns of a lattice matrix (V symmetric), each
    tile is the upper band V[start:stop, start:] of ``_BAND_ROWS`` rows, so
    each entry pair is computed once.  Its left
    operand is the transpose of a slice of R's float32 copy, so no second
    factor copy is held.  The slice is copied (h x r entries), since numpy
    multiplies a matrix by its own transpose with syrk and then mirrors the
    triangle element by element, which doubled the time of the last,
    square band.  A band multiplies only over the rank indices that some of
    its rows use (nonzero in R[:, start:stop]): the terms it skips are exact
    zeros, so V is the same, and block-diagonal factors skip most of the
    inner dimension.  Sign factors use every index and take all of R."""
    scale = a._row_scale
    right = a.right if cols is None else a.right[:, cols]
    if scale is not None:
        right = right.astype(np.float32)
    n, width = a.n_dim, right.shape[1]
    # rows per tile: at most _TILE_ENTRIES entries, and at most _BAND_ROWS on bands
    step = min(max(1, _TILE_ENTRIES // n), _BAND_ROWS if band else n)
    buf = np.empty(min(step, n) * width, dtype=right.dtype)
    for start in range(0, n, step):
        stop = min(n, start + step)
        if band:
            used = np.flatnonzero(right[:, start:stop].any(axis=1))
            inner = slice(None) if used.size == right.shape[0] else used
            lead, tile = right[inner, start:stop].copy().T, right[inner, start:]
        else:
            lead, tile = a.left[start:stop], right
            if scale is not None:
                lead = np.sign(lead).astype(np.float32)
        out = buf[: (stop - start) * tile.shape[1]].reshape(stop - start, tile.shape[1])
        yield start, np.matmul(lead, tile, out=out)


def _materialize(a: FactoredMatrix, cols: np.ndarray | None = None) -> np.ndarray:
    # Assembled from the same row tiles the statistics pass computes off the
    # lattice, so both see identical values even where the float product
    # depends on the tile height.
    scale = a._row_scale
    mat = np.empty((a.n_dim, a.n_dim if cols is None else len(cols)))
    for start, values in _gram_tiles(a, cols):
        stop = start + values.shape[0]
        if scale is None:
            mat[start:stop] = values
        else:
            np.divide(values, scale[start:stop, None], out=mat[start:stop])
    return mat


def _max_abs_product(left: np.ndarray, right: np.ndarray) -> float:
    """max |left @ right| (0 for an empty product), from row tiles of at
    most ``_TILE_ENTRIES`` entries, without forming the product."""
    n, width = left.shape[0], right.shape[1]
    if not n * width:
        return 0.0
    step = max(1, _TILE_ENTRIES // width)
    buf = np.empty(min(step, n) * width)
    peak = 0.0
    for start in range(0, n, step):
        stop = min(n, start + step)
        out = buf[: (stop - start) * width].reshape(stop - start, width)
        tile = np.matmul(left[start:stop], right, out=out)
        peak = max(peak, float(np.abs(tile, out=tile).max()))
    return peak


def _on_the_lattice(a: FactoredMatrix, scale: np.ndarray) -> FactoredMatrix:
    """Record on `a` the row scales w its constructor knows, so that no pass
    re-derives them from the factors (as ``submatrix`` carries its
    parent's over)."""
    vars(a)["_row_scale"] = scale
    return a


def _transposed(x: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of x.T, copied in row tiles of x of at most
    ``_SCAN_ENTRIES`` entries: a whole-array copy of x.T reads x down its
    columns, a cache line per entry."""
    out = np.empty(x.shape[::-1])
    step = max(1, _SCAN_ENTRIES // max(1, x.shape[1]))
    for start in range(0, x.shape[0], step):
        out[:, start : start + step] = x[start : start + step].T
    return out


def make_identity(n_dim: int) -> FactoredMatrix:
    if n_dim < 1:
        raise ParameterError(f"N must be >= 1, got {n_dim}")
    eye = np.eye(n_dim)
    a = FactoredMatrix(n_dim, n_dim, eye, eye.copy(), Provenance("identity", 0))
    return _on_the_lattice(a, np.ones(n_dim))


def make_random_sign(n_dim: int, rank: int, seed: int) -> FactoredMatrix:
    """Sign-vector Gram approximation: A[i, j] = <x_i, x_j> / rank.

    Row i of the sign matrix is keyed by (seed, kind, i*rank + column), so
    the construction is reproducible entry by entry.  The diagonal is
    exactly 1 and off-diagonal entries live on the lattice {-1 + 2k/rank}.
    """
    if not 1 <= rank <= n_dim:
        raise ParameterError(f"need 1 <= n <= N, got n={rank}, N={n_dim}")
    x = rng.sign_matrix(n_dim, rank, seed, KIND_RANDOM_SIGN)
    right = _transposed(x)
    x /= rank
    a = FactoredMatrix(n_dim, rank, x, right, Provenance("random_sign", int(seed)))
    return _on_the_lattice(a, np.full(n_dim, float(rank)))


# Draws of one random block of make_block_sparse before the first is kept.
_BLOCK_ATTEMPTS = 16


def _block_seed(master: int, block: int, attempt: int) -> int:
    # Block 0, attempt 0 uses the master seed unchanged so that a single
    # block construction coincides bit for bit with make_random_sign.
    if block == 0 and attempt == 0:
        return int(master)
    return rng.derive_key(master, KIND_BLOCK_SPARSE, block, attempt)


def _draw_block(size: int, rank: int, master: int, block: int) -> tuple[np.ndarray, float, int]:
    """(signs, error, attempt) of the kept draw of one random block: the
    first attempt whose error is at most 1/3, else attempt 0.  Attempt 0 is
    drawn alone; the others in batches of at most ``_TILE_ENTRIES`` Gram
    entries, each from one ``rng.sign_matrix`` call and one batched Gram."""
    batch = max(1, _TILE_ENTRIES // size**2)
    spans = [(0, 1), *((lo, min(_BLOCK_ATTEMPTS, lo + batch))
                       for lo in range(1, _BLOCK_ATTEMPTS, batch))]
    diag = np.arange(size)
    for lo, hi in spans:
        seeds = [_block_seed(master, block, attempt) for attempt in range(lo, hi)]
        x = rng.sign_matrix(size, rank, seeds, KIND_RANDOM_SIGN)
        # x x^T is an exact integer Gram and division is monotone, so one
        # division of its off-diagonal maximum is the error
        gram = np.matmul(x, x.transpose(0, 2, 1))
        gram[:, diag, diag] = 0.0
        errors = np.abs(gram, out=gram).max(axis=(1, 2)) / rank
        if lo == 0:
            first = (x[0], float(errors[0]), 0)
        passing = np.flatnonzero(errors <= 1.0 / 3.0)
        if passing.size:
            k = int(passing[0])
            return x[k], float(errors[k]), lo + k
    return first


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
    in the provenance.  Attempt 0 is drawn alone and the later ones in
    batches (``_draw_block``), which keeps the same draw as trying them one
    by one.  The row scales are r_b on random-block rows and 1 on identity
    rows.
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
    scale = np.ones(n_dim)
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
            x, err, attempt = _draw_block(size, r_b, seed, b)
            left[row : row + size, col : col + r_b] = x / r_b
            right[col : col + r_b, row : row + size] = x.T
            scale[row : row + size] = r_b
            attempts_used.append(attempt)
            block_errors.append(err)
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
    a = FactoredMatrix(n_dim, rank, left, right, Provenance("block_sparse", int(seed), params))
    return _on_the_lattice(a, scale)


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
    """Principal submatrix on the given indices, still in factored form.

    It keeps the rows of L and the same columns of R, so a parent on the
    lattice gives a slice on it, with the parent's row scales at `indices`.
    Where the parent is off the lattice or has not detected it, the slice
    detects it when needed, since a slice of a matrix off the lattice may
    lie on it."""
    indices = np.asarray(indices, dtype=np.intp)
    if indices.size == 0:
        raise ParameterError("submatrix needs at least one index")
    sub = FactoredMatrix(
        int(indices.size),
        a.rank_budget,
        a.left[indices],
        np.ascontiguousarray(a.right[:, indices]),
        Provenance(
            "custom", a.provenance.seed, {"parent": a.provenance.kind, "size": int(indices.size)}
        ),
    )
    scale = vars(a).get("_row_scale")
    return sub if scale is None else _on_the_lattice(sub, scale[indices])


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
    start: int,
    values: np.ndarray,
    scale: np.ndarray | float,
    cut: np.ndarray | float,
    band: bool,
) -> tuple[np.ndarray, int, float]:
    """Column counts of |A| > gamma, nonzero count and max |A - I| over the
    tile V of ``_gram_tiles`` that starts at row `start`, with A = V / w row
    by row.  `scale` (w) and `cut` are one scalar where all rows share them,
    else arrays over all N rows: off the lattice w = 1 and the cut is gamma,
    on it the cuts are the rows' integer cuts, so |V| is compared without
    dividing the tile.  Division is monotone, so the error divides one
    maximum per row, or one maximum of the tile where all rows share w.

    A band tile V[start:stop, start:] of a symmetric V has a left part
    (columns start..stop) holding rows start..stop of A, and a right part
    (columns stop..N) holding those rows and, mirrored, the columns
    start..stop below them: A[j, i] = V[i, j] / w_j.  So column i gains the
    j >= stop with |V_ij| > cut_j, the right part's nonzeros count twice,
    and where scales differ the error also takes the right part's column
    maxima divided by w_j.  Where the cut is 0 for every row, the counts
    are the nonzeros.  The mask of |V| > cut is summed through its uint8
    view: a tile has fewer than 2^16 rows, so the column sums fit uint16
    (a band's row sums do where it has fewer than 2^16 columns).  V is
    overwritten.  A function of its own so that a tile's temporaries are
    freed before the next tile is computed."""
    height = values.shape[0]
    stop = start + height
    local = np.arange(height)
    diag = (local, local if band else start + local)
    shared_scale = np.ndim(scale) == 0
    rows = scale if shared_scale else scale[start:stop]
    diag_dev = values[diag].astype(np.float64)
    diag_dev /= rows
    diag_dev -= 1.0
    mags = np.abs(values, out=values)
    shared_cut = np.ndim(cut) == 0
    mask = mags > (cut if shared_cut else cut[start:stop, None])
    hits = mask.view(np.uint8)
    counts = hits.sum(axis=0, dtype=np.uint16).astype(np.int64)
    right = mags[:, height:]
    if band:
        mirror = hits[:, height:] if shared_cut else (right > cut[stop:]).view(np.uint8)
        wide = mirror.shape[1] >= 1 << 16
        counts[:height] += mirror.sum(axis=1, dtype=np.int64 if wide else np.uint16)
    if shared_cut and cut == 0:
        nnz = int(counts.sum())
    else:
        nonzero = np.not_equal(mags, 0, out=mask)
        nnz = int(np.count_nonzero(nonzero))
        if band:
            nnz += int(np.count_nonzero(nonzero[:, height:]))
    mags[diag] = 0
    if shared_scale:
        error = float(np.float64(mags.max()) / scale)
    else:
        row_max = mags.max(axis=1).astype(np.float64)
        row_max /= rows
        error = float(row_max.max())
        if band and right.size:
            col_max = right.max(axis=0).astype(np.float64)
            col_max /= scale[stop:]
            error = max(error, float(col_max.max()))
    return counts, nnz, max(error, float(np.abs(diag_dev).max()))


def distribution_function(a: FactoredMatrix, gamma: float) -> DensityProfile:
    """Fraction of ordered pairs (i, j) with |A[i, j]| strictly above gamma,
    together with per-column densities, the exact nonzero fraction and
    max |A - I|, from one pass of ``_gram_tiles`` at every N that neither
    reads nor builds the dense form.  On the lattice (every library kind,
    its slices and its files) the tiles are bands of the symmetric integer
    Gram's upper half; any other factors take full-row tiles."""
    if not gamma >= 0:
        raise ParameterError(f"gamma must be >= 0, got {gamma}")
    n = a.n_dim
    scale = a._row_scale
    band = scale is not None
    if scale is None:
        scale, cut = 1.0, gamma
    else:
        # one scalar where all rows share a cut or a scale
        cut = _integer_cut(gamma, scale).astype(np.float32)
        cut = cut[0] if cut.min() == cut.max() else cut
        scale = scale[0] if scale.min() == scale.max() else scale
    col_counts = np.zeros(n, dtype=np.int64)
    nnz = 0
    error = 0.0
    for start, values in _gram_tiles(a, band=band):
        counts, tile_nnz, tile_error = _tile_stats(start, values, scale, cut, band)
        col_counts[start if band else 0 :] += counts
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

# Entries of one row tile of min_pairwise_linf's pair bounds (512 KB).
_BOUND_TILE_ENTRIES = 1 << 16


def _pair_bounds(
    mat: np.ndarray | FactoredMatrix, diag: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """L[i, j] = max(|m_ij - m_jj|, |m_ji - m_ii|) for the rows i of
    start..stop, and inf where j <= i."""
    if isinstance(mat, FactoredMatrix):
        rows = mat.left[start:stop] @ mat.right
        cols = mat.right[:, start:stop].T @ mat.left.T
    else:
        rows, cols = mat[start:stop], mat[:, start:stop].T
    bounds = np.subtract(rows, diag)
    np.abs(bounds, out=bounds)
    mirror = np.subtract(cols, diag[start:stop, None])
    np.abs(mirror, out=mirror)
    np.maximum(bounds, mirror, out=bounds)
    np.putmask(bounds, np.arange(diag.size) <= np.arange(start, stop)[:, None], math.inf)
    return bounds


def _min_distance(mat: np.ndarray | FactoredMatrix, rows: np.ndarray, cols: np.ndarray) -> float:
    """Smallest ||m_i - m_j||_inf over the pairs (rows[p], cols[p]), sorted
    by row, from one block of gathered rows: each row is one run of pairs."""
    cuts = (np.flatnonzero(np.diff(rows)) + 1).tolist()
    runs = list(zip([0, *cuts], [*cuts, rows.size]))
    if isinstance(mat, FactoredMatrix):
        # both rows of every pair from one GEMM of the gathered rows
        block = mat.left[np.concatenate((rows[[0, *cuts]], cols))] @ mat.right
        own, diff = block[: len(runs)], block[len(runs) :]
    else:
        own, diff = (mat[rows[lo]] for lo, _ in runs), mat[cols]
    for row, (lo, hi) in zip(own, runs):
        diff[lo:hi] -= row
    return float(np.abs(diff, out=diff).max(axis=1).min())


def _tile_search(
    mat: np.ndarray | FactoredMatrix, diag: np.ndarray, start: int, stop: int, best: float
) -> tuple[float, int]:
    """min_pairwise_linf's search over the pairs of rows start..stop from the
    best distance found before them, skipping each pair whose bound is at
    least the best; returns the new best and the count of pairs evaluated.
    A function of its own so that the tile is freed before the next one."""
    n = diag.size
    flat = _pair_bounds(mat, diag, start, stop).ravel()
    most = min(max(1, _PAIR_BLOCK_ENTRIES // n), flat.size)
    evaluated = 0

    def take(pairs: np.ndarray) -> bool:
        # evaluate the pairs whose bound is still below the best distance
        nonlocal best, evaluated
        pairs = np.sort(pairs[flat[pairs] < best])
        if not pairs.size:
            return False
        flat[pairs] = math.inf
        rows, cols = np.divmod(pairs, n)
        best = min(best, _min_distance(mat, start + rows, cols))
        evaluated += pairs.size
        return True

    # the smallest bound, then the next smallest in batches of 2, 4, ...
    # from one sorted partition of one block of the tile
    if not take(np.array([np.argmin(flat)])) or not flat.min() < best:
        return best, evaluated
    if most > 1:
        order = np.argpartition(flat, most - 1)[:most]
        order = order[np.argsort(flat[order], kind="stable")]
        lo, batch = 0, 2
        while lo < most:
            if not take(order[lo : lo + batch]):
                return best, evaluated
            lo, batch = lo + batch, 2 * batch
    # then every bound still below the best, one block of the tile at a time
    for lo in range(0, flat.size, most):
        take(lo + np.flatnonzero(flat[lo : lo + most] < best))
    return best, evaluated


def min_pairwise_linf(mat: np.ndarray | FactoredMatrix) -> tuple[float, float, int]:
    """Smallest sup-norm distance between two rows of the square matrix
    `mat` (inf below two rows), its rounding margin, and the number of row
    pairs evaluated.

    Columns i and j give every pair the lower bound
    L[i, j] = max(|m_ij - m_jj|, |m_ji - m_ii|) <= ||m_i - m_j||_inf, and a
    pair is skipped when its bound is at least the best distance found.  L
    is computed in row tiles of at most ``_BOUND_TILE_ENTRIES`` entries.  In
    each tile the pair with the smallest bound is evaluated first, then the
    next smallest bounds in batches of 2, 4, ... from one sorted partition
    of ``_PAIR_BLOCK_ENTRIES // n`` pairs, and then the rest of the tile in
    blocks of that many entries.  Each pair is evaluated at most once, and
    the extra memory is one tile and one block of candidate rows.

    A dense array gives the bound and the distance the same IEEE values, so
    the distance is the exact minimum over its rows and the margin is 0.0.
    A ``FactoredMatrix`` is read as its float64 product L @ R and never
    formed: a bound tile from one GEMM of its rows and one of its columns,
    the diagonal from one dot per row, and both rows of every candidate
    pair from one GEMM of the block's gathered rows.  These compute an
    entry in different orders, each within gamma_r * rho of the exact
    product for rank r and rho = max ||L_i||_2 * max ||R_:j||_2 (Higham,
    Accuracy and Stability, Thm 3.1, and Cauchy-Schwarz).  The margin
    4 (r + 2) eps rho, plus 8 r subnormal steps for underflow, covers two
    such roundings of each entry a bound or a distance reads and the
    roundings of the differences.  So a skipped pair's exact distance is at
    least the best found minus the margin, an evaluated pair's at least its
    computed distance minus the margin: no pair's exact distance is below
    distance - margin, and the distance is within margin of the exact
    minimum, which it equals where the factors' products are exact (small
    integers times powers of two).
    """
    if isinstance(mat, FactoredMatrix):
        left, right, fp = mat.left, mat.right, np.finfo(np.float64)
        diag = np.einsum("ij,ji->i", left, right)
        rho = float(np.linalg.norm(left, axis=1).max() * np.linalg.norm(right, axis=0).max())
        rank = mat.rank_budget
        margin = float(4 * (rank + 2) * fp.eps * rho + 8 * rank * fp.smallest_subnormal)
    else:
        diag, margin = np.diagonal(mat), 0.0
    n = diag.size
    height = max(1, _BOUND_TILE_ENTRIES // max(n, 1))
    best, evaluated = math.inf, 0
    for start in range(0, n - 1, height):
        best, count = _tile_search(mat, diag, start, min(n, start + height), best)
        evaluated += count
    return best, margin, evaluated


# Relative floor of the full-rank certificate: a Gram passes when it is
# proved to have lambda_min >= (tau / 2) * trace.
_RANK_TAU = 1e-6


def _gram_floor_certified(gram: np.ndarray, length: int) -> bool:
    """Whether one Cholesky proves lambda_min(G) >= (tau / 2) * tr(G) for the
    Gram G = F'F of a factor F with `length` rows, given `gram`, its float64
    product (exact for the integer factors ``numerical_rank`` passes).
    Overwrites `gram` with gram - tau * trace(gram) * I.

    Rounding in the Gram, in the shift and in a Cholesky that completes
    (Demmel 1989; Higham, Accuracy and Stability, Thm 10.5) moves the
    spectrum by at most about (length + r + 2) * u * tr(G) in 2-norm.  The
    guard keeps that below tau / 4 * tr(G), with eps = 2u in place of u, so
    a completed Cholesky leaves lambda_min(G) above (tau / 2) * tr(G).  A
    matrix the guard refuses is left to the caller's fallback."""
    r = gram.shape[0]
    if (length + r + 2) * np.finfo(np.float64).eps > _RANK_TAU / 4:
        return False
    gram[np.diag_indices(r)] -= _RANK_TAU * np.trace(gram)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _sign_gram(right: np.ndarray) -> np.ndarray:
    """R R' in float64 for a lattice factor R = S' (entries -1, 0 and 1),
    summed over column tiles of R (row tiles of S).  Like a band of
    ``_gram_tiles``, a tile of ``_BAND_ROWS`` columns multiplies only the
    rank indices that its columns use: the terms it skips are exact zeros.
    A tile's product is exact in float32, since its entries are integers
    of at most ``_BAND_ROWS`` < 2^24 in magnitude, and the float64 sum of
    the tiles is exact up to 2^53 columns, so the result equals the
    float64 product right @ right.T.  A tile whose columns use every index
    (a sign factor) skips nothing, so that product is taken whole."""
    r, n = right.shape
    gram = np.zeros((r, r))
    for start in range(0, n, _BAND_ROWS):
        used = np.flatnonzero(right[:, start : start + _BAND_ROWS].any(axis=1))
        if used.size == r:
            return right @ right.T
        tile = right[used, start : start + _BAND_ROWS].astype(np.float32)
        # multiplied by a copy: numpy multiplies a float32 matrix by its own
        # transpose with SSYRK, a BLAS routine no other pass calls, whose
        # first call raised peak RSS by about 0.6 MB
        gram[np.ix_(used, used)] += tile @ tile.copy().T
    return gram


def numerical_rank(a: FactoredMatrix, tol: float) -> int:
    """Count of singular values of A = L @ R above tol times the largest one.

    Certificate first, on the sign lattice L = S / w[:, None], R = S' (every
    library kind): there A = W^-1 S S' with W = diag(w), so
    sigma_r(A) >= lambda_min(S'S) / w_max and sigma_1(A) <= lambda_max(S'S)
    / w_min.  When ``_gram_floor_certified`` passes the exact integer Gram
    R R' = S'S, lambda_min >= (tau / 2) tr >= (tau / 2) lambda_max, so
    sigma_r(A) >= (tau / 2) (w_min / w_max) sigma_1(A) > 2 tol sigma_1(A)
    wherever 4 tol (w_max / w_min) < tau, and the count is exactly
    r = rank_budget.  The factor 2 covers the SVD below, whose values err by
    about 1e-13 sigma_1, so both routes give the same count wherever the
    certificate clears.  It costs one r x r Gram, summed exactly from
    column tiles of R that multiply only the rank indices they use
    (``_sign_gram``: a block-diagonal factor skips the off-block products),
    and one Cholesky, and needs no eigenvalue (an eigenvalue of a Gram
    would square the condition number).

    The certificate is tried only when r < N.  At r > N, S'S is singular
    and it cannot clear.  A random N x N sign factor has lambda_min / tr(G)
    near 1 / N^3, so it clears on about half the seeds at N = 64 and on
    none from N = 96 on.  One failed Gram and Cholesky cost an eighth to a
    sixth of the fallback's own time, so square factors go straight to it.

    Fallback, wherever the factors are off the lattice, the Cholesky fails
    (rank-deficient or ill-conditioned S), the guard refuses or r >= N: the
    singular values of the thin core R_L @ right with L = Q R_L, Q never
    formed."""
    if not 0 < tol < 1:
        raise ParameterError(f"tol must be in (0, 1), got {tol}")
    # r < N first, so that a factor with r >= N is never probed for the lattice
    if (
        a.rank_budget < a.n_dim
        and (scale := a._row_scale) is not None
        and 4 * tol * float(scale.max() / scale.min()) < _RANK_TAU
        and _gram_floor_certified(_sign_gram(a.right), a.n_dim)
    ):
        return a.rank_budget
    s = np.linalg.svd(np.linalg.qr(a.left, mode="r") @ a.right, compute_uv=False)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))
