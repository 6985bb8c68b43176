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


class FactoredMatrix:
    """N x N matrix stored as left (N x r) times right (r x N).

    The materialized product has rank at most r by construction.  Instances
    are immutable; no dense copy is kept, and ``dense`` computes the columns
    asked for on each call.  Every matrix is computed in row tiles as V / w
    (see ``_gram_tiles``).

    Whether a matrix lies on the sign lattice L = S / w[:, None], R = S'
    (see ``_lattice_scale``) is decided once, when it is built.  The
    library kinds, their slices and IRLM0002 files lie on it by
    construction; float factors (``from_factors``, IRLM0001 files) are
    tested once.  A lattice matrix is held as S' alone, a read-only int8
    array (r x N), and its row scales w (float64): n N + 8 N bytes instead
    of the 16 N n of two float64 factors.  Its entries are finite and its
    product cannot overflow: S' has entries in {-1, 0, 1}, 1 <= w <= 2^53
    and r <= 2^24.  V is then the symmetric integer Gram S S', exact in
    float32, so the diagonal is exactly 1 and values are identical across
    platforms and BLAS implementations; the statistics pass computes only
    V's upper band, in band tiles of the same loop, and ``dense`` always
    takes full-row tiles.  These passes, the rank certificate and the file
    writer read S' and w only.  ``left`` and ``right`` are built on first
    access and cached: L = S / w[:, None] and R = S' in float64 (zeros
    +0.0), bit for bit the factors the constructors built when they held
    them (x / rank and x'), and equal to the floats a lattice matrix was
    given.

    Factors off the lattice are held as the float64 factors given, checked
    finite and free of overflow, with ``_signs`` and ``_row_scale`` None.
    Both forms expose ``left`` and ``right`` as read-only, C-contiguous
    float64 arrays.
    """

    n_dim: int
    rank_budget: int
    provenance: Provenance

    def __init__(self, n_dim: int, rank_budget: int, left: np.ndarray, right: np.ndarray,
                 provenance: Provenance):
        if n_dim < 1:
            raise ParameterError(f"n_dim must be >= 1, got {n_dim}")
        if rank_budget < 1:
            raise ParameterError(f"rank_budget must be >= 1, got {rank_budget}")
        left = np.ascontiguousarray(np.asarray(left, dtype=np.float64))
        right = np.ascontiguousarray(np.asarray(right, dtype=np.float64))
        if left.shape != (n_dim, rank_budget):
            raise ParameterError(f"left factor shape {left.shape} != ({n_dim}, {rank_budget})")
        if right.shape != (rank_budget, n_dim):
            raise ParameterError(f"right factor shape {right.shape} != ({rank_budget}, {n_dim})")
        # min and max propagate NaN, so four reductions check every entry
        # without an array-sized temporary.  A product entry sums r terms of
        # at most max|L| max|R| each; that bound is taken in Python floats.
        l_lo, l_hi, r_lo, r_hi = map(float, (left.min(), left.max(), right.min(), right.max()))
        if not all(map(math.isfinite, (l_lo, l_hi, r_lo, r_hi))):
            raise ParameterError("factor entries must be finite")
        if max(-l_lo, l_hi) * max(-r_lo, r_hi) * rank_budget > np.finfo(np.float64).max:
            raise ParameterError("factor product may overflow float64")
        scale = _lattice_scale(left, right)
        if scale is None:
            vars(self).update(n_dim=n_dim, rank_budget=rank_budget, provenance=provenance,
                              left=_read_only(left), right=_read_only(right),
                              _signs=None, _row_scale=None)
        else:
            self._hold_lattice(right.astype(np.int8), scale, provenance)

    def _hold_lattice(self, signs: np.ndarray, scale: np.ndarray, provenance: Provenance):
        signs = np.ascontiguousarray(signs, dtype=np.int8)
        vars(self).update(n_dim=signs.shape[1], rank_budget=signs.shape[0], provenance=provenance,
                          _signs=_read_only(signs), _row_scale=np.asarray(scale, dtype=np.float64))

    def __setattr__(self, name, value):
        raise AttributeError(f"FactoredMatrix is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FactoredMatrix is immutable: cannot delete {name!r}")

    def __repr__(self) -> str:
        return (f"FactoredMatrix(n_dim={self.n_dim}, rank_budget={self.rank_budget}, "
                f"provenance={self.provenance!r})")

    @cached_property
    def left(self) -> np.ndarray:
        # reached only on the lattice: other factors are held as given.  L =
        # S / w[:, None], one correctly rounded division per entry (as the
        # constructors' x / rank), written into a C-ordered array
        left = np.empty((self.n_dim, self.rank_budget))
        return _read_only(np.divide(self._signs.T, self._row_scale[:, None], out=left))

    @cached_property
    def right(self) -> np.ndarray:
        return _read_only(self._signs.astype(np.float64))

    def dense(self, cols: np.ndarray | None = None) -> np.ndarray:
        """A[:, cols] (all of A by default), row-major, computed from the row
        tiles on every call."""
        return _materialize(self, cols)


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


def _lattice_matrix(signs: np.ndarray, scale: np.ndarray, provenance: Provenance) -> FactoredMatrix:
    """The matrix L = S / w[:, None], R = S' held as S' (`signs`, int8,
    r x N, entries in {-1, 0, 1}, r <= 2^24) and w (`scale`, integers in
    1..2^53, 1 on all-zero rows of S).  The constructors and the file
    reader guarantee these facts; nothing is rescanned."""
    a = object.__new__(FactoredMatrix)
    a._hold_lattice(signs, scale, provenance)
    return a


# Entries per full-row tile of the dense form and of the statistics pass off
# the lattice (8 MB of float32 Gram on the lattice, 16 MB of float64 off it).
_TILE_ENTRIES = 1 << 21

# Rows per band of the symmetric statistics pass, at any N.  Bands of
# 2^20 / N rows covered the whole matrix up to N = 1024, where 256-row bands
# took 0.55-0.75 of the time; from N = 2048 to 8192, 64 to 512 rows
# measured alike.
_BAND_ROWS = 256

# Columns per band tile, rounded down to a multiple of the band height (at
# least one band height).  A 256 x 512 tile is 2^17 float32 entries
# (512 KB), which stays in a core's L2 cache, so the pass holds the same
# tile at every N; the certificate's Gram is summed from column chunks of
# at most as many entries.  Both constants stay below 2^16, so a tile's
# row and column counts fit uint16.
_BAND_COLS = 512

# Largest rank of a lattice: float32 holds every integer up to 2^24, so
# every partial sum of the Gram is exact in any summation order.
_LATTICE_BOUND = 2.0**24

# Largest row scale of a lattice: float64 holds every integer up to 2^53.
_MAX_SCALE = 2**53  # an int, so a comparison with u64 words stays exact


def _lattice_scale(left: np.ndarray, right: np.ndarray) -> np.ndarray | None:
    """Row scales w when the factors lie on the sign lattice, else None.

    The lattice: L = S / w[:, None] and R = S' for a sign matrix S with
    entries in {-1, 0, 1}, integer row scales 1 <= w_i <= 2^53 and rank
    <= 2^24.  Then A = (S S') / w[:, None], where S S' is a symmetric
    integer Gram, exact in float32 in any summation order, and every entry
    is one correctly rounded float64 division.  S = sign(L), so the test is
    one comparison R == sign(L)' and one test of the row magnitudes.
    """
    # the sign test first, so that its temporaries are freed before |L| is
    # allocated
    if left.shape[1] > _LATTICE_BOUND or not np.array_equal(np.sign(left), right.T):
        return None
    mags = np.abs(left)
    peak = mags.max(axis=1)
    # fl(1/w) > 0 and -1/w rounds to -fl(1/w), so a row is sign(L[i]) / w_i
    # exactly when each of its nonzero magnitudes equals x = fl(1/w_i).  Any
    # w in 1..2^53 with fl(1/w) = x lies within 1 of rint(1/x), and above
    # 2^52 neighbours can share x: w must be the only such integer
    steps = np.array([-1.0, 0.0, 1.0])
    with np.errstate(divide="ignore", over="ignore"):
        near = np.rint(1.0 / peak)[:, None]  # inf on zero or subnormal rows: no hit
        hits = ((near >= 1.0 - steps) & (near <= _MAX_SCALE - steps)
                & (1.0 / (near + steps) == peak[:, None]))
    scale = np.where(peak > 0, np.where(hits, near + steps, 0.0).sum(axis=1), 1.0)
    exact = (
        np.array_equal(hits.sum(axis=1), peak > 0)
        and np.count_nonzero(mags == (1.0 / scale)[:, None]) == np.count_nonzero(mags)
    )
    return scale if exact else None


def _gram_tiles(a: FactoredMatrix, cols: np.ndarray | None = None, band: bool = False):
    """Yield (start, col, V) over tiles with A[start:stop, c] = V / w row by
    row for the tile's columns c: the float32 integer Gram S @ S'[:, c] and
    the row scales on the lattice, the float64 product L @ R[:, c] and
    w = 1 off it.  V is one reused buffer, valid until the next tile, which
    the caller may overwrite.  On the lattice both operands are cast from
    the int8 S', so a matrix holds no float copy of it between passes, and
    its float factors are never built.

    By default the tiles are full rows, col = 0 and c = cols (all columns
    when cols is None), of at most ``_TILE_ENTRIES`` entries.  With `band`,
    for all columns of a lattice matrix (V symmetric), they are the upper
    band V[start:stop, start:] of ``_BAND_ROWS`` rows, so each entry pair is
    computed once, cut into tiles of the columns col..col + width from
    col = start, width being ``_BAND_COLS`` rounded down to a multiple of
    the band height (at least one).  So a tile holds the same entries at
    every N, and the band's own square lies in its first tile.  A band
    multiplies only over the rank indices that some of its rows use (nonzero
    in S'[:, start:stop]): the terms it skips are exact zeros, so V is the
    same, and block-diagonal factors skip most of the inner dimension.  Each
    tile casts its columns of those rows of S' to float32, so no whole
    float32 copy of S' is made, and a tile after the first whose columns
    use none of them is all zero and not yielded.  The band's left operand,
    its first columns transposed, is cast once per band; it is a separate
    array, so numpy never takes syrk (which mirrors the triangle element by
    element and doubled the time of a square tile)."""
    n = a.n_dim
    signs = a._signs
    if band:
        rank = a.rank_budget
        width = _BAND_ROWS * max(1, _BAND_COLS // _BAND_ROWS)
        buf = np.empty(min(_BAND_ROWS, n) * min(width, n), dtype=np.float32)
        for start in range(0, n, _BAND_ROWS):
            stop = min(n, start + _BAND_ROWS)
            used = np.flatnonzero(signs[:, start:stop].any(axis=1))
            rows = slice(None) if used.size == rank else used
            lead = signs[rows, start:stop].T.astype(np.float32)
            for col in range(start, n, width):
                part = signs[rows, col : col + width]
                if col > start and used.size < rank and not part.any():
                    continue
                tile = part.astype(np.float32)
                out = buf[: (stop - start) * tile.shape[1]].reshape(stop - start, tile.shape[1])
                yield start, col, np.matmul(lead, tile, out=out)
        return
    if signs is None:
        right = a.right if cols is None else a.right[:, cols]
    else:
        right = (signs if cols is None else signs[:, cols]).astype(np.float32)
    width = n if cols is None else len(cols)
    step = max(1, _TILE_ENTRIES // n)
    buf = np.empty(min(step, n) * width, dtype=np.float64 if signs is None else np.float32)
    for start in range(0, n, step):
        stop = min(n, start + step)
        if signs is None:
            lead = a.left[start:stop]
        else:
            lead = signs[:, start:stop].T.astype(np.float32)
        out = buf[: (stop - start) * width].reshape(stop - start, width)
        yield start, 0, np.matmul(lead, right, out=out)


def _materialize(a: FactoredMatrix, cols: np.ndarray | None = None) -> np.ndarray:
    # Assembled from the same row tiles the statistics pass computes off the
    # lattice, so both see identical values even where the float product
    # depends on the tile height.
    scale = a._row_scale
    mat = np.empty((a.n_dim, a.n_dim if cols is None else len(cols)))
    for start, _, values in _gram_tiles(a, cols):
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


def make_identity(n_dim: int) -> FactoredMatrix:
    if n_dim < 1:
        raise ParameterError(f"N must be >= 1, got {n_dim}")
    return _lattice_matrix(np.eye(n_dim, dtype=np.int8), np.ones(n_dim), Provenance("identity", 0))


def make_random_sign(n_dim: int, rank: int, seed: int) -> FactoredMatrix:
    """Sign-vector Gram approximation: A[i, j] = <x_i, x_j> / rank.

    Row i of the sign matrix is keyed by (seed, kind, i*rank + column), so
    the construction is reproducible entry by entry.  The diagonal is
    exactly 1 and off-diagonal entries live on the lattice {-1 + 2k/rank}.
    S' is drawn as int8 (``rng.sign_matrix``) and held as drawn.
    """
    if not 1 <= rank <= n_dim:
        raise ParameterError(f"need 1 <= n <= N, got n={rank}, N={n_dim}")
    signs = rng.sign_matrix(n_dim, rank, seed, KIND_RANDOM_SIGN)
    return _lattice_matrix(signs, np.full(n_dim, float(rank)), Provenance("random_sign", int(seed)))


# Draws of one random block of make_block_sparse before the first is kept.
_BLOCK_ATTEMPTS = 16


def _block_seeds(master: int, n_blocks: int) -> np.ndarray:
    """The seed of every attempt of every block (n_blocks x _BLOCK_ATTEMPTS
    uint64), the keys of (master, KIND_BLOCK_SPARSE, block, attempt) from
    one rng.derive_keys pass.  Block 0, attempt 0 uses the master seed
    unchanged so that a single block construction coincides bit for bit
    with make_random_sign."""
    seeds = rng.derive_keys(master, KIND_BLOCK_SPARSE, np.arange(n_blocks)[:, None],
                            np.arange(_BLOCK_ATTEMPTS))
    seeds[0, 0] = int(master) & rng.MASK64
    return seeds


def _draw_block(size: int, rank: int, seeds: np.ndarray) -> tuple[np.ndarray, float, int]:
    """(signs, error, attempt) of the kept draw of one random block from its
    attempts' seeds: S' of the first attempt whose error is at most 1/3,
    else of attempt 0, as int8 (rank x size).  Attempt 0 is drawn alone;
    the others in batches of at most ``_TILE_ENTRIES`` Gram entries, each
    from one ``rng.sign_matrix`` call and one batched Gram.  The Gram S S'
    of an attempt is an integer of at most `rank` in magnitude, so it is
    exact in float32 (as in ``_gram_tiles``); its off-diagonal maximum is
    divided by `rank` in float64, and division is monotone, so that one
    division is the error."""
    batch = max(1, _TILE_ENTRIES // size**2)
    spans = [(0, 1), *((lo, min(_BLOCK_ATTEMPTS, lo + batch))
                       for lo in range(1, _BLOCK_ATTEMPTS, batch))]
    diag = np.arange(size)
    for lo, hi in spans:
        x = rng.sign_matrix(size, rank, seeds[lo:hi], KIND_RANDOM_SIGN)
        cast = x.astype(np.float32)
        gram = np.matmul(cast.transpose(0, 2, 1), cast)
        gram[:, diag, diag] = 0.0
        errors = np.abs(gram, out=gram).max(axis=(1, 2)).astype(np.float64) / rank
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
    by one.  S' is filled block by block as int8, a random block's S' copied
    as drawn; the row scales are r_b on random-block rows and 1 on identity
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

    signs = np.zeros((rank, n_dim), dtype=np.int8)
    scale = np.ones(n_dim)
    blocks = []
    attempts_used = []
    block_errors = []
    seeds = _block_seeds(seed, n_blocks)
    row = 0
    col = 0
    for b, (size, r_b) in enumerate(zip(sizes, ranks)):
        exact = r_b == size
        if exact:
            diag = np.arange(size)
            signs[col + diag, row + diag] = 1
            attempts_used.append(0)
            block_errors.append(0.0)
        else:
            x, err, attempt = _draw_block(size, r_b, seeds[b])
            signs[col : col + r_b, row : row + size] = x
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
    return _lattice_matrix(signs, scale, Provenance("block_sparse", int(seed), params))


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

    The indices are integers in 0..N-1, repeats allowed; any other index
    (negative, not an integer, N or above) is a ParameterError.  The slice
    keeps the rows of L and the same columns of R.  A parent on the lattice
    gives a slice on it, held as the same columns of S' and the parent's
    row scales at `indices`.  A parent off the lattice gives the float
    factors' rows and columns, and the slice is tested for the lattice when
    it is built, since a slice of a matrix off the lattice may lie on it."""
    indices = np.asarray(indices)
    if indices.size == 0:
        raise ParameterError("submatrix needs at least one index")
    if indices.dtype.kind not in "iu":
        raise ParameterError(f"submatrix indices must be integers, got dtype {indices.dtype}")
    if indices.min() < 0 or indices.max() >= a.n_dim:
        raise ParameterError(f"submatrix indices must lie in 0..{a.n_dim - 1}, got "
                             f"{indices.min()}..{indices.max()}")
    provenance = Provenance(
        "custom", a.provenance.seed, {"parent": a.provenance.kind, "size": int(indices.size)}
    )
    if a._signs is not None:
        return _lattice_matrix(np.take(a._signs, indices, axis=1), a._row_scale[indices],
                               provenance)
    return FactoredMatrix(int(indices.size), a.rank_budget, a.left[indices], a.right[:, indices],
                          provenance)


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
    col: int,
    values: np.ndarray,
    scale: np.ndarray | float,
    cut: np.ndarray | float,
    band: bool,
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Statistics of the tile V of ``_gram_tiles`` at row `start` and
    column `col`, with A = V / w row by row: the counts of |A| > gamma over
    the tile's columns and over its mirror (below), the nonzero count and
    max |A - I|.  `scale` (w) and `cut` are one scalar where all rows share
    them, else arrays over all N rows: off the lattice w = 1 and the cut is
    gamma, on it the cuts are the rows' integer cuts, so |V| is compared
    without dividing the tile.  Division is monotone, so the error divides
    one maximum per row, or one maximum of the tile where all rows share w.
    A tile with col <= start holds the diagonal entries of its rows (a
    band's first tile, every full-row tile).

    A band tile of rows start..stop of a symmetric V holds, in its columns
    j >= stop, also the mirror entries A[j, i] = V[i, j] / w_j.  So the
    mirror counts, which go to the columns start..stop, count the j >= stop
    with |V_ij| > cut_j, those columns' nonzeros count twice, and where
    scales differ the error also takes their column maxima divided by w_j.
    A full-row tile has no mirror, and its mirror counts are 0.  Where the
    cut is 0 for every row, the counts are the nonzeros.  The mask of
    |V| > cut is summed through its uint8 view into uint16: a tile has
    fewer than 2^16 rows and a band tile fewer than 2^16 columns.  V is
    overwritten.  A function of its own so that a tile's temporaries are
    freed before the next tile is computed."""
    height, width = values.shape
    stop = start + height
    shared_scale = np.ndim(scale) == 0
    rows = scale if shared_scale else scale[start:stop]
    diag = None
    if col <= start:
        local = np.arange(height)
        diag = (local, start - col + local)
        diag_dev = values[diag].astype(np.float64)
        diag_dev /= rows
        diag_dev -= 1.0
    mags = np.abs(values, out=values)
    shared_cut = np.ndim(cut) == 0
    mask = mags > (cut if shared_cut else cut[start:stop, None])
    hits = mask.view(np.uint8)
    counts = hits.sum(axis=0, dtype=np.uint16)
    # the columns at or beyond the band's end, which stand for their mirror
    first = max(0, stop - col) if band else width
    right = mags[:, first:]
    mirror = hits[:, first:] if shared_cut else (right > cut[col + first : col + width]).view(np.uint8)
    mirror_counts = mirror.sum(axis=1, dtype=np.uint16)
    if shared_cut and cut == 0:
        nnz = int(counts.sum(dtype=np.int64)) + int(mirror_counts.sum(dtype=np.int64))
    else:
        nonzero = np.not_equal(mags, 0, out=mask)
        nnz = int(np.count_nonzero(nonzero)) + int(np.count_nonzero(nonzero[:, first:]))
    error = 0.0
    if diag is not None:
        mags[diag] = 0
        error = float(np.abs(diag_dev).max())
    if shared_scale:
        error = max(error, float(np.float64(mags.max()) / scale))
    else:
        row_max = mags.max(axis=1).astype(np.float64)
        row_max /= rows
        error = max(error, float(row_max.max()))
        if right.size:
            col_max = right.max(axis=0).astype(np.float64)
            col_max /= scale[col + first : col + width]
            error = max(error, float(col_max.max()))
    return counts, mirror_counts, nnz, error


def distribution_function(a: FactoredMatrix, gamma: float) -> DensityProfile:
    """Fraction of ordered pairs (i, j) with |A[i, j]| strictly above gamma,
    together with per-column densities, the exact nonzero fraction and
    max |A - I|, from one pass of ``_gram_tiles`` at every N that neither
    reads nor builds the dense form.  On the lattice (every library kind,
    its slices and its files) the tiles are band tiles of the symmetric
    integer Gram's upper half, of the same size at every N; any other
    factors take full-row tiles."""
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
    for start, col, values in _gram_tiles(a, band=band):
        counts, mirror, tile_nnz, tile_error = _tile_stats(start, col, values, scale, cut, band)
        col_counts[col : col + counts.size] += counts
        col_counts[start : start + mirror.size] += mirror
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
        # the two GEMM outputs are this function's own: subtract in place
        bounds = mat.left[start:stop] @ mat.right
        mirror = mat.right[:, start:stop].T @ mat.left.T
        bounds -= diag
        mirror -= diag[start:stop, None]
    else:
        # rows of the caller's array: the differences are new arrays
        bounds = np.subtract(mat[start:stop], diag)
        mirror = np.subtract(mat[:, start:stop].T, diag[start:stop, None])
    np.abs(bounds, out=bounds)
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


def _diagonal_blocks(signs: np.ndarray) -> list[tuple[int, int, int, int]]:
    """(lo, hi, start, stop) for the finest split of the rank indices 0..r
    of a lattice factor S' (r x N) into contiguous ranges lo..hi whose
    columns follow one another: a range ends at k + 1 where every index up
    to k uses only columns before the first column any index after k uses,
    and start..stop spans the columns its indices use (empty where they use
    none).  No column is shared across ranges, so the Gram S'S is zero
    outside the diagonal blocks S'S[lo:hi, lo:hi], each of them the Gram of
    S'[lo:hi, start:stop].  Each index's first and last used column is read
    from row chunks of S' of at most ``_BAND_ROWS * _BAND_COLS`` entries."""
    r, n = signs.shape
    first = np.empty(r, dtype=np.intp)
    last = np.empty(r, dtype=np.intp)
    step = max(1, _BAND_ROWS * _BAND_COLS // n)
    for lo in range(0, r, step):
        used = signs[lo : lo + step] != 0
        some = used.any(axis=1)
        # an index that uses no column constrains no split
        first[lo : lo + step] = np.where(some, used.argmax(axis=1), n)
        last[lo : lo + step] = np.where(some, n - 1 - used[:, ::-1].argmax(axis=1), -1)
    suffix_first = np.minimum.accumulate(first[::-1])[::-1]
    ends = np.flatnonzero(np.maximum.accumulate(last)[:-1] < suffix_first[1:]) + 1
    los = np.concatenate(([0], ends))
    starts = np.minimum.reduceat(first, los)
    stops = np.maximum(np.maximum.reduceat(last, los) + 1, starts)
    return list(zip(los.tolist(), [*ends.tolist(), r], starts.tolist(), stops.tolist()))


def _gram_floor_certified(signs: np.ndarray, length: int) -> bool:
    """Whether Cholesky factorizations prove lambda_min(G) >= (tau / 2) *
    tr(G) for the exact integer Gram G = S'S of a lattice factor S' (r x N,
    entries -1, 0 and 1) with `length` = N rows of S.

    G is never formed whole: it is zero outside the diagonal blocks of
    ``_diagonal_blocks``, so G = diag(G_1, ..., G_m) and lambda_min(G) =
    min_b lambda_min(G_b), and each block's Gram G_b is summed exactly from
    its own rows and columns of S' (``_sign_gram``), shifted by the one
    global tau * tr(G) (tr(G) is the count of nonzeros of S') and factored
    before the next block is summed.  Rounding in the shift and in a
    Cholesky of the r_b x r_b block that completes (Demmel 1989; Higham,
    Accuracy and Stability, Thm 10.5) moves the block's spectrum by at most
    about (length + r_b + 2) * u * tr(G_b) in 2-norm, and r_b <= r and
    tr(G_b) <= tr(G), so that is at most (length + r + 2) * u * tr(G), the
    bound for the whole G.  The guard keeps it below tau / 4 * tr(G), with
    eps = 2u in place of u, so completed factorizations of every block
    leave each lambda_min(G_b), hence lambda_min(G), above (tau / 2) *
    tr(G).  The first block whose factorization fails (a singular or
    ill-conditioned block) fails the certificate, and a matrix the guard
    refuses is left to the caller's fallback too."""
    r = signs.shape[0]
    if (length + r + 2) * np.finfo(np.float64).eps > _RANK_TAU / 4:
        return False
    shift = _RANK_TAU * np.count_nonzero(signs)
    for lo, hi, start, stop in _diagonal_blocks(signs):
        gram = _sign_gram(signs[lo:hi, start:stop])
        gram[np.diag_indices(hi - lo)] -= shift
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return False
    return True


def _sign_gram(signs: np.ndarray) -> np.ndarray:
    """S'S = R R' in float64 for a lattice factor S' (entries -1, 0 and 1,
    int8 or float), summed from column chunks of S' of at most
    ``_BAND_ROWS * _BAND_COLS`` entries (at least one column) cast to
    float32.  Each chunk's float32 product is exact, since its entries are
    integers of at most its width (2^17 at most) in magnitude, and the
    float64 sum of them is exact up to 2^53 columns, so the result equals
    the float64 product R @ R'.  Each product multiplies a copy of its
    chunk: numpy multiplies a float32 matrix by its own transpose with
    SSYRK, a BLAS routine no other pass calls, whose first call raised peak
    RSS by about 0.6 MB."""
    r, n = signs.shape
    gram = np.zeros((r, r))
    step = max(1, _BAND_ROWS * _BAND_COLS // r)
    for start in range(0, n, step):
        chunk = signs[:, start : start + step].astype(np.float32)
        gram += chunk @ chunk.copy().T
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
    certificate clears.  It costs one Gram and one Cholesky per diagonal
    block of S'S, the blocks taken from each rank index's first and last
    used column of the int8 S' (``_diagonal_blocks``) and each Gram summed
    exactly from that block's rows and columns of S' (``_sign_gram``), so a
    block-diagonal factor neither forms the off-block products nor holds an
    r x r array (``_gram_floor_certified``).  It needs no eigenvalue (an
    eigenvalue of a Gram would square the condition number) and no float
    factor.

    The certificate is tried only when r < N.  At r > N, S'S is singular
    and it cannot clear.  A random N x N sign factor has lambda_min / tr(G)
    near 1 / N^3, so it clears on about half the seeds at N = 64 and on
    none from N = 96 on.  One failed Gram and factorization cost an eighth
    to a sixth of the fallback's own time, so square factors go straight to
    it.

    Fallback, wherever the factors are off the lattice, a Cholesky fails
    (rank-deficient or ill-conditioned S), the guard refuses or r >= N: the
    singular values of the thin core R_L @ right with L = Q R_L, Q never
    formed."""
    if not 0 < tol < 1:
        raise ParameterError(f"tol must be in (0, 1), got {tol}")
    if (
        a.rank_budget < a.n_dim
        and (scale := a._row_scale) is not None
        and 4 * tol * float(scale.max() / scale.min()) < _RANK_TAU
        and _gram_floor_certified(a._signs, a.n_dim)
    ):
        return a.rank_budget
    s = np.linalg.svd(np.linalg.qr(a.left, mode="r") @ a.right, compute_uv=False)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))
