"""Independent reference implementations used only to check the library.

Each oracle is written with a different algorithm than the code under test:
exact integer binomial sums, dense grid searches, multiplicative-update
design optimization, brute-force subset enumeration, exhaustive pair
scans, a fresh KKT solve per facet, a linear solve per sign pattern and
per drop-one candidate, column-at-a-time elimination, a fresh solve per
maxvol swap, whole-matrix scans of the dense form, a per-block integer
Gram, an SVD of the dense form, a redraw of block_sparse's blocks one
attempt at a time, an exact rational search for row scales, a writer
of the first (IRLM0001) file format, and the scalar reference of the
SplitMix64 sign contract (mix64, the key fold derive_key, a stream of
single words, entry_sign) in Python ints, one word at a time, against
which the library's vector kernels in irlm.rng are checked.
"""

from __future__ import annotations

import itertools
import math
import struct
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from irlm import matrices, rng

# The contract's constants, written out here so that the reference does
# not take them from the code under test.
MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 output scrambler on a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_key(*words: int) -> int:
    """Fold integer words into one 64-bit stream key, each reduced mod 2^64."""
    key = 0
    for w in words:
        key = mix64((key + GOLDEN + (int(w) & MASK64)) & MASK64)
    return key


class ScalarSplitMix64:
    """The sequential stream one word at a time: each output advances the
    state by GOLDEN and is mix64 of the new state."""

    def __init__(self, key: int):
        self.state = int(key) & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def next_sign(self) -> int:
        """+1 or -1 from the high bit of the next word (-1 when set)."""
        return -1 if self.next_u64() >> 63 else 1


def entry_sign(seed: int, kind_code: int, flat_index: int) -> int:
    """Sign of one entry of rng.sign_matrix's S: the first output of the
    stream keyed by derive_key(seed, kind_code, flat_index)."""
    return ScalarSplitMix64(derive_key(seed, kind_code, flat_index)).next_sign()


def binomial_two_sided_tail(n: int, k: int) -> float:
    """2 * P(Bin(n, 1/2) >= k), exact."""
    total = sum(math.comb(n, i) for i in range(k, n + 1))
    return 2.0 * total / 2**n


def grid_l1_min(vectors: np.ndarray, shape: np.ndarray, resolution: int = 40) -> float:
    """min over the l1 sphere of sqrt(t' G t) by dense grid plus local polish.

    Enumerates every composition of `resolution` into k nonnegative parts on
    every sign facet, then refines the best grid point with a constrained
    local search on its facet.
    """
    x = np.atleast_2d(np.asarray(vectors, dtype=float))
    k = x.shape[0]
    gram = x @ shape @ x.T
    gram = (gram + gram.T) / 2.0

    def value(t: np.ndarray) -> float:
        return float(t @ gram @ t)

    best = math.inf
    best_t = None
    for cuts in itertools.combinations(range(resolution + k - 1), k - 1):
        parts = []
        prev = -1
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + k - 2 - prev)
        base = np.array(parts, dtype=float) / resolution
        for signs in itertools.product((1.0, -1.0), repeat=k):
            t = base * np.array(signs)
            v = value(t)
            if v < best:
                best = v
                best_t = t
    # polish on the facet of the best grid point
    s = np.sign(best_t)
    s[s == 0] = 1.0

    def objective(r):
        return value(s * np.abs(r))

    r0 = np.abs(best_t)
    res = minimize(
        objective,
        r0,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * k,
        constraints=[{"type": "eq", "fun": lambda r: np.sum(np.abs(r)) - 1.0}],
        options={"ftol": 1e-14, "maxiter": 500},
    )
    if res.success and res.fun < best:
        best = float(res.fun)
    return math.sqrt(max(best, 0.0))


def mvee_multiplicative(points: np.ndarray, iters: int = 50_000, tol: float = 1e-12):
    """Multiplicative-update ascent for the log-det design problem.

    u_j <- u_j * g_j / n is monotone for this objective; this is a different
    algorithm from the away-step solver under test.  Returns (shape, log det
    of the shape matrix).
    """
    p = np.asarray(points, dtype=float)
    m, n = p.shape
    u = np.full(m, 1.0 / m)
    for _ in range(iters):
        u_mat = (p * u[:, None]).T @ p
        inv_u = np.linalg.inv(u_mat)
        g = np.einsum("ij,jk,ik->i", p, inv_u, p)
        if g.max() / n - 1.0 <= tol:
            break
        u = u * g / n
        u = np.maximum(u, 0.0)
        u /= u.sum()
    u_mat = (p * u[:, None]).T @ p
    shape = np.linalg.inv(u_mat) / n
    shape = (shape + shape.T) / 2.0
    _, log_det = np.linalg.slogdet(shape)
    return shape, float(log_det)


def brute_max_clique(adjacency: np.ndarray) -> int:
    """Maximum clique size by subset enumeration; fine for n <= 12 or so."""
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    masks = [0] * n
    for i in range(n):
        for j in range(n):
            if adj[i, j]:
                masks[i] |= 1 << j
    best = 0
    for subset in range(1 << n):
        size = subset.bit_count()
        if size <= best:
            continue
        ok = True
        rest = subset
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            # every other member of the subset must be a neighbor of v
            if (subset & ~masks[v]) != (1 << v):
                ok = False
                break
        if ok:
            best = size
    return best


def scan_greedy_clique(adjacency: np.ndarray) -> list[int]:
    """Greedy clique in decreasing degree order (ties to the smaller index):
    a vertex joins when it is adjacent to every member so far, checked
    member by member."""
    adj = np.asarray(adjacency, dtype=bool)
    degrees = adj.sum(axis=1)
    order = sorted(range(adj.shape[0]), key=lambda v: (-int(degrees[v]), v))
    clique: list[int] = []
    for v in order:
        if all(adj[v, u] for u in clique):
            clique.append(v)
    return sorted(clique)


def exhaustive_best_det(points: np.ndarray, dim: int) -> float:
    """Max |det| over all dim-subsets of the points."""
    p = np.asarray(points, dtype=float)
    best = 0.0
    for subset in itertools.combinations(range(p.shape[0]), dim):
        best = max(best, abs(np.linalg.det(p[list(subset)])))
    return best


def edge_count_scan(mat: np.ndarray, gamma: float) -> int:
    """Double-loop edge count of the threshold graph."""
    n = mat.shape[0]
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if max(abs(mat[i, j]), abs(mat[j, i])) <= gamma:
                count += 1
    return count


def blocked_min_pairwise_linf(mat: np.ndarray) -> float:
    """Smallest sup-norm distance between two rows by comparing every pair
    over every column, in blocks of at most 2^24 broadcast entries."""
    n = mat.shape[0]
    if n < 2:
        return math.inf
    best = math.inf
    chunk = max(1, (1 << 24) // max(mat.size, 1))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = np.abs(mat[start:stop, None, :] - mat[None, :, :]).max(axis=2)
        for i in range(stop - start):
            block[i, start + i] = math.inf
        best = min(best, float(block.min()))
    return best


def kkt_solve_facet_qp(q_mat: np.ndarray, kkt_tol: float = 1e-9) -> tuple[np.ndarray, float, float]:
    """Minimize r' Q r over the probability simplex by an active set that
    builds and solves the bordered (|I|+1) x (|I|+1) KKT system of every
    support I, with an SLSQP rescue when the active set does not settle
    within kkt_tol.  Returns the point, the value, and the KKT residual:
    the largest multiplier-sign or complementarity violation."""
    k = q_mat.shape[0]
    if k == 1:
        return np.ones(1), float(q_mat[0, 0]), 0.0

    def residual(r):
        grad = 2.0 * q_mat @ r
        gap = grad - float(grad @ r)  # >= 0 everywhere, 0 on the support
        return float(max(np.max(-gap), np.max(r * np.abs(gap)), 0.0))

    support = np.ones(k, dtype=bool)
    r = np.full(k, 1.0 / k)
    for _ in range(3 * k + 60):
        idx = np.flatnonzero(support)
        ks = idx.size
        kkt = np.zeros((ks + 1, ks + 1))
        kkt[:ks, :ks] = 2.0 * q_mat[np.ix_(idx, idx)]
        kkt[:ks, ks] = 1.0
        kkt[ks, :ks] = 1.0
        rhs = np.zeros(ks + 1)
        rhs[ks] = 1.0
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        r_s = sol[:ks]
        if np.min(r_s) < -1e-13:
            support[idx[int(np.argmin(r_s))]] = False
            if not support.any():
                break
            continue
        cand = np.zeros(k)
        cand[idx] = np.maximum(r_s, 0.0)
        if cand.sum() <= 0:
            break
        r = cand / cand.sum()
        grad = 2.0 * q_mat @ r
        off = np.flatnonzero(~support)
        if off.size:
            viol = float(grad @ r) - grad[off]
            j = int(np.argmax(viol))
            if viol[j] > 1e-12:
                support[off[j]] = True
                continue
        break
    if residual(r) > kkt_tol:
        res = minimize(
            lambda v: float(v @ q_mat @ v),
            r,
            jac=lambda v: 2.0 * q_mat @ v,
            method="SLSQP",
            bounds=[(0.0, 1.0)] * k,
            constraints=[{"type": "eq", "fun": lambda v: np.sum(v) - 1.0}],
            options={"ftol": 1e-16, "maxiter": 1000},
        )
        rescued = np.maximum(res.x, 0.0)
        rescued /= rescued.sum()
        if float(rescued @ q_mat @ rescued) < float(r @ q_mat @ r):
            r = rescued
    return r, exact_quadratic_form(q_mat, r), residual(r)


def exact_quadratic_form(q_mat: np.ndarray, r: np.ndarray) -> float:
    """r' Q r summed in exact rational arithmetic and rounded once.  At a
    facet minimum of an ill-conditioned Q the terms cancel: a float64 sum
    errs by about eps |r|'|Q||r|, up to about eps cond(Q) of the value."""
    rs = [Fraction(v) for v in r.tolist()]
    return float(sum(a * Fraction(q) * b for a, row in zip(rs, q_mat.tolist())
                     for q, b in zip(row, rs)))


def exact_min_pairwise_linf(left: np.ndarray, right: np.ndarray) -> Fraction:
    """Smallest sup-norm distance between two of the at least two rows of
    the product L @ R, every entry and difference in exact rational
    arithmetic, so with no rounding at all."""
    cols = [[Fraction(v) for v in col] for col in right.T.tolist()]
    prod = [[sum(Fraction(a) * b for a, b in zip(row, col)) for col in cols]
            for row in left.tolist()]
    return min(max(abs(a - b) for a, b in zip(prod[i], prod[j]))
               for i, j in itertools.combinations(range(len(prod)), 2))


def brute_flip_l1(gram: np.ndarray, n_samples: int, seed: int) -> float:
    """Sampled L1 lower constant of a D-Gram by brute force: every pattern
    s (the all-plus facet and seeded random ones) is scored as s' c with
    G c = s, and from the best one every single-flip neighbour is scored
    the same way; the best improving flip is taken until none improves.
    The patterns of one step are solved together, as columns of one
    right-hand side."""
    k = gram.shape[0]

    def values(patterns):
        return np.einsum("ij,ji->i", patterns, np.linalg.solve(gram, patterns.T))

    stream = rng.SplitMix64(derive_key(seed, k))
    patterns = np.array([np.ones(k)] + [stream.next_signs(k) for _ in range(max(0, n_samples - 1))])
    scores = values(patterns)
    s = patterns[int(np.argmax(scores))].copy()
    best = float(scores.max())
    while True:
        flips = s * np.where(np.eye(k, dtype=bool), -1.0, 1.0)
        flip_values = values(flips)
        i = int(np.argmax(flip_values))
        if not flip_values[i] > best:
            return 1.0 / math.sqrt(best)
        s, best = flips[i], float(flip_values[i])


def brute_drop_one_select(x, shape, current, target_k, samples, seed) -> np.ndarray:
    """Drop-one greedy that builds every candidate's D-Gram from its rows
    and scores it with brute_flip_l1."""
    current = list(current)
    while len(current) > target_k:
        best_mu, best_pos = -math.inf, 0
        for pos in range(len(current)):
            cand = x[current[:pos] + current[pos + 1 :]]
            gram = cand @ shape @ cand.T
            mu = brute_flip_l1((gram + gram.T) / 2.0, samples, seed)
            if mu > best_mu + 1e-15:
                best_mu, best_pos = mu, pos
        del current[best_pos]
    return np.array(current, dtype=np.intp)


def loop_complete_pivot_init(points: np.ndarray) -> list[int]:
    """Complete-pivoting elimination that updates one column at a time."""
    work = np.asarray(points, dtype=float).T.copy()
    n, m = work.shape
    scale = float(np.abs(work).max()) or 1.0
    row_free = np.ones(n, dtype=bool)
    col_free = np.ones(m, dtype=bool)
    selected = []
    for _ in range(n):
        sub = np.abs(work[np.ix_(row_free, col_free)])
        if sub.size == 0 or sub.max() <= 1e-12 * scale:
            raise ValueError("points do not span the ambient dimension")
        ri, ci = np.unravel_index(int(np.argmax(sub)), sub.shape)
        r, c = int(np.flatnonzero(row_free)[ri]), int(np.flatnonzero(col_free)[ci])
        selected.append(c)
        pivot = work[r, c]
        for j in np.flatnonzero(col_free):
            if j == c:
                continue
            factor = work[r, j] / pivot
            work[:, j] -= factor * work[:, c]
        row_free[r] = False
        col_free[c] = False
    return selected


def resolve_auerbach_basis(points: np.ndarray, delta: float) -> tuple[list[int], int, float]:
    """Maxvol swap ascent that solves the whole coefficient system afresh
    after every swap; returns (indices, swaps, largest coefficient)."""
    p = np.asarray(points, dtype=float)
    selected = loop_complete_pivot_init(p)
    swaps = 0
    while True:
        coeff = np.linalg.solve(p[selected].T, p.T).T  # p = coeff @ basis
        i, j = np.unravel_index(int(np.argmax(np.abs(coeff))), coeff.shape)
        if abs(coeff[i, j]) <= 1.0 + delta:
            return selected, swaps, float(np.max(np.abs(coeff)))
        selected[j] = int(i)
        swaps += 1


def dense_scan_error(mat: np.ndarray) -> float:
    """max |A - I| over the whole dense matrix: the diagonal deviation and
    the off-diagonal magnitudes scanned separately."""
    diag_dev = float(np.abs(np.diagonal(mat) - 1.0).max())
    if mat.shape[0] == 1:
        return diag_dev
    off = np.abs(mat)
    np.fill_diagonal(off, 0.0)
    return max(diag_dev, float(off.max()))


def dense_scan_distribution(mat: np.ndarray, gamma: float) -> tuple[float, np.ndarray, float]:
    """(global density, column densities, nonzero fraction) of |A| > gamma
    over the whole dense matrix."""
    n = mat.shape[0]
    col_counts = (np.abs(mat) > gamma).sum(axis=0)
    return (
        float(col_counts.sum()) / (n * n),
        col_counts.astype(np.float64) / n,
        float(np.count_nonzero(mat)) / (n * n),
    )


def block_gram_dense(a) -> np.ndarray:
    """Dense form of a make_block_sparse matrix from its recorded block
    layout: an identity per exact block, the integer sign Gram over the
    block's own columns divided by its rank otherwise."""
    mat = np.zeros((a.n_dim, a.n_dim))
    for start, size, rank, col, exact in a.provenance.params["blocks"]:
        if exact:
            mat[start : start + size, start : start + size] = np.eye(size)
        else:
            x = np.sign(a.left[start : start + size, col : col + rank])
            mat[start : start + size, start : start + size] = (x @ x.T) / rank
    return mat


def dense_numerical_rank(a, tol: float) -> int:
    """Count of singular values of the dense form above tol times the
    largest one."""
    s = np.linalg.svd(a.dense(), compute_uv=False)
    return int(np.count_nonzero(s > tol * s[0])) if s[0] > 0 else 0


def block_draws_one_at_a_time(a) -> list[tuple[np.ndarray | None, float, int]]:
    """(signs, error, attempt) of every block of a make_block_sparse matrix,
    redrawn from its recorded layout one attempt at a time: one
    rng.sign_matrix call (the block's int8 S', rank x size) and one int64
    Gram S S' per attempt, in attempt order, up to the first attempt with
    error <= 1/3, else attempt 0.  An exact identity block gives
    (None, 0.0, 0)."""
    draws = []
    for b, (_, size, rank, _, exact) in enumerate(a.provenance.params["blocks"]):
        if exact:
            draws.append((None, 0.0, 0))
            continue
        chosen = None
        for attempt in range(matrices._BLOCK_ATTEMPTS):
            seed = (a.provenance.seed if b == 0 and attempt == 0 else
                    derive_key(a.provenance.seed, matrices.KIND_BLOCK_SPARSE, b, attempt))
            x = rng.sign_matrix(size, rank, seed, matrices.KIND_RANDOM_SIGN)
            gram = x.T.astype(np.int64) @ x.astype(np.int64)
            np.fill_diagonal(gram, 0)
            err = float(np.abs(gram).max()) / rank
            if chosen is None:
                chosen = (x, err, attempt)
            if err <= 1.0 / 3.0:
                chosen = (x, err, attempt)
                break
        draws.append(chosen)
    return draws



def unique_row_scales(left: np.ndarray) -> np.ndarray | None:
    """Row scales w of L = S / w[:, None] by an exact rational search: each
    nonzero row's magnitudes must be one float x with exactly one integer c
    in 1..2^53 such that fl(1/c) = x (all-zero rows get 1); None otherwise.
    Any such c lies within 1 of the exact 1/x."""
    scales = []
    for row in np.abs(left):
        mags = set(row[row != 0].tolist())
        if len(mags) > 1:
            return None
        if not mags:
            scales.append(1.0)
            continue
        (x,) = mags
        floor = math.floor(Fraction(1) / Fraction(x))
        found = [c for c in range(max(1, floor - 2), floor + 3) if c <= 2**53 and 1.0 / c == x]
        if len(found) != 1:
            return None
        scales.append(float(found[0]))
    return np.array(scales)


def write_matrix_v1(a, path) -> None:
    """An IRLM0001 file of `a`, the format written before IRLM0002: the
    40-byte header (magic, N, n, kind code, seed as little-endian u64), then
    both factors as little-endian float64, row-major."""
    code = matrices.KIND_CODES[a.provenance.kind]
    header = struct.pack("<8sQQQQ", b"IRLM0001", a.n_dim, a.rank_budget, code,
                         a.provenance.seed or 0)
    with open(path, "wb") as fh:
        fh.write(header + a.left.astype("<f8").tobytes() + a.right.astype("<f8").tobytes())


def float_factors_as_built(a) -> tuple[np.ndarray, np.ndarray]:
    """(L, R) of a library matrix as its constructor built them when it held
    float64 factors, rebuilt from the provenance: identity L = R = I;
    random_sign L = x' / n and R = x for the int8 S' x =
    rng.sign_matrix(N, n, seed); block_sparse zero-filled factors with an
    identity per exact block and, per random block, its kept draw x (S')
    over the block's columns as x' / r_b in L and x in R."""
    kind, seed = a.provenance.kind, a.provenance.seed
    if kind == "identity":
        return np.eye(a.n_dim), np.eye(a.n_dim)
    if kind == "random_sign":
        x = rng.sign_matrix(a.n_dim, a.rank_budget, seed, matrices.KIND_RANDOM_SIGN)
        return x.T / a.rank_budget, x.astype(np.float64)
    left, right = np.zeros((a.n_dim, a.rank_budget)), np.zeros((a.rank_budget, a.n_dim))
    blocks = a.provenance.params["blocks"]
    for (row, size, rank, col, exact), (x, _, _) in zip(blocks, block_draws_one_at_a_time(a)):
        if exact:
            left[row : row + size, col : col + rank] = np.eye(size)
            right[col : col + rank, row : row + size] = np.eye(size)
        else:
            left[row : row + size, col : col + rank] = x.T / rank
            right[col : col + rank, row : row + size] = x
    return left, right


def diagonal_block_split(gram: np.ndarray) -> list[tuple[int, int]]:
    """The finest contiguous diagonal blocks of a symmetric matrix, one
    split point at a time: 0..r splits at k exactly when gram[:k, k:] is
    all zero."""
    r = gram.shape[0]
    cuts = [k for k in range(1, r) if not gram[:k, k:].any()]
    return list(zip([0, *cuts], [*cuts, r]))


def column_range_split(signs: np.ndarray) -> list[tuple[int, int, int, int]]:
    """(lo, hi, start, stop) of the contiguous ranges of rows of `signs`,
    one split point at a time: 0..r splits at k exactly when the last
    column a row above k uses comes before the first column a row from k on
    uses (rows of zeros use none); start..stop spans the columns a range's
    rows use, N..N where they use none."""
    r, n = signs.shape
    used = [np.flatnonzero(row) for row in signs]
    cuts = [
        k for k in range(1, r)
        if max((u[-1] for u in used[:k] if u.size), default=-1)
        < min((u[0] for u in used[k:] if u.size), default=n)
    ]
    ranges = []
    for lo, hi in zip([0, *cuts], [*cuts, r]):
        cols = np.concatenate(used[lo:hi])
        ranges.append((lo, hi, int(cols.min()), int(cols.max()) + 1) if cols.size else (lo, hi, n, n))
    return ranges
