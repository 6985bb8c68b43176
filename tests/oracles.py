"""Independent reference implementations used only to check the library.

Each oracle is written with a different algorithm than the code under test:
exact integer binomial sums, dense grid searches, multiplicative-update
design optimization, brute-force subset enumeration, and exhaustive pair
scans.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import minimize


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
