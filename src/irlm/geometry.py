"""Convex-geometry toolkit: column-span factorization, minimum-volume
enclosing ellipsoids of symmetric hulls with their contact sets, the L1
lower constant of a contact set in closed form (the inradius of the
cross-polytope of the contacts), contact subset selection, frame
completion, and maxvol basis selection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import rng
from .errors import (
    DegenerateSpanError,
    NonconvergenceError,
    ParameterError,
    RankDeficiencyError,
    SizeCapError,
)
from .matrices import FactoredMatrix


# ---------------------------------------------------------------------------
# rank factorization


@dataclass(frozen=True)
class Subspace:
    """Orthonormal frame for the column span plus coordinates of the columns."""

    dim: int
    basis: np.ndarray  # N x dim, orthonormal columns
    coords: np.ndarray  # dim x N, basis @ coords reconstructs


def rank_factorize(a: FactoredMatrix, tol: float) -> Subspace:
    """Split A into an orthonormal basis of its column span and coordinates.

    The dimension is the numerical rank at relative tolerance tol, computed
    on the factor core so only thin decompositions are needed.
    """
    if not 0 < tol < 1:
        raise ParameterError(f"tol must be in (0, 1), got {tol}")
    q, r_l = np.linalg.qr(a.left)
    core = r_l @ a.right
    u, s, vt = np.linalg.svd(core, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        dim = 0
    else:
        dim = int(np.count_nonzero(s > tol * s[0]))
    basis = q @ u[:, :dim]
    coords = s[:dim, None] * vt[:dim]
    return Subspace(dim, basis, coords)


# ---------------------------------------------------------------------------
# ellipsoids


@dataclass(frozen=True)
class Ellipsoid:
    """Origin-centered ellipsoid {x : x' M x <= 1} with M positive definite."""

    dim: int
    shape: np.ndarray
    log_det: float

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor L of M = L L', factored once: x L whitens
        rows, so D-inner products become Euclidean ones."""
        return np.linalg.cholesky(self.shape)


@dataclass(frozen=True)
class ContactSet:
    """Input points on the ellipsoid boundary, with certificate weights.

    weights sum to the dimension and sum(w * (L'p)(L'p)') should be the
    identity for the Cholesky factor M = L L'; residual is the Frobenius
    defect of that identity.  max_leverage, the containment certificate, is
    the largest p' M p over all input points, from the solver's final inverse.
    """

    indices: np.ndarray  # indices into the point list
    signs: np.ndarray  # orientation of the stored representative, +-1
    weights: np.ndarray
    residual: float
    max_leverage: float

    def __len__(self) -> int:
        return int(self.indices.size)


def _quadratic_forms(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x_i' M x_i for every row x_i of x, through one matrix product."""
    return np.einsum("ij,ij->i", x @ m, x)


# Frank-Wolfe steps of mvee before it reports nonconvergence.
_MAX_ITER = 200_000


def mvee(
    points: np.ndarray | Sequence[np.ndarray], tol: float = 1e-7
) -> tuple[Ellipsoid, ContactSet]:
    """Minimum-volume origin-centered ellipsoid of conv(+-p_1, ..., +-p_m).

    Frank-Wolfe with away steps on the log-det design problem: maximize
    log det sum(u_j p_j p_j') over the simplex, with shape M = (n U)^(-1).
    Stops when every leverage is below n(1+tol) and every support leverage
    is above n(1-tol); contact points are those with p' M p >= 1 - 2 tol.
    """
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m, n = p.shape
    if not 0 < tol < 0.1:
        raise ParameterError(f"tol must be in (0, 0.1), got {tol}")
    if m < n:
        raise DegenerateSpanError(f"{m} points cannot span dimension {n}")
    u = np.full(m, 1.0 / m)
    u_mat = (p * u[:, None]).T @ p
    try:
        inv_u = np.linalg.inv(u_mat)
        if not np.all(np.isfinite(inv_u)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise DegenerateSpanError("points do not span the ambient dimension") from None
    g = _quadratic_forms(p, inv_u)
    refresh = 0
    for _ in range(_MAX_ITER):
        j_add = int(np.argmax(g))
        add_gap = g[j_add] / n - 1.0
        support = u > 0
        sup_idx = np.flatnonzero(support)
        j_away = int(sup_idx[np.argmin(g[sup_idx])])
        away_gap = 1.0 - g[j_away] / n
        if add_gap <= tol and away_gap <= tol:
            break
        if add_gap >= away_gap:
            j = j_add
            gj = g[j]
            theta = (gj / n - 1.0) / (gj - 1.0)
        else:
            j = j_away
            gj = g[j]
            theta_floor = -u[j] / (1.0 - u[j]) if u[j] < 1.0 else 0.0
            if gj <= 1.0 + 1e-14:
                theta = theta_floor
            else:
                theta = max((gj / n - 1.0) / (gj - 1.0), theta_floor)
        if theta == 0.0:
            break
        # Sherman-Morrison update of U^(-1) and all leverages.
        w = inv_u @ p[j]
        h = p @ w
        ratio = theta / (1.0 - theta)
        c = ratio / (1.0 + ratio * g[j])
        inv_u = (inv_u - c * np.outer(w, w)) / (1.0 - theta)
        g = (g - c * h * h) / (1.0 - theta)
        u *= 1.0 - theta
        u[j] += theta
        if theta < 0 and u[j] < 1e-17:
            u[j] = 0.0
        u = np.maximum(u, 0.0)
        refresh += 1
        if refresh % 500 == 0:
            u /= u.sum()
            u_mat = (p * u[:, None]).T @ p
            inv_u = np.linalg.inv(u_mat)
            g = _quadratic_forms(p, inv_u)
    else:
        gap = max(float(np.max(g)) / n - 1.0, 0.0)
        raise NonconvergenceError(
            f"ellipsoid solver hit {_MAX_ITER} iterations at gap {gap:.3e}", gap=gap
        )
    u = np.maximum(u, 0.0)
    u /= u.sum()
    u_mat = (p * u[:, None]).T @ p
    inv_u = np.linalg.inv(u_mat)
    shape = inv_u / n
    shape = (shape + shape.T) / 2.0
    sign, log_det = np.linalg.slogdet(shape)
    if sign <= 0:
        raise DegenerateSpanError("ellipsoid shape matrix is not positive definite")
    ell = Ellipsoid(n, shape, float(log_det))
    leverages = _quadratic_forms(p, inv_u) / n
    members = np.flatnonzero(leverages >= 1.0 - 2.0 * tol)
    weights = n * u[members]
    residual = _john_residual(p[members], weights, ell)
    contacts = ContactSet(
        indices=members,
        signs=np.ones(members.size, dtype=np.int64),
        weights=weights,
        residual=residual,
        max_leverage=float(leverages.max()),
    )
    return ell, contacts


def _john_residual(points: np.ndarray, weights: np.ndarray, ell: Ellipsoid) -> float:
    # sum w p p' = M^(-1) exactly when sum w (L'p)(L'p)' = I
    v = points @ ell.chol
    total = (v * weights[:, None]).T @ v if len(points) else np.zeros((ell.dim, ell.dim))
    return float(np.linalg.norm(total - np.eye(ell.dim)))


# ---------------------------------------------------------------------------
# L1 lower constant over a contact set


class L1LowerBound(NamedTuple):
    value: float
    certified: bool
    facets_examined: int


# A Cholesky or Gram-Schmidt pivot whose square is at most this fraction of
# its vector's squared D-norm marks the vector as dependent on earlier ones.
_PIVOT_RTOL = 1e-14

# Sign patterns scored per matrix product by the exact method.
_PATTERN_CHUNK = 1 << 14


def _dependent(z: np.ndarray, r: np.ndarray) -> bool:
    """Whether the rows of z are dependent: there are more rows than columns,
    or a pivot of the QR z' = Q r has a square at most _PIVOT_RTOL times its
    row's squared norm."""
    if z.shape[0] > z.shape[1]:
        return True
    return bool(np.any(np.diagonal(r) ** 2 <= _PIVOT_RTOL * np.einsum("ij,ij->i", z, z)))


def _contact_gram(x: np.ndarray, ell: Ellipsoid) -> np.ndarray | None:
    """H = G^(-1) for the D-Gram G of the rows of x, through the Cholesky
    factor of G, the R of a QR of the whitened rows; None if they are dependent."""
    z = x @ ell.chol  # z z' = G
    chol = np.linalg.qr(z.T, mode="r")  # G = chol' chol
    if _dependent(z, chol):
        return None
    inv_chol = np.linalg.inv(chol)
    return inv_chol @ inv_chol.T


def _exact_maximum(inv: np.ndarray) -> float:
    """max s' H s over all s in {+-1}^k with s_0 = +1, in chunks."""
    k = inv.shape[0]
    bits = np.arange(k - 1)
    best = -math.inf
    for start in range(0, 1 << (k - 1), _PATTERN_CHUNK):
        codes = np.arange(start, min(start + _PATTERN_CHUNK, 1 << (k - 1)))
        patterns = np.ones((codes.size, k))
        patterns[:, 1:] -= 2.0 * (codes[:, None] >> bits & 1)
        best = max(best, float(_quadratic_forms(patterns, inv).max()))
    return best


def _sample_patterns(k: int, n_samples: int, seed: int) -> np.ndarray:
    """The all-plus facet, then seeded random patterns up to n_samples in
    all; each is turned to start with +1 (antipodal facets are equivalent)
    and repeats are dropped, keeping first occurrences in order."""
    stream = rng.SplitMix64(int(rng.derive_keys(seed, k)))
    drawn = stream.next_signs(k * max(0, n_samples - 1)).reshape(-1, k)
    signs = np.vstack([np.ones(k), drawn])
    signs *= np.where(signs[:, :1] < 0, -1.0, 1.0)
    first = dict.fromkeys(map(bytes, signs))  # +-1.0 entries: equal bytes, equal rows
    return np.frombuffer(b"".join(first), dtype=np.float64).reshape(-1, k)


def _ascend(
    inv: np.ndarray, patterns: np.ndarray, drops: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Single-flip ascent of b problems at once on one k x k operator H.

    Problem r starts from the best of its pattern stack patterns[r]
    (p x k, first index on ties) by s' K s, where K = H, or with `drops`
    the inverse H_-d-d - h h' / H_dd of H downdated at d = drops[r],
    applied in place through s' K s = s' H s - ((Hs)_d)^2 / H_dd and
    K s = H s - H[d] (Hs)_d / H_dd for patterns with s_d = 0; coordinate
    d is never flipped.  Flipping s_i raises s' K s by 4 (K_ii - s_i (Ks)_i),
    and each problem takes its flip with the largest gain while it gains.
    A flip counts only if the recomputed s' K s rises, so rounding cannot
    make the ascent cycle.  Every step is one product H @ S' for all active
    problems; at b = 1 it is the matrix-vector product H @ s and the dot
    s' (Hs), so one problem rounds as a loop over single vectors would.  At
    the end every s_i (Ks)_i is positive, so the foot
    Ks / s'Ks of the facet hyperplane lies in the facet.  Returns the final
    patterns (b x k) and their values s' K s."""
    b, p, k = patterns.shape
    flat = patterns.reshape(b * p, k)
    hs = flat @ inv
    forms = np.einsum("ij,ij->i", hs, flat)
    diag = np.broadcast_to(np.diagonal(inv), (b, k))
    if drops is not None:
        pivots = np.diagonal(inv)[drops]
        at_drop = hs[np.arange(b * p), np.repeat(drops, p)]
        forms -= at_drop * at_drop / np.repeat(pivots, p)
        diag = diag - inv[drops] ** 2 / pivots[:, None]
        diag[np.arange(b), drops] = -math.inf

    def apply(s, active):
        ks = (inv @ s.T).T
        value = np.matmul(s[:, None, :], ks[:, :, None])[:, 0, 0]
        if drops is not None:
            d = drops[active]
            at_drop = ks[np.arange(d.size), d]
            value -= at_drop * at_drop / pivots[active]
            ks -= (at_drop / pivots[active])[:, None] * inv[d]
        return ks, value

    s = patterns[np.arange(b), forms.reshape(b, p).argmax(axis=1)]
    active = np.arange(b)
    ks, value = apply(s, active)
    final_s, final_value = np.empty((b, k)), np.empty(b)
    while active.size:
        i = (diag[active] - s * ks).argmax(axis=1)
        flipped = s.copy()
        flipped[np.arange(active.size), i] *= -1.0
        flipped_ks, flipped_value = apply(flipped, active)
        rises = flipped_value > value
        final_s[active[~rises]] = s[~rises]
        final_value[active[~rises]] = value[~rises]
        active, s, ks, value = active[rises], flipped[rises], flipped_ks[rises], flipped_value[rises]
    return final_s, final_value


def _flip_ascent(inv: np.ndarray, patterns: np.ndarray) -> tuple[np.ndarray, float]:
    """Best pattern s by s' H s, then single-flip ascent (``_ascend`` on one
    problem).  Returns the final pattern and s' H s."""
    s, value = _ascend(inv, patterns[None])
    return s[0], float(value[0])


def l1_lower_constant(
    contacts: np.ndarray,
    ell: Ellipsoid,
    method: str = "exact",
    n_samples: int = 64,
    seed: int = 0,
) -> L1LowerBound:
    """Smallest D-norm of a combination of the contact vectors with unit
    L1 coefficient norm: min |sum t_m x_m|_D over ||t||_1 = 1.

    That set is the boundary of the cross-polytope conv(+-x_m), so the
    value is its inradius.  The facet with sign pattern s lies on the
    hyperplane s't = 1 at D-distance (s' H s)^(-1/2), H = G^(-1) for the
    contact D-Gram G, and the value is (max_s s' H s)^(-1/2).  If a
    Cholesky pivot of G fails the relative test, the contacts are dependent
    and the value is 0 with no facet examined.  The exact method takes the
    maximum over all 2^(k-1) patterns up to antipodes and is capped at
    k <= 20.  The sampled method takes the best of a pattern set (the
    all-plus facet and seeded random ones) and climbs from it by single
    sign flips; it ends on a facet that contains its hyperplane foot, so
    its value is a true facet distance, an upper estimate of the minimum
    flagged as not certified.
    """
    x = np.atleast_2d(np.asarray(contacts, dtype=np.float64))
    k = x.shape[0]
    if k < 1:
        raise ParameterError("need at least one contact vector")
    if method == "exact":
        if k > 20:
            raise SizeCapError(f"exact facet enumeration capped at k <= 20, got k={k}")
    elif method != "sampled":
        raise ParameterError(f"method must be 'exact' or 'sampled', got {method!r}")
    certified = method == "exact"
    inv = _contact_gram(x, ell)
    if inv is None:
        return L1LowerBound(0.0, certified, 0)
    if certified:
        best, count = _exact_maximum(inv), 1 << (k - 1)
    else:
        patterns = _sample_patterns(k, n_samples, seed)
        best, count = _flip_ascent(inv, patterns)[1], len(patterns)
    mu = 1.0 / math.sqrt(best)
    return L1LowerBound(mu, certified, count)


# ---------------------------------------------------------------------------
# contact subset selection and frame completion


def _independent_prefix(vectors: np.ndarray, ell: Ellipsoid) -> list[int]:
    """Greedy maximal subset, in input order, of D-independent vectors.

    Classical Gram-Schmidt in whitened coordinates, against all kept vectors
    at once: a vector is kept when its squared D-residual exceeds
    _PIVOT_RTOL times its squared D-norm (this also collapses antipodal
    duplicates).
    """
    z = np.atleast_2d(vectors) @ ell.chol
    basis = np.zeros((ell.dim, ell.dim))  # D-orthonormalized kept vectors
    kept: list[int] = []
    for j, v in enumerate(z):
        if len(kept) == ell.dim:
            break
        b = basis[: len(kept)]
        w = v - (b @ v) @ b
        res_sq = float(w @ w)
        if res_sq <= _PIVOT_RTOL * float(v @ v):
            continue
        basis[len(kept)] = w / math.sqrt(res_sq)
        kept.append(j)
    return kept


# Entries of the embedded pattern stacks of one block of selection
# candidates (2 MB of float64); a round scores its candidates block by block.
_SELECTION_BLOCK_ENTRIES = 1 << 18


def _drop_one_values(inv: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """For every position d of the k x k inverse D-Gram H, s' H_d s at the end
    of the single-flip ascent over the (k-1)-long `patterns`, where H_d is H
    downdated at d: the inverse D-Gram of the set without vector d.  Each
    candidate's patterns are embedded with a 0 at d, and a block of
    candidates climbs together in ``_ascend``."""
    k = inv.shape[0]
    p = patterns.shape[0]
    cols = np.arange(k)
    block = max(1, _SELECTION_BLOCK_ENTRIES // (p * k))
    values = []
    for start in range(0, k, block):
        drops = np.arange(start, min(k, start + block))
        # column j of candidate d's patterns is column j - (j > d) of
        # `patterns`, and column d is zeroed
        src = np.minimum(cols - (cols > drops[:, None]), k - 2)
        stack = np.ascontiguousarray(patterns[:, src].transpose(1, 0, 2))
        stack[np.arange(drops.size), :, drops] = 0.0
        values.append(_ascend(inv, stack, drops)[1])
    return np.concatenate(values)


def select_contact_subset(
    contacts: np.ndarray,
    ell: Ellipsoid,
    target_k: int,
    selection_samples: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """Drop-one greedy subset of the contacts maximizing the L1 lower
    constant; returns the kept row indices in input order.

    First keeps a maximal D-independent prefix (a relative pivot test,
    which also collapses antipodal duplicates), then repeatedly removes the
    vector whose removal maximizes the sampled L1 lower constant of the
    remainder, until min(target_k, independent count) vectors are left.
    Each round factors the D-Gram G of the current set once, and every
    candidate's inverse Gram is H = G^(-1) downdated at its position,
    applied without forming it (``_drop_one_values``; ``l1_lower_constant``
    of each candidate when G has no inverse).  Candidates are scored in
    closed form, (max_s s' H s)^(-1/2) over the round's one deduplicated
    pattern set and its single-flip ascent; the first candidate wins unless
    a later one scores more than 1e-15 above the best so far.
    """
    x = np.atleast_2d(np.asarray(contacts, dtype=np.float64))
    if target_k < 1:
        raise ParameterError(f"target_k must be >= 1, got {target_k}")
    current = _independent_prefix(x, ell)
    while len(current) > target_k:
        inv = _contact_gram(x[current], ell)
        if inv is None:
            mus = [l1_lower_constant(x[current[:pos] + current[pos + 1 :]], ell, "sampled",
                                     selection_samples, seed).value for pos in range(len(current))]
        else:
            patterns = _sample_patterns(len(current) - 1, selection_samples, seed)
            mus = [1.0 / math.sqrt(v) for v in _drop_one_values(inv, patterns).tolist()]
        best_mu = -math.inf
        best_pos = 0
        for pos, mu in enumerate(mus):
            if mu > best_mu + 1e-15:
                best_mu = mu
                best_pos = pos
        del current[best_pos]
    return np.array(current, dtype=np.intp)


@dataclass(frozen=True)
class Frame:
    """Contact vectors plus a D-orthonormal complement spanning the space."""

    contacts: np.ndarray  # k x n
    complement: np.ndarray  # (n - k) x n, D-orthonormal, D-orthogonal to contacts
    ellipsoid: Ellipsoid


def complete_frame(subset: np.ndarray, ell: Ellipsoid) -> Frame:
    """Extend independent contact vectors to a basis by adjoining a D-orthonormal
    basis of their D-orthogonal complement.  With M = L L', one complete QR of
    the whitened contacts (x L)' tests their independence, and its trailing
    columns Q2 give the complement (L'^(-1) Q2)'."""
    x = np.atleast_2d(np.asarray(subset, dtype=np.float64)).reshape(-1, ell.dim)
    z = x @ ell.chol
    q, r = np.linalg.qr(z.T, mode="complete")
    if _dependent(z, r):
        raise RankDeficiencyError("contact vectors are not independent")
    comp = np.linalg.solve(ell.chol.T, q[:, x.shape[0] :]).T
    return Frame(contacts=x, complement=comp, ellipsoid=ell)


def expand_coefficients(columns: np.ndarray, frame: Frame) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (t, s) with columns = contacts' t + complement' s (dim x count).

    The complement C is D-orthogonal to the contacts X, so s = C D v and
    t = (X D X')^(-1) X D v = R^(-1) Q' L' v for D = L L' and (X L)' = Q R.
    """
    v = np.asarray(columns, dtype=np.float64)
    chol = frame.ellipsoid.chol
    q, r = np.linalg.qr((frame.contacts @ chol).T)
    t = np.linalg.solve(r, q.T @ (chol.T @ v))
    s = frame.complement @ frame.ellipsoid.shape @ v
    return t, s


# ---------------------------------------------------------------------------
# maxvol basis


# Swaps of the maxvol ascent before it reports nonconvergence.
_MAX_SWAPS = 10_000


class AuerbachBasis(NamedTuple):
    """coefficients (n x m) solves every point on the final basis once."""

    indices: np.ndarray
    signs: np.ndarray
    coefficient_bound: float
    swaps: int
    coefficients: np.ndarray


def _pivot(tab: np.ndarray, r: int, c: int) -> None:
    """In-place Gauss-Jordan pivot: tab[r, c] becomes 1 and the rest of column c 0."""
    tab[r] /= tab[r, c]
    col = tab[:, c].copy()
    col[r] = 0.0
    tab -= np.outer(col, tab[r])


def _complete_pivot_init(points: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Complete pivoting of the variables x points tableau on its largest free
    entry picks an independent, large-volume starting basis `selected`;
    returns it with `coeff` such that points = coeff @ points[selected].

    A pivot on (r, c) changes each free entry to w_ij - w_ic (w_rj / w_rc)
    and reads no other, so only the free rows x free columns are kept,
    compacted in their original order (the argmax breaks ties as on the
    whole tableau), and row r and column c leave after the pivot.  The
    coefficients come from one solve on the basis."""
    work = points.T.copy()  # free variables x free points
    n, m = work.shape
    scale = float(np.abs(work).max()) or 1.0
    cols = np.arange(m)  # original index of each free point
    selected: list[int] = []
    for _ in range(n):
        mags = np.abs(work)
        r, c = np.unravel_index(int(np.argmax(mags)), mags.shape)
        if mags[r, c] <= 1e-12 * scale:
            raise RankDeficiencyError("points do not span the ambient dimension")
        selected.append(int(cols[c]))
        work -= np.multiply.outer(work[:, c], work[r] / work[r, c])
        # drop row r and column c, keeping the order of the rest
        rest = np.empty((work.shape[0] - 1, work.shape[1] - 1))
        for kept, old in ((slice(None, r), slice(None, r)), (slice(r, None), slice(r + 1, None))):
            rest[kept, :c] = work[old, :c]
            rest[kept, c:] = work[old, c + 1 :]
        work = rest
        cols = np.delete(cols, c)
    return selected, np.linalg.solve(points[selected].T, points.T).T


def auerbach_basis(points: np.ndarray, delta: float = 0.01) -> AuerbachBasis:
    """Select n points whose determinant is locally maximal so every input
    point expands over them with coefficients bounded by 1 + delta.

    Greedy complete-pivoting initialization, then swap ascent on the same
    tableau: the largest coefficient above 1 + delta swaps its point into its
    slot (|det| grows by that factor) with one Gauss-Jordan pivot.  The
    coefficients returned are one solve on the final basis, and the bound
    is their largest magnitude.
    """
    if not 0 < delta <= 0.5:
        raise ParameterError(f"delta must be in (0, 0.5], got {delta}")
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m, n = p.shape
    if m < n:
        raise RankDeficiencyError(f"{m} points cannot span dimension {n}")
    selected, coeff = _complete_pivot_init(p)
    for swaps in range(_MAX_SWAPS):
        i, j = np.unravel_index(int(np.argmax(np.abs(coeff))), coeff.shape)
        if abs(coeff[i, j]) <= 1.0 + delta:
            coeff = np.linalg.solve(p[selected].T, p.T)
            return AuerbachBasis(np.array(selected, dtype=np.intp), np.ones(n, dtype=np.int64),
                                 float(np.max(np.abs(coeff))), swaps, coeff)
        _pivot(coeff.T, int(j), int(i))
        selected[j] = int(i)
    raise NonconvergenceError(f"maxvol swap ascent hit {_MAX_SWAPS} swaps")
