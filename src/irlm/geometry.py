"""Convex-geometry toolkit: column-span factorization, minimum-volume
enclosing ellipsoids of symmetric hulls, contact points, L1 lower constants
over contact sets, frame completion, and maxvol basis selection."""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    ambient_dim: int
    dim: int
    basis: np.ndarray  # ambient_dim x dim, orthonormal columns
    coords: np.ndarray  # dim x ambient_dim, basis @ coords reconstructs


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
    return Subspace(a.n_dim, dim, basis, coords)


# ---------------------------------------------------------------------------
# ellipsoids


@dataclass(frozen=True)
class Ellipsoid:
    """Origin-centered ellipsoid {x : x' M x <= 1} with M positive definite."""

    dim: int
    shape: np.ndarray
    log_det: float

    def norm(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return float(np.sqrt(max(x @ self.shape @ x, 0.0)))
        return np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", x, self.shape, x), 0.0))


@dataclass(frozen=True)
class ContactSet:
    """Input points on the ellipsoid boundary, with certificate weights.

    weights sum to the dimension and sum(w * (M^(1/2) p)(M^(1/2) p)') should
    be the identity; residual is the Frobenius defect of that identity.
    """

    indices: np.ndarray  # indices into the point list
    signs: np.ndarray  # orientation of the stored representative, +-1
    weights: np.ndarray
    residual: float

    def __len__(self) -> int:
        return int(self.indices.size)


def _design_leverages(points: np.ndarray, inv_u: np.ndarray) -> np.ndarray:
    return np.einsum("ij,jk,ik->i", points, inv_u, points)


def mvee(
    points: np.ndarray | Sequence[np.ndarray],
    tol: float = 1e-7,
    max_iter: int = 200_000,
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
    g = _design_leverages(p, inv_u)
    refresh = 0
    for _ in range(max_iter):
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
            g = _design_leverages(p, inv_u)
    else:
        gap = max(float(np.max(g)) / n - 1.0, 0.0)
        raise NonconvergenceError(
            f"ellipsoid solver hit {max_iter} iterations at gap {gap:.3e}", gap=gap
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
    g = _design_leverages(p, inv_u)
    members = np.flatnonzero(g / n >= 1.0 - 2.0 * tol)
    weights = n * u[members]
    residual = _john_residual(p[members], weights, ell)
    contacts = ContactSet(
        indices=members,
        signs=np.ones(members.size, dtype=np.int64),
        weights=weights,
        residual=residual,
    )
    return ell, contacts


def _sqrt_pd(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.maximum(vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _john_residual(points: np.ndarray, weights: np.ndarray, ell: Ellipsoid) -> float:
    root = _sqrt_pd(ell.shape)
    v = points @ root
    total = (v * weights[:, None]).T @ v if len(points) else np.zeros((ell.dim, ell.dim))
    return float(np.linalg.norm(total - np.eye(ell.dim)))


# ---------------------------------------------------------------------------
# L1 lower constant over a contact set


class L1LowerBound(NamedTuple):
    value: float
    normalized: float  # value * sqrt(dim)
    certified: bool
    facets_examined: int


# A Cholesky or Gram-Schmidt pivot whose square is at most this fraction of
# its vector's squared D-norm marks the vector as dependent on earlier ones.
_PIVOT_RTOL = 1e-14


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    cond = u - css / ind > 0
    rho = ind[cond][-1]
    theta = css[cond][-1] / rho
    return np.maximum(v - theta, 0.0)


def _kkt_residual(q_mat: np.ndarray, r: np.ndarray) -> float:
    grad = 2.0 * q_mat @ r
    return float(np.max(np.abs(r - _project_simplex(r - grad))))


def _pg_simplex_qp(q_mat: np.ndarray, r: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Projected gradient with exact quadratic line search and Armijo guard."""
    lip = 2.0 * float(np.linalg.norm(q_mat, 2)) + 1e-30
    step = 1.0 / lip
    val = float(r @ q_mat @ r)
    for _ in range(max_iter):
        grad = 2.0 * q_mat @ r
        trial = _project_simplex(r - step * grad)
        d = trial - r
        if np.max(np.abs(d)) < 1e-18:
            break
        qd = q_mat @ d
        denom = 2.0 * float(d @ qd)
        t = 1.0 if denom <= 0 else min(1.0, max(0.0, -float(grad @ d) / denom))
        cand = r + t * d
        cand_val = float(cand @ q_mat @ cand)
        # Armijo fallback: halve the move until it does not increase.
        shrink = 0
        while cand_val > val + 1e-18 and shrink < 60:
            t *= 0.5
            cand = r + t * d
            cand_val = float(cand @ q_mat @ cand)
            shrink += 1
        r, val = cand, cand_val
        if _kkt_residual(q_mat, r) <= tol:
            break
    return r


def _contact_gram(x: np.ndarray, ell: Ellipsoid) -> tuple[np.ndarray, np.ndarray | None]:
    """D-Gram G of the rows of x, and H = G^(-1) through the Cholesky factor
    of G, computed as the R of a QR of the whitened rows.  H is None when a
    pivot fails the relative test, which means the rows are dependent."""
    gram = x @ ell.shape @ x.T
    gram = (gram + gram.T) / 2.0
    if x.shape[0] > ell.dim:
        return gram, None
    z = x @ np.linalg.cholesky(ell.shape)  # z z' = G
    chol = np.linalg.qr(z.T, mode="r")  # G = chol' chol
    if np.any(np.diagonal(chol) ** 2 <= _PIVOT_RTOL * np.einsum("ij,ij->i", z, z)):
        return gram, None
    inv_chol = np.linalg.inv(chol)
    return gram, inv_chol @ inv_chol.T


def _inverse_on(inv: np.ndarray, support: np.ndarray) -> np.ndarray:
    """G_II^(-1) = H_II - H_IJ H_JJ^(-1) H_JI for H = G^(-1), I the support
    and J its complement, with zero rows and columns on J."""
    off = ~support
    sub = inv - inv[:, off] @ np.linalg.solve(inv[np.ix_(off, off)], inv[off])
    sub[off] = 0.0
    sub[:, off] = 0.0
    return sub


def _solve_facet_qp(
    gram: np.ndarray, inv: np.ndarray, s: np.ndarray, kkt_tol: float = 1e-9
) -> tuple[np.ndarray, float, float]:
    """Minimize r' Q r over the probability simplex, Q = G o ss'.

    Active set on the equality KKT system: on a support I the minimizer is
    proportional to Q_II^(-1) 1 = s_I o G_II^(-1) s_I.  G_II^(-1) starts as
    the factored H = G^(-1); dropping coordinate j eliminates it by the
    rank-one downdate W - W_:j W_j: / W_jj, and adding one back recomputes
    H_II - H_IJ H_JJ^(-1) H_JI.  If the settled point misses the KKT
    residual kkt_tol, iterative refinement against G, and then projected
    gradient, finish the job; projected gradient also takes over if the
    active set cycles.  Returns the point, the value, and the KKT residual.
    """
    k = s.size
    q_mat = gram * np.outer(s, s)
    if k == 1:
        return np.ones(1), float(q_mat[0, 0]), 0.0
    support = np.ones(k, dtype=bool)
    sub_inv = inv  # G_II^(-1), zero off the support
    settled = False
    for _ in range(3 * k + 60):
        x = sub_inv @ s
        z = s * x
        total = z.sum()
        if not total > 0:
            break
        r = z / total  # zero off the support
        j = int(np.argmin(r))
        if r[j] < -1e-13:
            w = sub_inv[:, j]
            sub_inv = sub_inv - np.outer(w, w / w[j])
            sub_inv[j] = 0.0
            sub_inv[:, j] = 0.0
            support[j] = False
            continue
        r = np.maximum(r, 0.0)
        r /= r.sum()
        grad = 2.0 * q_mat @ r
        off = np.flatnonzero(~support)
        if off.size:
            viol = float(grad @ r) - grad[off]
            j = int(np.argmax(viol))
            if viol[j] > 1e-12:
                support[off[j]] = True
                try:
                    sub_inv = _inverse_on(inv, support)
                except np.linalg.LinAlgError:
                    break
                continue
        settled = True
        break
    if settled:
        res = _kkt_residual(q_mat, r)
        for _ in range(3):
            if res <= kkt_tol:
                break
            x = x + sub_inv @ (s - gram @ x)
            z = s * x
            r_new = np.maximum(z / z.sum(), 0.0)
            r_new /= r_new.sum()
            res_new = _kkt_residual(q_mat, r_new)
            if not res_new < res:
                break
            r, res = r_new, res_new
    else:
        r = _pg_simplex_qp(q_mat, np.full(k, 1.0 / k), kkt_tol, 100_000)
        res = _kkt_residual(q_mat, r)
    if res > kkt_tol:
        r = _pg_simplex_qp(q_mat, r, kkt_tol, 100_000)
        res = _kkt_residual(q_mat, r)
    return r, float(r @ q_mat @ r), res


def _polish_patterns(gram, inv, s, val, r, cap: int = 100) -> float:
    """Descend across adjacent sign facets through coordinates at zero."""
    for _ in range(cap):
        for i in np.flatnonzero(r <= 1e-12):
            s2 = s.copy()
            s2[i] = -s2[i]
            r2, v2, _ = _solve_facet_qp(gram, inv, s2)
            if v2 < val - 1e-15:
                s, val, r = s2, v2, r2
                break
        else:
            break
    return val


def _sample_patterns(
    k: int, n_samples: int, seed: int, extra_patterns: np.ndarray | None = None
) -> list[np.ndarray]:
    """The all-plus facet, the signs of the extra patterns, then seeded
    random patterns up to n_samples in all."""
    patterns = [np.ones(k)]
    if extra_patterns is not None:
        for row in np.atleast_2d(np.asarray(extra_patterns, dtype=np.float64)):
            patterns.append(np.where(row < 0, -1.0, 1.0))
    stream = rng.SplitMix64(rng.derive_key(seed, k))
    for _ in range(max(0, n_samples - len(patterns))):
        patterns.append(stream.next_signs(k))
    return patterns


def _sampled_minimum(gram, inv, patterns) -> tuple[float, int]:
    """Smallest facet value over the distinct patterns (up to antipodes),
    after adjacent-facet descent from the best one, and the facet count."""
    seen: set[bytes] = set()
    best = math.inf
    best_s = patterns[0]
    best_r = np.full(gram.shape[0], 1.0 / gram.shape[0])
    for s in patterns:
        if s[0] < 0:
            s = -s  # antipodal facets are equivalent
        key = s.tobytes()
        if key in seen:
            continue
        seen.add(key)
        r, val, _ = _solve_facet_qp(gram, inv, s)
        if val < best:
            best, best_s, best_r = val, s, r
    return _polish_patterns(gram, inv, best_s, best, best_r), len(seen)


def l1_lower_constant(
    contacts: np.ndarray,
    ell: Ellipsoid,
    method: str = "exact",
    n_samples: int = 64,
    seed: int = 0,
    extra_patterns: np.ndarray | None = None,
) -> L1LowerBound:
    """Smallest D-norm of a combination of the contact vectors with unit
    L1 coefficient norm: min |sum t_m x_m|_D over ||t||_1 = 1.

    The contact D-Gram G is factored once per call, and every facet
    quadratic program reads its active-set iterates off H = G^(-1).  If a
    Cholesky pivot of G fails the relative test, the contacts are dependent
    and the value is 0 with no facet examined.  The exact method enumerates
    all sign-pattern facets of the L1 sphere (up to antipodal symmetry, so
    2^(k-1) quadratic programs) and is capped at k <= 20.  The sampled
    method minimizes over a pattern subset (always including the all-plus
    facet, caller-provided patterns, and seeded random ones) followed by
    adjacent-facet descent; its result is an upper estimate of the true
    minimum and is flagged as not certified.
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
    gram, inv = _contact_gram(x, ell)
    if inv is None:
        return L1LowerBound(0.0, 0.0, certified, 0)
    if certified:
        best = math.inf
        count = 0
        for code in range(1 << (k - 1)):
            s = np.ones(k)
            for bit in range(k - 1):
                if code >> bit & 1:
                    s[bit + 1] = -1.0
            best = min(best, _solve_facet_qp(gram, inv, s)[1])
            count += 1
    else:
        patterns = _sample_patterns(k, n_samples, seed, extra_patterns)
        best, count = _sampled_minimum(gram, inv, patterns)
    mu = math.sqrt(max(best, 0.0))
    return L1LowerBound(mu, mu * math.sqrt(ell.dim), certified, count)


# ---------------------------------------------------------------------------
# contact subset selection and frame completion


def _independent_prefix(vectors: np.ndarray, ell: Ellipsoid) -> list[int]:
    """Greedy maximal subset, in input order, of D-independent vectors.

    Classical Gram-Schmidt in whitened coordinates, against all kept vectors
    at once: a vector is kept when its squared D-residual exceeds
    _PIVOT_RTOL times its squared D-norm (this also collapses antipodal
    duplicates).
    """
    z = np.atleast_2d(vectors) @ np.linalg.cholesky(ell.shape)
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


def _drop_one_select(
    x: np.ndarray,
    ell: Ellipsoid,
    current: Sequence[int],
    target_k: int,
    selection_samples: int,
    seed: int,
) -> np.ndarray:
    """Drop-one greedy from the independent rows `current` of x down to
    target_k rows; returns the kept row indices in input order.

    Each round factors the D-Gram G of the current set once.  Every
    candidate's Gram is a slice of G, and its inverse is the downdate
    H_-i-i - h h' / H_ii of H = G^(-1); all candidates share the round's
    sampled patterns.
    """
    current = list(current)
    while len(current) > target_k:
        gram, inv = _contact_gram(x[current], ell)
        patterns = _sample_patterns(len(current) - 1, selection_samples, seed)
        best_mu = -math.inf
        best_pos = 0
        for pos in range(len(current)):
            keep = np.delete(np.arange(len(current)), pos)
            if inv is None:
                cand_gram, cand_inv = _contact_gram(x[current][keep], ell)
            else:
                cand_gram = gram[np.ix_(keep, keep)]
                h = inv[keep, pos]
                cand_inv = inv[np.ix_(keep, keep)] - np.outer(h, h) / inv[pos, pos]
            if cand_inv is None:
                mu = 0.0
            else:
                mu = math.sqrt(max(_sampled_minimum(cand_gram, cand_inv, patterns)[0], 0.0))
            if mu > best_mu + 1e-15:
                best_mu = mu
                best_pos = pos
        del current[best_pos]
    return np.array(current, dtype=np.intp)


def select_contact_subset(
    contacts: np.ndarray,
    ell: Ellipsoid,
    target_k: int,
    selection_samples: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """Drop-one greedy subset of the contacts maximizing the L1 lower constant.

    First keeps a maximal linearly independent prefix (a relative pivot
    test, which also collapses antipodal duplicates), then repeatedly
    removes the vector whose removal maximizes the sampled L1 lower constant
    of the remainder, until target_k vectors are left.  The D-Gram is
    factored once per round and downdated per candidate.
    """
    x = np.atleast_2d(np.asarray(contacts, dtype=np.float64))
    if target_k < 1:
        raise ParameterError(f"target_k must be >= 1, got {target_k}")
    if target_k > x.shape[0]:
        raise ParameterError(f"target_k={target_k} exceeds {x.shape[0]} contacts")
    current = _independent_prefix(x, ell)
    if len(current) < target_k:
        raise RankDeficiencyError(
            f"only {len(current)} independent contacts, need {target_k}"
        )
    return _drop_one_select(x, ell, current, target_k, selection_samples, seed)


@dataclass(frozen=True)
class Frame:
    """Contact vectors plus a D-orthonormal complement spanning the space."""

    contacts: np.ndarray  # k x n
    complement: np.ndarray  # (n - k) x n, D-orthonormal, D-orthogonal to contacts
    ellipsoid: Ellipsoid


def complete_frame(subset: np.ndarray, ell: Ellipsoid, subspace: Subspace | None = None) -> Frame:
    """Extend independent contact vectors to a basis by adjoining vectors
    D-orthogonal to their span, D-orthonormalized."""
    x = np.atleast_2d(np.asarray(subset, dtype=np.float64))
    if x.shape[0] == 0:
        x = x.reshape(0, ell.dim)
    n = ell.dim
    if subspace is not None and subspace.dim != n:
        raise ParameterError(f"subspace dim {subspace.dim} != ellipsoid dim {n}")
    k = x.shape[0]
    if k > n:
        raise RankDeficiencyError(f"{k} contacts cannot be independent in dimension {n}")
    if k == n:
        comp = np.zeros((0, n))
    else:
        if k == 0:
            null = np.eye(n)
        else:
            _, s, vt = np.linalg.svd(x @ ell.shape, full_matrices=True)
            if s.size and s[-1] <= 1e-12 * s[0]:
                raise RankDeficiencyError("contact vectors are not independent")
            null = vt[k:].T  # n x (n - k), D-orthogonal to every contact
        gram = null.T @ ell.shape @ null
        chol = np.linalg.cholesky((gram + gram.T) / 2.0)
        comp = np.linalg.solve(chol, null.T)  # rows are D-orthonormal
    return Frame(contacts=x, complement=comp, ellipsoid=ell)


def expand_coefficients(columns: np.ndarray, frame: Frame) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (t, s) with column = contacts' t + complement' s.

    The complement part is read off exactly as D-inner products; the contact
    part solves the remaining system by least squares.
    """
    v = np.atleast_2d(np.asarray(columns, dtype=np.float64))
    if v.shape[0] != frame.ellipsoid.dim:
        v = v.T
    m_shape = frame.ellipsoid.shape
    y = frame.complement
    s = y @ m_shape @ v if y.shape[0] else np.zeros((0, v.shape[1]))
    residual = v - (y.T @ s if y.shape[0] else 0.0)
    if frame.contacts.shape[0]:
        t, *_ = np.linalg.lstsq(frame.contacts.T, residual, rcond=None)
    else:
        t = np.zeros((0, v.shape[1]))
    return t, s


# ---------------------------------------------------------------------------
# maxvol basis


class AuerbachBasis(NamedTuple):
    indices: np.ndarray
    signs: np.ndarray
    coefficient_bound: float
    swaps: int


def _complete_pivot_init(points: np.ndarray) -> list[int]:
    """Gaussian-elimination complete pivoting over the point matrix; the
    pivot columns index an independent, large-volume starting basis.  Each
    pivot updates all free columns in one rank-one step."""
    work = points.T.copy()  # n x m, variables x points
    n, m = work.shape
    scale = float(np.abs(work).max()) or 1.0
    row_free = np.ones(n, dtype=bool)
    col_free = np.ones(m, dtype=bool)
    selected: list[int] = []
    for _ in range(n):
        sub = np.abs(work[np.ix_(row_free, col_free)])
        if sub.size == 0 or sub.max() <= 1e-12 * scale:
            raise RankDeficiencyError("points do not span the ambient dimension")
        rows = np.flatnonzero(row_free)
        cols = np.flatnonzero(col_free)
        ri, ci = np.unravel_index(int(np.argmax(sub)), sub.shape)
        r, c = int(rows[ri]), int(cols[ci])
        selected.append(c)
        row_free[r] = False
        col_free[c] = False
        js = np.flatnonzero(col_free)
        factor = work[r, js] / work[r, c]
        work[:, js] -= work[:, c][:, None] * factor
    return selected


def auerbach_basis(
    points: np.ndarray,
    delta: float = 0.01,
    max_swaps: int = 10_000,
) -> AuerbachBasis:
    """Select n points whose determinant is locally maximal so every input
    point expands over them with coefficients bounded by 1 + delta.

    Greedy complete-pivoting initialization followed by swap ascent: any
    selected/unselected swap improving |det| by a factor above 1 + delta is
    taken (each swap multiplies |det| by the corresponding expansion
    coefficient).  On termination the largest coefficient magnitude is at
    most 1 + delta, which is returned as the achieved bound.
    """
    if not 0 < delta <= 0.5:
        raise ParameterError(f"delta must be in (0, 0.5], got {delta}")
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m, n = p.shape
    if m < n:
        raise RankDeficiencyError(f"{m} points cannot span dimension {n}")
    selected = _complete_pivot_init(p)
    swaps = 0
    for _ in range(max_swaps):
        basis = p[selected]
        coeff = np.linalg.solve(basis.T, p.T).T  # p = coeff @ basis
        flat = int(np.argmax(np.abs(coeff)))
        i, j = np.unravel_index(flat, coeff.shape)
        if abs(coeff[i, j]) <= 1.0 + delta:
            return AuerbachBasis(
                indices=np.array(selected, dtype=np.intp),
                signs=np.ones(n, dtype=np.int64),
                coefficient_bound=float(np.max(np.abs(coeff))),
                swaps=swaps,
            )
        selected[j] = int(i)
        swaps += 1
    raise NonconvergenceError(f"maxvol swap ascent hit {max_swaps} swaps")
