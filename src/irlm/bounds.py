"""Closed-form bound evaluation and the threshold-graph clique machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonconvergenceError, ParameterError, SizeCapError
from .matrices import FactoredMatrix, approx_error, min_pairwise_linf, submatrix


def probabilistic_upper_bound(n_dim: int, rank: float) -> float:
    """2 sqrt(ln(N) / n): the error scale of the sign-vector construction."""
    if n_dim < 2:
        raise ParameterError(f"N must be >= 2, got {n_dim}")
    if rank < 1:
        raise ParameterError(f"n must be >= 1, got {rank}")
    return 2.0 * math.sqrt(math.log(n_dim) / rank)


def volume_rank_lower_bound(n_dim: int) -> int:
    """Smallest n with 6**n >= N: the rank any 1/3-approximation needs."""
    if n_dim < 1:
        raise ParameterError(f"N must be >= 1, got {n_dim}")
    n = 0
    power = 1
    while power < n_dim:
        power *= 6
        n += 1
    return n


def theorem_density_bound(n_dim: int, rank: float, c: float) -> float:
    """c * ln(N) / (n * ln(2 + n / ln(N))): guaranteed large-entry density."""
    if n_dim < 3:
        raise ParameterError(f"N must be >= 3, got {n_dim}")
    if rank < 1:
        raise ParameterError(f"n must be >= 1, got {rank}")
    if not 0 < c < math.inf:
        raise ParameterError(f"c must be positive and finite, got {c}")
    log_n = math.log(n_dim)
    return c * log_n / (rank * math.log(2.0 + rank / log_n))


def gamma_threshold(n_dim: int, rank: float, c: float) -> float:
    """c * max(n^(-3/2) ln(N), n^(-1)): the threshold the density bound uses."""
    if n_dim < 3:
        raise ParameterError(f"N must be >= 3, got {n_dim}")
    if rank < 1:
        raise ParameterError(f"n must be >= 1, got {rank}")
    if not 0 < c < math.inf:
        raise ParameterError(f"c must be positive and finite, got {c}")
    return c * max(rank ** -1.5 * math.log(n_dim), 1.0 / rank)


def turan_edge_bound(n_vertices: int, clique_bound: int) -> float:
    """(1 - 1/(M-1)) N^2 / 2: max edges of a K_M-free graph on N vertices."""
    if clique_bound < 2:
        raise ParameterError(f"M must be >= 2, got {clique_bound}")
    return (1.0 - 1.0 / (clique_bound - 1)) * n_vertices * n_vertices / 2.0


def implied_density_lower(n_vertices: int, clique_bound: int) -> float:
    """Fraction of ordered off-diagonal pairs that must be large when the
    threshold graph is K_M-free."""
    missing = n_vertices * (n_vertices - 1) / 2.0 - turan_edge_bound(n_vertices, clique_bound)
    return 2.0 * max(0.0, missing) / (n_vertices * n_vertices)


@dataclass(frozen=True)
class BoundSummary:
    """All closed-form bounds evaluated at one (N, n, gamma, c)."""

    n_dim: int
    rank: int
    gamma: float
    c: float
    values: dict[str, float]


def bound_summary(n_dim: int, rank: int, gamma: float | None, c: float) -> BoundSummary:
    if gamma is None:
        gamma = gamma_threshold(n_dim, rank, c)
    return BoundSummary(
        n_dim=n_dim,
        rank=rank,
        gamma=float(gamma),
        c=float(c),
        values={
            "probabilistic_upper": probabilistic_upper_bound(n_dim, rank),
            "volume_rank_lower": float(volume_rank_lower_bound(n_dim)),
            "theorem_density_lower": theorem_density_bound(n_dim, rank, c),
            "gamma_threshold": gamma_threshold(n_dim, rank, c),
        },
    )


# ---------------------------------------------------------------------------
# volume argument verification


@dataclass(frozen=True)
class VolumeArgumentReport:
    premise_ok: bool
    error: float
    n_dim: int
    rank: int
    rank_required: int
    rank_ok: bool
    min_pair_distance: float
    max_pair_distance: float
    separation_ok: bool
    diameter_ok: bool

    @property
    def ok(self) -> bool:
        return self.premise_ok and self.rank_ok and self.separation_ok and self.diameter_ok


def volume_argument_verify(a: FactoredMatrix) -> VolumeArgumentReport:
    """Check the measurable consequences of error <= 1/3: columns pairwise
    at least 1/3 and at most 5/3 apart in sup norm, and rank at least
    ceil(log_6 N).  A premise violation yields a report, not an error.

    The minimum distance is the exact search over column pairs, run on the
    transposed view of the dense form (the same values, no second copy);
    dense input has margin 0, so it is the exact minimum of those values.  The
    maximum is closed form: the largest |A[r, i] - A[r, j]| of a row is its
    max minus its min, and rounding is monotone, so this is the value a
    pairwise scan would take."""
    err = approx_error(a)
    required = volume_rank_lower_bound(a.n_dim)
    premise_ok = err <= 1.0 / 3.0
    min_d = max_d = math.nan
    if premise_ok:
        mat = a.dense()
        min_d, _, _ = min_pairwise_linf(mat.T)
        max_d = float((mat.max(axis=1) - mat.min(axis=1)).max())
    return VolumeArgumentReport(
        premise_ok=premise_ok,
        error=err,
        n_dim=a.n_dim,
        rank=a.rank_budget,
        rank_required=required,
        rank_ok=a.rank_budget >= required,
        min_pair_distance=min_d,
        max_pair_distance=max_d,
        separation_ok=premise_ok and min_d >= 1.0 / 3.0,
        diameter_ok=premise_ok and max_d <= 5.0 / 3.0,
    )


# ---------------------------------------------------------------------------
# threshold graph and cliques


@dataclass(frozen=True)
class GammaGraph:
    """Graph joining i, j when both |A[i, j]| and |A[j, i]| are <= gamma."""

    n_vertices: int
    gamma: float
    adjacency: np.ndarray  # boolean, symmetric, zero diagonal

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.shape != (self.n_vertices, self.n_vertices):
            raise ParameterError("adjacency shape mismatch")
        if adj.diagonal().any() or not np.array_equal(adj, adj.T):
            raise ParameterError("adjacency must be symmetric with empty diagonal")
        adj = adj.copy()
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    @cached_property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2


def gamma_graph(a: FactoredMatrix, gamma: float) -> GammaGraph:
    if not math.isfinite(gamma):
        raise ParameterError(f"gamma must be finite, got {gamma}")
    mat = a.dense()
    small = np.abs(mat, out=mat) <= gamma
    del mat  # the float N x N goes before small &= small.T copies small.T
    small &= small.T
    np.fill_diagonal(small, False)
    return GammaGraph(a.n_dim, float(gamma), small)


def greedy_clique(graph: GammaGraph) -> list[int]:
    """Deterministic greedy clique: a lower bound, not certified maximal size."""
    adj = graph.adjacency
    clique: list[int] = []
    # the vertices adjacent to every member so far
    common = np.ones(graph.n_vertices, dtype=bool)
    for v in np.argsort(-adj.sum(axis=1), kind="stable").tolist():
        if common[v]:
            clique.append(v)
            common &= adj[v]
    return sorted(clique)


# Expansions of the exact clique search before it gives up (about 2 minutes)
_MAX_EXPANSIONS = 1 << 22


def max_clique(graph: GammaGraph, vertex_cap: int = 200) -> list[int]:
    """Exact maximum clique by branch and bound with greedy-coloring bounds.

    Vertices are ordered by decreasing degree (ties to the smaller index),
    and each expansion sorts candidates by a greedy coloring whose color
    count bounds the clique size in that subtree.  Deterministic: the same
    graph always returns the same clique, listed in ascending vertex order.
    The vertex cap does not bound the search on a dense graph: more than
    ``_MAX_EXPANSIONS`` expansions raise NonconvergenceError.
    """
    n = graph.n_vertices
    if n > vertex_cap:
        raise SizeCapError(f"graph has {n} vertices, exact solver capped at {vertex_cap}")
    if n == 0:
        return []
    order = np.argsort(-graph.adjacency.sum(axis=1), kind="stable")
    # bit j of adj[i]: vertices order[i] and order[j] are adjacent
    adj = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
           for row in graph.adjacency[np.ix_(order, order)]]

    best: list[int] = []
    budget = iter(range(_MAX_EXPANSIONS))  # one item per expansion

    def color_sort(mask: int) -> tuple[list[int], list[int]]:
        ordered: list[int] = []
        bounds: list[int] = []
        color = 0
        rest = mask
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                ordered.append(v)
                bounds.append(color)
                avail &= ~adj[v]
                avail &= ~(1 << v)
                rest &= ~(1 << v)
        return ordered, bounds

    def expand(mask: int, clique: list[int]) -> None:
        nonlocal best
        if next(budget, None) is None:
            raise NonconvergenceError(f"exact clique search hit {_MAX_EXPANSIONS} expansions; "
                                      f"largest clique found has {len(best)} vertices")
        ordered, bounds = color_sort(mask)
        for pos in range(len(ordered) - 1, -1, -1):
            if len(clique) + bounds[pos] <= len(best):
                return
            v = ordered[pos]
            clique.append(v)
            sub = mask & adj[v]
            if sub:
                expand(sub, clique)
            elif len(clique) > len(best):
                best = clique.copy()
            clique.pop()
            mask &= ~(1 << v)

    expand((1 << n) - 1, [])
    return sorted(order[best].tolist())


@dataclass(frozen=True)
class CliqueCheckReport:
    ok: bool
    gamma: float
    max_offdiagonal: float
    offdiagonal_witness: tuple[int, int] | None
    max_diagonal_deviation: float
    diagonal_witness: int | None


def clique_identity_check(
    a: FactoredMatrix, clique: list[int] | np.ndarray, gamma: float
) -> CliqueCheckReport:
    """Verify the clique-indexed submatrix approximates its identity: ok
    when all off-diagonal magnitudes are at most gamma; the largest diagonal
    deviation is reported, not folded into gamma.  Only the clique's k x k
    block is built (``submatrix``), never the N x k columns."""
    idx = np.asarray(sorted(int(v) for v in clique), dtype=np.intp)
    sub = submatrix(a, idx).dense() if idx.size else np.zeros((0, 0))
    diag_dev = np.abs(np.diagonal(sub) - 1.0)
    max_diag = float(diag_dev.max()) if idx.size else 0.0
    diag_wit = int(idx[int(np.argmax(diag_dev))]) if idx.size else None
    off = np.abs(sub)
    np.fill_diagonal(off, -1.0)
    if idx.size >= 2:
        i, j = np.unravel_index(int(np.argmax(off)), off.shape)
        max_off = float(off[i, j])
        off_wit = (int(idx[i]), int(idx[j]))
    else:
        max_off, off_wit = 0.0, None
    return CliqueCheckReport(
        ok=bool(max_off <= gamma),
        gamma=float(gamma),
        max_offdiagonal=max_off,
        offdiagonal_witness=off_wit,
        max_diagonal_deviation=max_diag,
        diagonal_witness=diag_wit,
    )
