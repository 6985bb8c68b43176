import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irlm import from_factors, make_identity, make_random_sign
from irlm.bounds import (
    GammaGraph,
    bound_summary,
    clique_identity_check,
    gamma_graph,
    gamma_threshold,
    greedy_clique,
    implied_density_lower,
    max_clique,
    probabilistic_upper_bound,
    theorem_density_bound,
    turan_edge_bound,
    volume_argument_verify,
    volume_rank_lower_bound,
)
from irlm.errors import ParameterError, SizeCapError

from oracles import (
    blocked_min_pairwise_linf,
    brute_max_clique,
    edge_count_scan,
    scan_greedy_clique,
)


# -- closed-form bounds --------------------------------------------------------


def test_probabilistic_upper_values():
    assert abs(probabilistic_upper_bound(256, 64) - 0.58871) <= 1e-5
    # exact cancellation when n = 4 ln N
    n_dim = 1000
    assert probabilistic_upper_bound(n_dim, 4.0 * math.log(n_dim)) == 1.0
    values = [probabilistic_upper_bound(2, n) for n in (1, 2, 4, 8, 64, 512)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.08


def test_volume_rank_lower_bound_boundaries():
    assert volume_rank_lower_bound(216) == 3
    assert volume_rank_lower_bound(217) == 4
    assert volume_rank_lower_bound(1) == 0
    assert volume_rank_lower_bound(6) == 1
    assert volume_rank_lower_bound(7) == 2


def test_theorem_density_bound_values():
    assert abs(theorem_density_bound(1024, 64, 1.0) - 0.04477) <= 1e-4
    n_dim = 500
    assert abs(theorem_density_bound(n_dim, math.log(n_dim), 1.0) - 1.0 / math.log(3)) <= 1e-12


@given(n_dim=st.sampled_from([64, 256, 1024, 4096]))
def test_theorem_density_bound_monotone_in_rank(n_dim):
    ranks = range(1, 80, 3)
    vals = [theorem_density_bound(n_dim, r, 1.0) for r in ranks]
    assert all(a > b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(v > 0 and math.isfinite(v) for v in vals)


def test_gamma_threshold_branches():
    assert gamma_threshold(1024, 64, 1.0) == 1.0 / 64.0
    assert abs(gamma_threshold(1024, 16, 1.0) - math.log(1024) / 64.0) <= 1e-12
    # branch crossover at n = (ln N)^2
    n_dim = 1024
    crossover = math.log(n_dim) ** 2
    lo, hi = int(crossover) - 3, int(crossover) + 3
    left = gamma_threshold(n_dim, lo, 1.0)
    assert abs(left - lo**-1.5 * math.log(n_dim)) <= 1e-15
    right = gamma_threshold(n_dim, hi, 1.0)
    assert abs(right - 1.0 / hi) <= 1e-15


def test_turan_and_implied_density_values():
    assert turan_edge_bound(10, 3) == 25.0
    assert turan_edge_bound(10, 2) == 0.0
    assert turan_edge_bound(10, 11) == 45.0
    assert implied_density_lower(10, 3) == 0.4
    assert implied_density_lower(10, 2) == pytest.approx(0.9)
    assert implied_density_lower(4, 100) == 0.0  # bound above C(N,2) clamps to zero


def test_bound_summary_contains_all_values():
    summary = bound_summary(1024, 64, None, 1.0)
    assert summary.gamma == 1.0 / 64.0
    vals = summary.values
    assert set(vals) == {
        "probabilistic_upper",
        "volume_rank_lower",
        "theorem_density_lower",
        "gamma_threshold",
    }
    assert all(math.isfinite(v) and v >= 0 for v in vals.values())


# -- volume argument -------------------------------------------------------------


def test_volume_argument_identity():
    report = volume_argument_verify(make_identity(16))
    assert report.ok
    assert report.min_pair_distance == 1.0
    assert report.max_pair_distance == 1.0
    assert report.rank_required == volume_rank_lower_bound(16)


def test_volume_argument_full_rank_sign_fixture():
    a = make_random_sign(256, 256, 1)
    report = volume_argument_verify(a)
    assert report.premise_ok
    assert report.ok
    assert report.min_pair_distance >= 1.0 / 3.0
    assert report.max_pair_distance <= 5.0 / 3.0


@st.composite
def near_identity_matrices(draw):
    """I + E with |E| <= 1/3, so the volume premise holds: uniform floats,
    a lattice of step 1/12 off the diagonal (ties, and entries at exactly
    1/3), and the same lattice with one column copied onto another outside
    their two diagonal rows, the closest pair the premise allows."""
    n = draw(st.integers(min_value=1, max_value=40))
    kind = draw(st.sampled_from(["floats", "lattice", "repeated"]))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "floats":
        return np.eye(n) + gen.uniform(-0.33, 0.33, (n, n))
    mat = gen.integers(-4, 5, (n, n)) / 12.0
    np.fill_diagonal(mat, 1.0 + gen.integers(-2, 3, n) / 8.0)
    if kind == "repeated" and n >= 2:
        src, dst = gen.choice(n, size=2, replace=False)
        rows = np.setdiff1d(np.arange(n), [src, dst])
        mat[rows, dst] = mat[rows, src]
    return mat


@settings(max_examples=200)
@given(near_identity_matrices())
def test_volume_argument_distances_equal_pairwise_scans(mat):
    a = from_factors(mat, np.eye(mat.shape[0]))
    report = volume_argument_verify(a)
    dense = a.dense()
    assert report.premise_ok
    assert report.min_pair_distance == blocked_min_pairwise_linf(dense.T)
    # every ordered column pair, the diagonal's zeros included
    assert report.max_pair_distance == float(np.abs(dense[:, :, None] - dense[:, None, :]).max())
    assert report.separation_ok == (report.min_pair_distance >= 1.0 / 3.0)
    assert report.diameter_ok == (report.max_pair_distance <= 5.0 / 3.0)


def test_volume_argument_premise_failure_is_report_not_error():
    report = volume_argument_verify(make_random_sign(64, 2, 1))
    assert not report.premise_ok
    assert not report.ok
    assert math.isnan(report.min_pair_distance)


def test_volume_argument_rank_two_premise_fails_for_all_fixture_seeds():
    # at rank 2 the sign construction always hits off-diagonal entries of
    # magnitude 1, so the 1/3 premise fails for every seed
    for seed in range(1, 11):
        report = volume_argument_verify(make_random_sign(4096, 2, seed))
        assert not report.premise_ok
        assert report.error > 1.0 / 3.0


# -- threshold graph --------------------------------------------------------------


def test_gamma_graph_identity_complete_and_ones_empty():
    g = gamma_graph(make_identity(8), 0.5)
    assert g.edge_count == 8 * 7 // 2
    ones = from_factors(np.ones((10, 1)), np.ones((1, 10)), kind="custom")
    g1 = gamma_graph(ones, 0.5)
    assert g1.edge_count == 0


def test_gamma_graph_edge_count_matches_scan():
    a = make_random_sign(24, 6, 5)
    for gamma in (0.1, 0.25, 0.5):
        g = gamma_graph(a, gamma)
        assert g.edge_count == edge_count_scan(a.dense(), gamma)


def test_gamma_graph_symmetrization_uses_both_entries():
    mat = np.eye(3)
    mat[0, 1] = 0.9  # asymmetric large entry blocks the edge both ways
    a = from_factors(mat, np.eye(3), kind="custom")
    g = gamma_graph(a, 0.5)
    assert not g.adjacency[0, 1] and not g.adjacency[1, 0]
    assert g.adjacency[0, 2] and g.adjacency[1, 2]


# -- cliques ------------------------------------------------------------------------


def graph_from_adjacency(adj):
    adj = np.asarray(adj, dtype=bool)
    return GammaGraph(adj.shape[0], 0.0, adj)


def test_max_clique_known_graphs():
    k5 = ~np.eye(5, dtype=bool)
    assert len(max_clique(graph_from_adjacency(k5))) == 5
    c5 = np.zeros((5, 5), dtype=bool)
    for i in range(5):
        c5[i, (i + 1) % 5] = c5[(i + 1) % 5, i] = True
    assert len(max_clique(graph_from_adjacency(c5))) == 2
    k55 = np.zeros((10, 10), dtype=bool)
    k55[:5, 5:] = True
    k55[5:, :5] = True
    g = graph_from_adjacency(k55)
    assert len(max_clique(g)) == 2
    assert g.edge_count == 25
    assert g.edge_count == turan_edge_bound(10, 3)


def test_max_clique_matches_brute_force_random_suite(rng):
    for trial in range(30):
        n = int(rng.integers(2, 13))
        density = float(rng.uniform(0.1, 0.9))
        adj = rng.random((n, n)) < density
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        g = graph_from_adjacency(adj)
        clique = max_clique(g)
        assert len(clique) == brute_max_clique(adj)
        for i in clique:
            for j in clique:
                if i != j:
                    assert adj[i, j]


def test_max_clique_deterministic():
    adj = np.zeros((8, 8), dtype=bool)
    pairs = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    for i, j in pairs:
        adj[i, j] = adj[j, i] = True
    g = graph_from_adjacency(adj)
    assert max_clique(g) == max_clique(g)


def test_max_clique_vertex_cap():
    adj = np.zeros((12, 12), dtype=bool)
    with pytest.raises(SizeCapError):
        max_clique(graph_from_adjacency(adj), vertex_cap=10)


def test_greedy_clique_is_clique_and_lower_bound(rng):
    for trial in range(5):
        n = int(rng.integers(4, 14))
        adj = rng.random((n, n)) < 0.5
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        g = graph_from_adjacency(adj)
        greedy = greedy_clique(g)
        for i in greedy:
            for j in greedy:
                if i != j:
                    assert adj[i, j]
        assert len(greedy) <= len(max_clique(g))


def tied_graph(seed: int, n: int) -> np.ndarray:
    """A circulant graph on n vertices, where every degree ties, with up to
    three arcs toggled before it is symmetrized, so a few degrees differ."""
    gen = np.random.default_rng(seed)
    steps = gen.choice(np.arange(1, n // 2 + 1), size=int(gen.integers(1, n // 3 + 2)),
                       replace=False)
    adj = np.zeros((n, n), dtype=bool)
    ring = np.arange(n)
    for step in steps:
        adj[ring, (ring + step) % n] = True
    for _ in range(int(gen.integers(0, 4))):
        i, j = gen.choice(n, size=2, replace=False)
        adj[i, j] = ~adj[i, j]
    adj |= adj.T
    return adj


@st.composite
def tied_adjacencies(draw):
    """Symmetric graphs on 0..40 vertices: random ones, where small graphs
    tie on degree often, and from 4 vertices the circulants of `tied_graph`."""
    n = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    if n >= 4 and draw(st.booleans()):
        return tied_graph(seed, n)
    gen = np.random.default_rng(seed)
    adj = np.triu(gen.random((n, n)) < draw(st.sampled_from([0.1, 0.5, 0.9])), 1)
    return adj | adj.T


@settings(max_examples=200)
@given(tied_adjacencies())
def test_greedy_clique_equals_the_member_by_member_scan(adj):
    assert greedy_clique(graph_from_adjacency(adj)) == scan_greedy_clique(adj)


# max_clique's vertices on the graphs tied_graph(seed, 21 + seed), recorded
# with the relabel-dict bitsets it was first written with
TIED_MAX_CLIQUES = {
    0: [3, 5, 12, 14, 15, 17], 1: [6, 11, 16, 21], 2: [17, 18, 19, 20, 21, 22],
    3: [12, 13, 14, 21, 22, 23], 4: [4, 5, 13, 14, 23, 24], 5: [17, 18, 22, 23],
    6: [10, 16, 22], 7: [4, 9, 13, 14, 18, 22, 23, 27], 8: [9, 17, 20, 28],
    9: [16, 18, 28], 10: [3, 10, 17, 24, 27], 11: [18, 20, 22], 12: [18, 21, 31, 32],
    13: [3, 7, 16, 20, 28, 29], 14: [22, 34], 15: [19, 24, 27, 28, 32, 35],
    16: [8, 25, 34, 35, 36], 17: [28, 30, 32, 34, 36], 18: [4, 9, 14, 19, 24, 29, 34, 38],
    19: [27, 29, 34, 36],
}


@pytest.mark.parametrize("seed", sorted(TIED_MAX_CLIQUES))
def test_max_clique_vertices_on_tied_graphs(seed):
    adj = tied_graph(seed, 21 + seed)
    clique = max_clique(graph_from_adjacency(adj))
    assert clique == TIED_MAX_CLIQUES[seed]
    assert all(type(v) is int for v in clique)


def test_turan_consistency_on_gamma_graphs():
    for seed in (1, 2, 3):
        a = make_random_sign(20, 5, seed)
        for gamma in (0.2, 0.4, 0.6):
            g = gamma_graph(a, gamma)
            omega = len(max_clique(g))
            assert g.edge_count <= turan_edge_bound(20, omega + 1) + 1e-9


def test_clique_identity_check_examples():
    eye = make_identity(6)
    report = clique_identity_check(eye, [0, 2, 4], 0.0)
    assert report.ok
    mat = np.eye(4)
    mat[1, 2] = mat[2, 1] = 0.26
    a = from_factors(mat, np.eye(4), kind="custom")
    report = clique_identity_check(a, [1, 2], 0.25)
    assert not report.ok
    assert report.offdiagonal_witness == (1, 2)
    assert report.max_offdiagonal == pytest.approx(0.26)


def test_gamma_graph_cliques_always_pass_identity_check():
    for seed in (1, 2):
        a = make_random_sign(24, 6, seed)
        for gamma in (0.3, 0.5):
            g = gamma_graph(a, gamma)
            clique = max_clique(g)
            assert clique_identity_check(a, clique, gamma).ok


# -- parameter validation -------------------------------------------------------


def test_parameter_validation():
    with pytest.raises(ParameterError):
        probabilistic_upper_bound(1, 4)
    with pytest.raises(ParameterError):
        theorem_density_bound(2, 4, 1.0)
    with pytest.raises(ParameterError):
        gamma_threshold(1024, 64, 0.0)
    with pytest.raises(ParameterError):
        turan_edge_bound(10, 1)
