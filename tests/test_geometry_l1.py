import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from irlm.errors import SizeCapError
from irlm.geometry import Ellipsoid, _contact_gram, _solve_facet_qp, l1_lower_constant, mvee

from oracles import grid_l1_min, kkt_solve_facet_qp


def unit_ball(dim):
    return Ellipsoid(dim, np.eye(dim), 0.0)


def test_orthonormal_contacts_give_inverse_sqrt_k():
    for k in (1, 2, 3, 5, 8):
        ball = unit_ball(k)
        bound = l1_lower_constant(np.eye(k), ball, method="exact")
        assert abs(bound.value - k**-0.5) <= 1e-9
        assert bound.certified
        assert abs(bound.normalized - bound.value * math.sqrt(k)) < 1e-15


def test_single_unit_vector():
    ball = unit_ball(3)
    bound = l1_lower_constant(np.eye(3)[:1], ball, method="exact")
    assert abs(bound.value - 1.0) <= 1e-12


def test_three_vector_fixture_matches_grid_oracle():
    x = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0 / math.sqrt(3), 1.0 / math.sqrt(3), 1.0 / math.sqrt(3)],
        ]
    )
    ball = unit_ball(3)
    exact = l1_lower_constant(x, ball, method="exact").value
    oracle = grid_l1_min(x, np.eye(3), resolution=60)
    assert abs(exact - oracle) <= 1e-6


def test_exact_matches_grid_oracle_on_random_fixtures(rng):
    for k in (2, 3, 4):
        for trial in range(3):
            x = rng.normal(size=(k, 4))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            ball = unit_ball(4)
            exact = l1_lower_constant(x, ball, method="exact").value
            oracle = grid_l1_min(x, np.eye(4), resolution=48)
            assert abs(exact - oracle) <= 1e-6


def test_exact_below_every_coordinate_norm(rng):
    points = rng.normal(size=(20, 5))
    ell, contacts = mvee(points, tol=1e-7)
    vectors = points[contacts.indices][:6]
    bound = l1_lower_constant(vectors, ell, method="exact")
    norms = ell.norm(vectors)
    assert bound.value <= norms.min() + 1e-12


def test_sampled_is_upper_estimate_of_exact(rng):
    for trial in range(4):
        x = rng.normal(size=(5, 4))
        ball = unit_ball(4)
        exact = l1_lower_constant(x, ball, method="exact").value
        sampled = l1_lower_constant(x, ball, method="sampled", n_samples=8, seed=trial)
        assert not sampled.certified
        assert sampled.value >= exact - 1e-12


def test_subset_monotonicity(rng):
    x = rng.normal(size=(6, 4))
    ball = unit_ball(4)
    full = l1_lower_constant(x, ball, method="exact").value
    sub = l1_lower_constant(x[:4], ball, method="exact").value
    assert sub >= full - 1e-12


def test_exact_size_cap():
    ball = unit_ball(25)
    with pytest.raises(SizeCapError):
        l1_lower_constant(np.eye(25)[:21], ball, method="exact")


def test_projected_gradient_fallback_agrees_with_active_set(rng):
    from irlm.geometry import _kkt_residual, _pg_simplex_qp

    for trial in range(6):
        k = int(rng.integers(2, 9))
        root = rng.normal(size=(k, k))
        q_mat, inv = _contact_gram(root, unit_ball(k))  # PSD, possibly ill conditioned
        r_as, val_as, res_as = _solve_facet_qp(q_mat, inv, np.ones(k))
        assert res_as <= 1e-9
        r_pg = _pg_simplex_qp(q_mat, np.full(k, 1.0 / k), 1e-9, 20_000)
        val_pg = float(r_pg @ q_mat @ r_pg)
        # the fallback may stall slightly above the target residual on
        # ill-conditioned instances but must reach the same minimum value
        assert _kkt_residual(q_mat, r_pg) <= 1e-6
        assert abs(val_pg - val_as) <= 1e-8 * max(1.0, abs(val_as))


def test_extra_patterns_bound_realized_combinations(rng):
    # seeding the sampled method with a combination's own sign pattern makes
    # mu * ||t||_1 <= |sum t x|_D hold for that combination
    x = rng.normal(size=(6, 6))
    ball = unit_ball(6)
    t = rng.normal(size=6)
    pattern = np.sign(t)[None, :]
    bound = l1_lower_constant(x, ball, method="sampled", n_samples=4, seed=0, extra_patterns=pattern)
    lhs = bound.value * np.abs(t).sum()
    rhs = ball.norm(t @ x)
    assert lhs <= rhs + 1e-9


def random_ellipsoid(g, dim):
    root = g.normal(size=(dim, dim))
    return Ellipsoid(dim, root @ root.T + dim * np.eye(dim), 0.0)


@st.composite
def facet_instances(draw):
    """Contact rows, an ellipsoid and a sign pattern.  Long rows tend to get
    no weight at the facet minimum (zero coordinates); spread row scales and
    a near copy of the first row make the D-Gram ill conditioned."""
    k = draw(st.integers(2, 12))
    dim = draw(st.integers(k, k + 3))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = g.normal(size=(k, dim))
    x *= 10.0 ** (draw(st.sampled_from([0.0, 0.5])) * g.uniform(-1, 1, size=(k, 1)))
    x[: draw(st.integers(0, k - 1))] *= 10.0
    if draw(st.booleans()):
        x[-1] = x[0] + 1e-2 * g.normal(size=dim)
    ell = random_ellipsoid(g, dim) if draw(st.booleans()) else unit_ball(dim)
    return x, ell, g.choice([-1.0, 1.0], size=k)


def facet_and_oracle(x, ell, s):
    gram, inv = _contact_gram(x, ell)
    _, val, res = _solve_facet_qp(gram, inv, s)
    r_kkt, val_kkt, _ = kkt_solve_facet_qp(gram * np.outer(s, s))
    return np.linalg.cond(gram), val, res, val_kkt, r_kkt


@given(facet_instances())
def test_facet_qp_matches_kkt_oracle(instance):
    cond, val, res, val_kkt, _ = facet_and_oracle(*instance)
    # both solvers' values carry rounding of about eps * cond(G)
    assume(cond <= 1e6)
    assert res <= 1e-9
    assert abs(val - val_kkt) <= 1e-10 * abs(val_kkt)


def test_facet_qp_matches_kkt_oracle_with_many_zero_coordinates(rng):
    many_zeros = 0
    for trial in range(40):
        x = rng.normal(size=(10, 10))
        x[:6] *= 10.0  # long rows: the minimum often puts no weight on them
        s = rng.choice([-1.0, 1.0], size=10)
        _, val, res, val_kkt, r_kkt = facet_and_oracle(x, random_ellipsoid(rng, 10), s)
        assert res <= 1e-9
        assert abs(val - val_kkt) <= 1e-10 * abs(val_kkt)
        many_zeros += np.count_nonzero(r_kkt <= 1e-12) >= 5
    assert many_zeros >= 5


def test_dependent_contacts_give_zero(rng):
    base = rng.normal(size=(3, 4))
    cases = [
        np.vstack([base, base[1]]),  # duplicate
        np.vstack([base, -base[2]]),  # antipode
        np.vstack([base, base[0] + base[1]]),  # sum of two others
        rng.normal(size=(5, 4)),  # more vectors than dimensions
    ]
    for x in cases:
        for ell in (unit_ball(4), random_ellipsoid(rng, 4)):
            for method in ("exact", "sampled"):
                bound = l1_lower_constant(x, ell, method=method)
                assert bound == (0.0, 0.0, method == "exact", 0)
