import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from irlm.errors import SizeCapError
from irlm.geometry import (
    Ellipsoid,
    _contact_gram,
    _flip_ascent,
    _quadratic_forms,
    _sample_patterns,
    l1_lower_constant,
    mvee,
)

from oracles import grid_l1_min, kkt_solve_facet_qp


def unit_ball(dim):
    return Ellipsoid(dim, np.eye(dim), 0.0)


def test_orthonormal_contacts_give_inverse_sqrt_k():
    for k in (1, 2, 3, 5, 8):
        ball = unit_ball(k)
        bound = l1_lower_constant(np.eye(k), ball, method="exact")
        assert abs(bound.value - k**-0.5) <= 1e-9
        assert bound.certified


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
    norms = np.sqrt(_quadratic_forms(vectors, ell.shape))
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


def test_exact_constant_bounds_realized_combinations(rng):
    # mu * ||t||_1 <= |sum t x|_D holds for every combination at the exact
    # constant, and the sampled constant is never below it, so a cap
    # ||t||_1 <= |sum t x|_D / mu_sampled that holds implies the same bound
    x = rng.normal(size=(6, 6))
    ball = unit_ball(6)
    exact = l1_lower_constant(x, ball, method="exact").value
    sampled = l1_lower_constant(x, ball, method="sampled", n_samples=4, seed=0).value
    assert sampled >= exact - 1e-12
    for t in rng.normal(size=(50, 6)):
        assert exact * np.abs(t).sum() <= np.linalg.norm(t @ x) + 1e-9


def random_ellipsoid(g, dim):
    root = g.normal(size=(dim, dim))
    return Ellipsoid(dim, root @ root.T + dim * np.eye(dim), 0.0)


def contact_instance(k, dim, seed, spread, n_long, near_copy, random_shape):
    """k contact rows in dimension dim and an ellipsoid, from one seed."""
    g = np.random.default_rng(seed)
    x = g.normal(size=(k, dim))
    x *= 10.0 ** (spread * g.uniform(-1, 1, size=(k, 1)))
    x[:n_long] *= 10.0
    if near_copy:
        x[-1] = x[0] + 1e-2 * g.normal(size=dim)
    ell = random_ellipsoid(g, dim) if random_shape else unit_ball(dim)
    return x, ell


@st.composite
def contact_instances(draw, max_k=8):
    """Contact rows and an ellipsoid.  Long rows tend to get no weight at a
    facet minimum (zero coordinates); spread row scales and a near copy of
    the first row make the D-Gram ill conditioned."""
    k = draw(st.integers(2, max_k))
    return contact_instance(
        k,
        draw(st.integers(k, k + 3)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from([0.0, 0.5])),
        draw(st.integers(0, k - 1)),
        draw(st.booleans()),
        draw(st.booleans()),
    )


def d_gram(x, ell):
    """The D-Gram x D x' summed in exact rational arithmetic and rounded
    once per entry.  Formed in float64 it errs by about eps |x||D||x'|,
    which moved a facet value by 7e-11 relative at cond(G) = 6e5."""
    rows = [[Fraction(v) for v in row] for row in x.tolist()]
    shape = [[Fraction(v) for v in row] for row in ell.shape.tolist()]
    xd = [[sum(a * b for a, b in zip(row, col)) for col in zip(*shape)] for row in rows]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in xd]
    return np.array([[float((g + h) / 2) for g, h in zip(row, col)]
                     for row, col in zip(gram, zip(*gram))])


def facet_value(gram, s):
    return kkt_solve_facet_qp(gram * np.outer(s, s))[1]


@given(contact_instances())
# cond(G) = 8.3e5 with a near copy of the first row: the two sides differ by
# 1.01e-10 relative, which a fixed 1e-10 tolerance rejected
@example(contact_instance(6, 7, 1917390891, 0.0, 0, True, False))
# cond(G) = 1.19: the sides differ by 2.2 eps * cond(G) relative, so the
# bound needs the factor k of the rounding model below
@example(contact_instance(2, 5, 1951838119, 0.5, 0, False, False))
def test_exact_matches_facet_enumeration_oracle(instance):
    x, ell = instance
    gram = d_gram(x, ell)
    cond = np.linalg.cond(gram)
    assume(cond <= 1e6)
    k = x.shape[0]
    oracle = min(
        facet_value(gram, np.array((1.0,) + signs))
        for signs in itertools.product((1.0, -1.0), repeat=k - 1)
    )
    bound = l1_lower_constant(x, ell, method="exact")
    assert bound.facets_examined == 2 ** (k - 1)
    assert abs(bound.value**2 - oracle) <= _two_solve_tolerance(k, cond) * oracle


def _two_solve_tolerance(k, cond):
    """Relative tolerance between a facet value from the KKT oracle and the
    same value as 1 / s'Hs.  The oracle solves its bordered KKT system in
    the D-Gram G rounded to float64, the library solves for H = G^(-1)
    through a QR of the whitened contacts.  A relative perturbation u of
    G's entries, or a backward-stable solve of a k x k system, moves the
    value by up to about k * u * cond(G) relative (Higham, Accuracy and
    Stability, Thm 7.2, with u = eps / 2), and the two sides together by at
    most twice that, below 2 k eps cond(G) with eps for u.  At the k <= 12
    and cond(G) <= 1e6 the tests admit this is at most 5.3e-9.  With the
    Gram rounded once from exact sums (``d_gram``) the library side erred
    by about 1e-14 and the oracle by the rounding of G alone: over 196
    hypothesis seeds the largest difference measured was 0.21 k eps cond(G)
    (6.5e-11 relative)."""
    return 2.0 * k * np.finfo(np.float64).eps * cond


def foot_weights(inv, s):
    """Barycentric weights s_i (Hs)_i / s'Hs of the foot of the facet
    hyperplane s't = 1; they sum to 1 and give r'Qr = 1 / s'Hs."""
    hs = inv @ s
    return s * hs / float(s @ hs)


@given(contact_instances(max_k=12), st.lists(st.sampled_from([1.0, -1.0]), min_size=12, max_size=12))
def test_facet_qp_matches_kkt_oracle(instance, signs):
    # a facet's minimum is at least its hyperplane value 1 / s'Hs, and equals
    # it, attained at the foot, when the foot lies in the facet; the flip
    # ascent from the facet ends on such a facet with a larger s'Hs
    x, ell = instance
    gram = d_gram(x, ell)
    # both sides carry rounding of about eps * cond(G)
    assume(np.linalg.cond(gram) <= 1e6)
    inv = _contact_gram(x, ell)
    s = np.array(signs[: x.shape[0]])
    r_kkt, val_kkt, _ = kkt_solve_facet_qp(gram * np.outer(s, s))
    quad = float(s @ inv @ s)
    plane = 1.0 / quad
    assert plane <= val_kkt * (1.0 + 1e-10)
    foot = foot_weights(inv, s)
    if foot.min() >= 0.0:
        assert abs(plane - val_kkt) <= 1e-10 * val_kkt
        assert np.abs(r_kkt - foot).max() <= 1e-6
    s_end, value = _flip_ascent(inv, s[None, :])
    assert value >= quad * (1.0 - 1e-12)
    r_end, val_end, _ = kkt_solve_facet_qp(gram * np.outer(s_end, s_end))
    assert abs(val_end - 1.0 / value) <= 1e-10 * val_end
    assert np.abs(r_end - foot_weights(inv, s_end)).max() <= 1e-6


def test_facet_qp_matches_kkt_oracle_with_many_zero_coordinates(rng):
    # where the facet minimum puts no weight on some coordinates the foot
    # lies outside the facet, so the hyperplane value is only a lower
    # estimate; the flip ascent started from that facet stays below it
    many_zeros = 0
    for trial in range(40):
        x = rng.normal(size=(10, 10))
        x[:6] *= 10.0  # long rows: the minimum often puts no weight on them
        ell = random_ellipsoid(rng, 10)
        s = rng.choice([-1.0, 1.0], size=10)
        r_kkt, val_kkt, res = kkt_solve_facet_qp(d_gram(x, ell) * np.outer(s, s))
        assert res <= 1e-9
        inv = _contact_gram(x, ell)
        plane = 1.0 / float(s @ inv @ s)
        assert plane <= val_kkt * (1.0 + 1e-10)
        zeros = np.count_nonzero(r_kkt <= 1e-12)
        if zeros:
            assert foot_weights(inv, s).min() <= 1e-9
        assert 1.0 / _flip_ascent(inv, s[None, :])[1] <= plane * (1.0 + 1e-12)
        many_zeros += zeros >= 5
    assert many_zeros >= 5


@pytest.mark.parametrize("k", [1, 5, 95])
@pytest.mark.parametrize("n_samples", [1, 4, 64])
def test_sample_patterns_match_row_by_row_draws(k, n_samples):
    # one draw of k * (n_samples - 1) signs reshaped to rows is the same
    # sequential stream as n_samples - 1 draws of k signs
    from irlm import rng

    for seed in range(4):
        stream = rng.SplitMix64(rng.derive_key(seed, k))
        rows = np.array([np.ones(k)] + [stream.next_signs(k) for _ in range(n_samples - 1)])
        rows *= np.where(rows[:, :1] < 0, -1.0, 1.0)
        _, first = np.unique(rows, axis=0, return_index=True)
        expected = rows[np.sort(first)]
        patterns = _sample_patterns(k, n_samples, seed)
        assert patterns.shape == expected.shape
        assert np.array_equal(patterns, expected)


@given(contact_instances(max_k=12), st.integers(1, 8), st.integers(0, 3))
def test_sampled_ascent_ends_on_a_facet_at_mu(instance, n_samples, seed):
    # the ascent's last pattern is a facet whose own minimum is mu^2: the
    # hyperplane foot lies inside the facet, so mu is a true facet distance
    x, ell = instance
    gram = d_gram(x, ell)
    cond = np.linalg.cond(gram)
    assume(cond <= 1e6)
    k = x.shape[0]
    patterns = _sample_patterns(k, n_samples, seed)
    s, _ = _flip_ascent(_contact_gram(x, ell), patterns)
    bound = l1_lower_constant(x, ell, method="sampled", n_samples=n_samples, seed=seed)
    assert bound.facets_examined == len(patterns)
    tol = _two_solve_tolerance(k, cond)
    assert abs(facet_value(gram, s) - bound.value**2) <= tol * bound.value**2


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
                assert bound == (0.0, method == "exact", 0)
