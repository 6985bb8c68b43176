import itertools
import math

import numpy as np
import pytest

from irlm import geometry, make_random_sign
from irlm.errors import DegenerateSpanError, NonconvergenceError, ParameterError
from irlm.geometry import Ellipsoid, mvee, rank_factorize

from oracles import mvee_multiplicative


def test_cross_polytope_unit_ball():
    ell, contacts = mvee(np.eye(4), tol=1e-9)
    assert np.allclose(ell.shape, np.eye(4), atol=1e-7)
    assert len(contacts) == 4
    assert np.allclose(contacts.weights, 1.0, atol=1e-9)
    assert contacts.residual <= 1e-8


def test_scaled_cross_polytope():
    ell, _ = mvee(2.0 * np.eye(4), tol=1e-9)
    assert np.allclose(ell.shape, np.eye(4) / 4.0, atol=1e-9)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cube_vertices_with_repeats(n):
    # the symmetric hull of the +-1 cube has the ball of radius sqrt(n) as
    # its John ellipsoid, M = I / n; repeating three vertices five more times
    # makes the uniform start non-uniform over the distinct vertices
    cube = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    points = np.vstack([cube] + [cube[:3]] * 5)
    ell, contacts = mvee(points, tol=1e-9)
    assert np.abs(ell.shape - np.eye(n) / n).max() <= 1e-8
    assert abs(ell.log_det + n * math.log(n)) <= 1e-12
    assert abs(contacts.weights.sum() - n) <= 1e-12
    assert contacts.residual <= 1e-12


def test_random_fixture_against_multiplicative_oracle(rng):
    for trial in range(5):
        points = rng.normal(size=(30, 5))
        ell, contacts = mvee(points, tol=1e-7)
        leverages = np.einsum("ij,jk,ik->i", points, ell.shape, points)
        assert leverages.max() <= 1.0 + 1e-7
        assert contacts.residual <= 10 * 1e-7
        assert abs(contacts.weights.sum() - 5.0) <= 10 * 1e-7
        assert np.all(contacts.weights >= 0)
        _, oracle_log_det = mvee_multiplicative(points, iters=200_000, tol=1e-11)
        assert abs(ell.log_det - oracle_log_det) < 1e-5


def test_scaling_equivariance(rng):
    points = rng.normal(size=(25, 4))
    ell1, _ = mvee(points, tol=1e-8)
    ell2, _ = mvee(2.0 * points, tol=1e-8)
    assert np.allclose(ell2.shape, ell1.shape / 4.0, rtol=1e-6, atol=1e-12)


def test_rotation_equivariance(rng):
    points = rng.normal(size=(25, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    ell1, _ = mvee(points, tol=1e-8)
    ell2, _ = mvee(points @ q.T, tol=1e-8)
    assert np.allclose(ell2.shape, q @ ell1.shape @ q.T, rtol=1e-6, atol=1e-8)


def test_degenerate_span_raises(rng):
    flat = np.zeros((10, 3))
    flat[:, :2] = rng.normal(size=(10, 2))
    with pytest.raises(DegenerateSpanError):
        mvee(flat, tol=1e-7)
    with pytest.raises(DegenerateSpanError):
        mvee(rng.normal(size=(2, 3)), tol=1e-7)


def test_iteration_cap_raises_with_gap(rng, monkeypatch):
    monkeypatch.setattr(geometry, "_MAX_ITER", 3)
    points = rng.normal(size=(40, 6))
    with pytest.raises(NonconvergenceError) as exc:
        mvee(points, tol=1e-9)
    assert exc.value.gap is not None and exc.value.gap > 0


def test_tol_validation(rng):
    with pytest.raises(ParameterError):
        mvee(np.eye(3), tol=0.5)


def test_contact_count_in_john_range(rng):
    for trial in range(4):
        points = rng.normal(size=(40, 5))
        ell, contacts = mvee(points, tol=1e-7)
        assert 5 <= len(contacts) <= 5 * 6 // 2


def test_rank_factorize_identity_and_low_rank(rng):
    from irlm import from_factors, make_identity

    space = rank_factorize(make_identity(3), 1e-10)
    assert space.dim == 3
    assert np.allclose(space.basis.T @ space.basis, np.eye(3), atol=1e-10)
    assert np.allclose(space.basis @ space.coords, np.eye(3), atol=1e-8)

    one = from_factors(np.arange(1.0, 5.0).reshape(4, 1), np.ones((1, 4)), kind="custom")
    space1 = rank_factorize(one, 1e-10)
    assert space1.dim == 1
    assert np.allclose(space1.basis @ space1.coords, one.dense(), atol=1e-8)


def test_rank_factorize_random_sign_seeds():
    for seed in range(1, 11):
        a = make_random_sign(64, 16, seed)
        space = rank_factorize(a, 1e-10)
        assert space.dim == 16
        dense = a.dense()
        rel = np.linalg.norm(space.basis @ space.coords - dense) / np.linalg.norm(dense)
        assert rel <= 1e-8
