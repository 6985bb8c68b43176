import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from irlm import geometry, make_random_sign
from irlm.bounds import gamma_threshold
from irlm.errors import RankDeficiencyError
from irlm.geometry import (
    Ellipsoid,
    Frame,
    _complete_pivot_init,
    _drop_one_values,
    _flip_ascent,
    _independent_prefix,
    _sample_patterns,
    auerbach_basis,
    complete_frame,
    expand_coefficients,
    l1_lower_constant,
    mvee,
    select_contact_subset,
)
from irlm.prooftrace import TraceConfig, trace

from oracles import (
    brute_drop_one_select,
    exhaustive_best_det,
    loop_complete_pivot_init,
    resolve_auerbach_basis,
)


def unit_ball(dim):
    return Ellipsoid(dim, np.eye(dim), 0.0)


def trace_call(monkeypatch, name, n_dim, rank, seed, basis):
    """The arguments of the one call of geometry.`name` in the trace of
    sign n_dim/rank at `seed` with the given basis."""
    seen = []
    real = getattr(geometry, name)
    monkeypatch.setattr(geometry, name, lambda *args: seen.append(args) or real(*args))
    gamma = gamma_threshold(n_dim, rank, 0.25)
    trace(make_random_sign(n_dim, rank, seed), TraceConfig(gamma=gamma, basis_mode=basis))
    monkeypatch.undo()
    (args,) = seen
    return args


# -- contact subset selection -------------------------------------------------


def test_identity_selection_when_already_independent(rng):
    x = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    sel = select_contact_subset(x, unit_ball(4), 4)
    assert np.array_equal(np.sort(sel), np.arange(4))


def test_antipodal_duplicates_collapse():
    x = np.vstack([np.eye(3)[0], -np.eye(3)[0]])
    sel = select_contact_subset(x, unit_ball(3), 1)
    assert sel.size == 1


def test_selection_caps_at_independent_count():
    # an antipodal pair holds one independent vector, so a target of 2
    # keeps that one instead of failing
    x = np.vstack([np.eye(3)[0], -np.eye(3)[0]])
    assert list(select_contact_subset(x, unit_ball(3), 2)) == [0]


def test_greedy_subset_does_not_decrease_constant(rng):
    points = rng.normal(size=(30, 5))
    ell, contacts = mvee(points, tol=1e-7)
    vectors = points[contacts.indices][:8]
    sel = select_contact_subset(vectors, ell, 4)
    mu_sub = l1_lower_constant(vectors[sel], ell, method="exact").value
    mu_full = l1_lower_constant(vectors, ell, method="exact").value
    assert mu_sub >= mu_full - 1e-12


@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 10),
    st.integers(1, 2),
    st.integers(1, 4),
    st.integers(0, 3),
)
def test_drop_one_select_matches_kkt_oracle(data_seed, k, drops, samples, seed):
    g = np.random.default_rng(data_seed)
    dim = k + int(g.integers(0, 3))
    root = g.normal(size=(dim, dim))
    ell = Ellipsoid(dim, root @ root.T + dim * np.eye(dim), 0.0)
    x = g.normal(size=(k, dim))
    current = _independent_prefix(x, ell)
    assert current == list(range(k))
    got = select_contact_subset(x, ell, k - drops, samples, seed)
    want = brute_drop_one_select(x, ell.shape, current, k - drops, samples, seed)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n_dim, seed", [(96, 1), (96, 2), (96, 3), (96, 4), (256, 1)])
def test_drop_one_select_matches_the_oracle_on_trace_contacts(monkeypatch, n_dim, seed):
    # the MVEE contacts the lemmaA trace of sign n_dim/n_dim selects from
    x, ell, target_k, samples, sample_seed = trace_call(
        monkeypatch, "select_contact_subset", n_dim, n_dim, seed, "lemmaA"
    )
    current = _independent_prefix(x, ell)
    assert len(current) > target_k  # at least one drop-one round
    got = select_contact_subset(x, ell, target_k, samples, sample_seed)
    want = brute_drop_one_select(x, ell.shape, current, target_k, samples, sample_seed)
    assert np.array_equal(got, want)


@given(st.integers(0, 2**32 - 1), st.integers(2, 14), st.integers(1, 6), st.integers(0, 3),
       st.sampled_from([1, 2, None]))
def test_drop_one_select_values_match_explicit_downdates(data_seed, k, samples, seed, block):
    # every candidate's value against the ascent on its explicitly formed
    # downdated inverse H_-d-d - h h' / H_dd; `block` candidates per stack
    root = np.random.default_rng(data_seed).normal(size=(k, k))
    inv = np.linalg.inv(root @ root.T + np.eye(k))
    inv = (inv + inv.T) / 2.0
    patterns = _sample_patterns(k - 1, samples, seed)
    entries = geometry._SELECTION_BLOCK_ENTRIES if block is None else block * len(patterns) * k
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_SELECTION_BLOCK_ENTRIES", entries)
        got = _drop_one_values(inv, patterns)
    for d in range(k):
        keep = np.delete(np.arange(k), d)
        h = inv[keep, d]
        want = _flip_ascent(inv[np.ix_(keep, keep)] - np.outer(h, h) / inv[d, d], patterns)[1]
        assert abs(got[d] - want) <= 1e-12 * want


def test_drop_one_select_gives_dependent_candidates_zero(monkeypatch):
    # rows 0 and 2 coincide, so the set's D-Gram has no inverse to downdate;
    # each candidate is factored on its own and {e1, e1} scores 0.  The
    # independence filter would drop row 2, so it is bypassed here.
    monkeypatch.setattr(geometry, "_independent_prefix", lambda vectors, ell: [0, 1, 2])
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert list(select_contact_subset(x, unit_ball(2), 2, 4, 0)) == [1, 2]


def test_independent_prefix_keeps_independent_prefix_in_order(rng):
    x = rng.normal(size=(4, 6))
    rows = np.vstack([x[0], -x[0], x[1], x[0] + x[1], x[2], 1e-3 * x[3], x[2] - x[1]])
    assert _independent_prefix(rows, unit_ball(6)) == [0, 2, 4, 5]
    # no more vectors than dimensions are kept
    assert _independent_prefix(rng.normal(size=(9, 5)), unit_ball(5)) == [0, 1, 2, 3, 4]


# -- frame completion and expansion --------------------------------------------


def test_full_contact_set_gives_empty_complement(rng):
    x = np.linalg.qr(rng.normal(size=(5, 5)))[0]
    frame = complete_frame(x, unit_ball(5))
    assert frame.complement.shape == (0, 5)


def test_dependent_contacts_are_refused(rng):
    base = rng.normal(size=(3, 5))
    ell = Ellipsoid(5, np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), 0.0)
    for x in (np.vstack([base, -base[1]]), np.vstack([base, base[0] + base[2]]), rng.normal(size=(6, 5))):
        with pytest.raises(RankDeficiencyError):
            complete_frame(x, ell)


def test_empty_contact_set_gives_orthonormal_basis(rng):
    m = rng.normal(size=(4, 4))
    shape = m @ m.T + 4 * np.eye(4)
    ell = Ellipsoid(4, shape, float(np.linalg.slogdet(shape)[1]))
    frame = complete_frame(np.zeros((0, 4)), ell)
    gram = frame.complement @ shape @ frame.complement.T
    assert np.allclose(gram, np.eye(4), atol=1e-10)


def test_partial_frame_orthogonality(rng):
    points = rng.normal(size=(40, 6))
    ell, contacts = mvee(points, tol=1e-7)
    vectors = points[contacts.indices]
    sel = select_contact_subset(vectors, ell, 4)
    frame = complete_frame(vectors[sel], ell)
    assert frame.complement.shape == (2, 6)
    cross = np.abs(frame.contacts @ ell.shape @ frame.complement.T)
    assert cross.max() <= 1e-10
    gram = frame.complement @ ell.shape @ frame.complement.T
    assert np.allclose(gram, np.eye(2), atol=1e-10)


def test_expand_contacts_reproduce_identity_pattern(rng):
    points = rng.normal(size=(30, 5))
    ell, contacts = mvee(points, tol=1e-7)
    vectors = points[contacts.indices]
    sel = select_contact_subset(vectors, ell, 3)
    frame = complete_frame(vectors[sel], ell)
    t, s = expand_coefficients(vectors[sel].T, frame)
    assert np.allclose(t, np.eye(3), atol=1e-9)
    assert np.abs(s).max() <= 1e-9


def test_expand_orthogonal_column_has_zero_contact_part(rng):
    ell = unit_ball(4)
    contacts = np.eye(4)[:2]
    frame = complete_frame(contacts, ell)
    column = frame.complement[0]
    t, s = expand_coefficients(column.reshape(4, 1), frame)
    assert np.abs(t).max() <= 1e-12
    assert abs(s[0, 0] - 1.0) <= 1e-12


def test_expansion_reconstructs_all_columns(rng):
    points = rng.normal(size=(30, 5))
    ell, contacts = mvee(points, tol=1e-7)
    vectors = points[contacts.indices]
    sel = select_contact_subset(vectors, ell, 4)
    frame = complete_frame(vectors[sel], ell)
    cols = points.T
    t, s = expand_coefficients(cols, frame)
    recon = frame.contacts.T @ t + frame.complement.T @ s
    norms = np.linalg.norm(cols, axis=0)
    rel = np.linalg.norm(recon - cols, axis=0) / norms
    assert rel.max() <= 1e-8


def frame_instance(seed, dim, k, lemma_b):
    """k contacts in dimension dim and an ellipsoid, from one seed; with
    lemma_b, the trace's maxvol frame instead: a basis of random points,
    the identity shape and no complement."""
    g = np.random.default_rng(seed)
    if lemma_b:
        points = g.normal(size=(dim + 4, dim))
        x = points[auerbach_basis(points, 0.01).indices]
        ell = unit_ball(dim)
    else:
        root = g.normal(size=(dim, dim))
        ell = Ellipsoid(dim, root @ root.T + dim * np.eye(dim), 0.0)
        x = g.normal(size=(k, dim))
    assume(x.shape[0] == 0 or np.linalg.cond(x @ ell.shape @ x.T) <= 1e4)
    return x, ell, g


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 8), st.booleans())
def test_qr_complement_spans_the_d_orthogonal_complement(seed, dim, k, lemma_b):
    # C'C D is the D-orthogonal projector I - X'(X D X')^(-1) X D onto the
    # complement of the contacts, so the complement spans the same space
    x, ell, _ = frame_instance(seed, dim, min(k, dim), lemma_b)
    comp = complete_frame(x, ell).complement
    assert comp.shape == (dim - x.shape[0], dim)
    proj = x @ ell.shape
    want = np.eye(dim) - x.T @ np.linalg.solve(proj @ x.T, proj)
    assert np.abs(comp.T @ comp @ ell.shape - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8), st.booleans())
def test_closed_form_expansion_matches_lstsq(seed, dim, k, lemma_b):
    x, ell, g = frame_instance(seed, dim, min(k, dim), lemma_b)
    if lemma_b:
        frame = Frame(contacts=x, complement=np.zeros((0, dim)), ellipsoid=ell)
    else:
        frame = complete_frame(x, ell)
    v = g.normal(size=(dim, 5))
    t, s = expand_coefficients(v, frame)
    basis = np.vstack([frame.contacts, frame.complement])
    want = np.linalg.lstsq(basis.T, v, rcond=None)[0][: x.shape[0]]
    assert np.abs(t - want).max() <= 1e-12 * np.abs(want).max()


# -- maxvol basis ----------------------------------------------------------------


def test_cross_polytope_selects_one_per_axis():
    points = np.vstack([np.eye(3), -np.eye(3)])
    basis = auerbach_basis(points, 0.01)
    axes = sorted(i % 3 for i in basis.indices)
    assert axes == [0, 1, 2]
    assert basis.coefficient_bound <= 1.0 + 1e-12
    assert abs(abs(np.linalg.det(points[basis.indices])) - 1.0) <= 1e-12


def test_interior_points_never_selected():
    points = np.vstack([np.eye(3), -np.eye(3), 0.5 * np.eye(3)])
    basis = auerbach_basis(points, 0.01)
    assert all(i < 6 for i in basis.indices)


def test_random_fixture_coefficient_bound(rng, monkeypatch):
    points = rng.normal(size=(30, 5))
    solve, solves = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
    basis = auerbach_basis(points, 0.01)
    monkeypatch.undo()
    # the swaps pivot the tableau; only the start and the reported bound
    # take a solve
    assert basis.swaps > 0 and len(solves) == 2
    assert basis.coefficient_bound <= 1.01 + 1e-9
    coeff = np.linalg.solve(points[basis.indices].T, points.T).T
    assert np.abs(coeff).max() <= 1.01 + 1e-9


def test_small_fixture_near_exhaustive_determinant(rng):
    for trial in range(5):
        points = rng.normal(size=(8, 3))
        basis = auerbach_basis(points, 0.01)
        achieved = abs(np.linalg.det(points[basis.indices]))
        best = exhaustive_best_det(points, 3)
        assert achieved >= best / (1.01) ** 8 - 1e-12


def test_rank_deficient_points_raise():
    points = np.ones((5, 3))
    with pytest.raises(RankDeficiencyError):
        auerbach_basis(points, 0.01)


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 12), st.booleans())
def test_complete_pivot_init_matches_column_loop(seed, dim, extra, signs):
    g = np.random.default_rng(seed)
    points = g.normal(size=(dim + extra, dim))
    if signs:  # +-1 entries: every magnitude ties at the first pivot
        points = np.sign(points)
    try:
        want = loop_complete_pivot_init(points)
    except ValueError:
        with pytest.raises(RankDeficiencyError):
            _complete_pivot_init(points)
        return
    selected, coeff = _complete_pivot_init(points)
    assert selected == want
    assert coeff.shape == (dim + extra, dim)
    assert np.allclose(coeff @ points[selected], points, rtol=0.0, atol=1e-9)


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 24))
def test_auerbach_basis_matches_per_swap_resolve(seed, dim, extra):
    points = np.random.default_rng(seed).normal(size=(dim + extra, dim))
    basis = auerbach_basis(points, 0.01)
    indices, swaps, bound = resolve_auerbach_basis(points, 0.01)
    assert basis.indices.tolist() == indices
    assert basis.swaps == swaps
    assert basis.coefficient_bound == bound


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_auerbach_basis_matches_per_swap_resolve_on_trace_points(monkeypatch, seed):
    # the column points of the lemmaB trace of sign 384/64
    points, delta = trace_call(monkeypatch, "auerbach_basis", 384, 64, seed, "lemmaB")
    solve, solves = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
    basis = auerbach_basis(points, delta)
    monkeypatch.undo()
    indices, swaps, bound = resolve_auerbach_basis(points, delta)
    assert (basis.indices.tolist(), basis.swaps, basis.coefficient_bound) == (indices, swaps, bound)
    # one solve for the start and one for the bound, however many swaps
    assert swaps > 1 and len(solves) == 2


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 24))
def test_auerbach_basis_guarantees_on_sign_points(seed, dim, extra):
    # exact ties among +-1 coefficients may pick a different (equally valid)
    # basis than the re-solving ascent, so only the guarantees are asserted
    points = np.sign(np.random.default_rng(seed).normal(size=(dim + extra, dim)))
    if np.linalg.matrix_rank(points) < dim:
        with pytest.raises(RankDeficiencyError):
            auerbach_basis(points, 0.01)
        return
    basis = auerbach_basis(points, 0.01)
    coeff = np.linalg.solve(points[basis.indices].T, points.T)
    assert basis.coefficient_bound == float(np.max(np.abs(coeff)))
    assert basis.coefficient_bound <= 1.01 + 1e-9
