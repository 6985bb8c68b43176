"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 8 and 10 check claims that the paper makes under a condition. Each
asserts the claim where its condition holds, and asserts the measured fact
where it does not, so a failing line means a regression:

- criterion 8 compares the proof trace of sign 256/32 seed 1 to its golden
  report, with keys, bools, ints and strings exact and floats within
  1e-12 * max(1, |golden|), because linear-algebra results move in the last
  ulps with the BLAS kernel. That fixture breaks the premise error <= 1/3,
  so `matrix_B` must not hold there; on sign 256/256 seed 1, where the
  premise holds, all five named steps must hold;
- criterion 10 asserts that `make_block_sparse` refuses the infeasible
  sizing (4096, 96), and that at (4096, 2048, alpha=32), where every block
  gets enough rank, it reaches error <= 1/3 with O(ln N / n) fill.

The inline comments of the two criteria carry the figures. The golden
comparison is itself checked against altered reports right after it.
"""

import copy
import json
import math
import time
from pathlib import Path

import numpy as np

from irlm import (
    approx_error,
    distribution_function,
    make_block_sparse,
    make_identity,
    make_random_sign,
)
from irlm.bounds import (
    GammaGraph,
    clique_identity_check,
    gamma_graph,
    gamma_threshold,
    max_clique,
    theorem_density_bound,
    turan_edge_bound,
    volume_argument_verify,
    volume_rank_lower_bound,
)
from irlm.cli import main
from irlm.errors import ConstructionError
from irlm.geometry import l1_lower_constant, mvee
from irlm.prooftrace import TraceConfig, trace
from irlm.storage import read_matrix, write_matrix

from oracles import (
    binomial_two_sided_tail,
    brute_max_clique,
    exhaustive_best_det,
    grid_l1_min,
    mvee_multiplicative,
)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "trace_N256_n32_seed1.json"
MANIFEST = HERE / "fixtures" / "manifest.json"


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{name}]: {status}  {detail}")


def manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def test_criterion_01_probabilistic_bound():
    start = time.perf_counter()
    errors = [approx_error(make_random_sign(256, 64, seed)) for seed in range(1, 11)]
    elapsed = time.perf_counter() - start
    within_bound = sum(e <= 0.5887 for e in errors)
    all_loose = all(e <= 0.75 for e in errors)
    recorded = manifest()["random_sign_256_64"]["errors"]
    reproducible = all(errors[s - 1] == recorded[str(s)] for s in range(1, 11))
    ok = within_bound >= 9 and all_loose and elapsed < 5.0 and reproducible
    report(
        1,
        "probabilistic bound",
        ok,
        f"{within_bound}/10 seeds <= 0.5887, max={max(errors):.4f}, {elapsed:.2f}s",
    )
    assert within_bound >= 9
    assert all_loose
    assert reproducible
    assert elapsed < 5.0


def test_criterion_02_sharpness_at_inverse_sqrt_threshold():
    start = time.perf_counter()
    gamma = 0.5 / math.sqrt(64)
    oracle = binomial_two_sided_tail(64, 35)
    densities = [
        distribution_function(make_random_sign(1024, 64, seed), gamma).global_density
        for seed in range(1, 6)
    ]
    elapsed = time.perf_counter() - start
    deviations = [abs(d - oracle) for d in densities]
    ok = all(dev <= 0.02 for dev in deviations) and all(d >= 0.1 for d in densities)
    ok = ok and elapsed < 10.0
    report(
        2,
        "sharpness at c/sqrt(n)",
        ok,
        f"oracle={oracle:.4f}, max dev={max(deviations):.4f}, {elapsed:.2f}s",
    )
    assert all(dev <= 0.02 for dev in deviations)
    assert all(d >= 0.1 for d in densities)
    assert elapsed < 10.0


def test_criterion_03_theorem_bound_consistency():
    start = time.perf_counter()
    recorded = manifest()["theorem_sweep"]
    checked = 0
    worst_ratio = math.inf
    for n_dim in (256, 1024):
        base = math.ceil(math.log(n_dim))
        for rank in (2 * base, 8 * base):
            gamma = gamma_threshold(n_dim, rank, 0.25)
            bound = theorem_density_bound(n_dim, rank, 0.05)
            for seed in (1, 2, 3):
                mat = make_random_sign(n_dim, rank, seed)
                density = distribution_function(mat, gamma).global_density
                key = f"{n_dim}_{rank}_{seed}"
                assert recorded[key]["F_star"] == density  # constants recorded
                assert density >= bound
                worst_ratio = min(worst_ratio, density / bound)
                checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 12 and elapsed < 60.0
    report(
        3,
        "theorem bound shape",
        ok,
        f"{checked} fixtures, min F*/bound={worst_ratio:.1f}, {elapsed:.2f}s",
    )
    assert checked == 12
    assert elapsed < 60.0


def test_criterion_04_volume_argument():
    ok_exact = volume_rank_lower_bound(216) == 3 and volume_rank_lower_bound(217) == 4
    fixtures = [make_identity(16), make_identity(100)]
    fixtures += [make_random_sign(256, 256, seed) for seed in (1, 2, 3)]
    all_ok = True
    for mat in fixtures:
        err = approx_error(mat)
        assert err <= 1.0 / 3.0  # fixture set is chosen inside the premise
        verdict = volume_argument_verify(mat)
        needed = volume_rank_lower_bound(mat.n_dim)
        all_ok &= verdict.premise_ok and verdict.separation_ok and verdict.diameter_ok
        all_ok &= mat.rank_budget >= needed
    ok = ok_exact and all_ok
    report(4, "volume argument", ok, f"{len(fixtures)} fixtures with error <= 1/3")
    assert ok_exact
    assert all_ok


def test_criterion_05_mvee_correctness():
    start = time.perf_counter()
    ell, _ = mvee(np.eye(6), tol=1e-9)
    unit_ok = np.abs(ell.shape - np.eye(6)).max() <= 1e-7
    gen = np.random.default_rng(5151)
    tol = 1e-7
    worst_logdet = 0.0
    fixtures_ok = True
    for _ in range(20):
        points = gen.normal(size=(40, 5))
        ell, contacts = mvee(points, tol=tol)
        leverages = np.einsum("ij,jk,ik->i", points, ell.shape, points)
        fixtures_ok &= bool(leverages.max() <= 1.0 + tol)
        fixtures_ok &= contacts.residual <= 10 * tol
        _, oracle_logdet = mvee_multiplicative(points, iters=300_000, tol=1e-11)
        worst_logdet = max(worst_logdet, abs(ell.log_det - oracle_logdet))
    fixtures_ok &= worst_logdet <= 1e-5
    elapsed = time.perf_counter() - start
    ok = unit_ok and fixtures_ok and elapsed < 10.0
    report(
        5,
        "ellipsoid solver",
        ok,
        f"max logdet gap={worst_logdet:.2e}, {elapsed:.2f}s",
    )
    assert unit_ok
    assert fixtures_ok
    assert elapsed < 10.0


def test_criterion_06_l1_lower_constant():
    gen = np.random.default_rng(606)
    worst = 0.0
    from irlm.geometry import Ellipsoid

    for trial in range(10):
        k = 2 + trial % 3  # k in {2, 3, 4}
        dim = 4
        vectors = gen.normal(size=(k, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        ball = Ellipsoid(dim, np.eye(dim), 0.0)
        exact = l1_lower_constant(vectors, ball, method="exact").value
        oracle = grid_l1_min(vectors, np.eye(dim), resolution=48)
        worst = max(worst, abs(exact - oracle))
    ortho_ok = True
    for k in (2, 3, 5, 8):
        ball = Ellipsoid(k, np.eye(k), 0.0)
        value = l1_lower_constant(np.eye(k), ball, method="exact").value
        ortho_ok &= abs(value - k**-0.5) <= 1e-9
    ok = worst <= 1e-6 and ortho_ok
    report(6, "l1 lower constant", ok, f"max oracle gap={worst:.2e}")
    assert worst <= 1e-6
    assert ortho_ok


def test_criterion_07_maxvol_basis():
    from irlm.geometry import auerbach_basis

    gen = np.random.default_rng(707)
    delta = 0.01
    bound_ok = True
    for trial in range(20):
        dim = int(gen.integers(2, 7))
        count = int(gen.integers(dim + 1, 41))
        points = gen.normal(size=(count, dim))
        basis = auerbach_basis(points, delta)
        bound_ok &= basis.coefficient_bound <= 1.0 + delta + 1e-9
    det_ok = True
    for trial in range(5):
        points = gen.normal(size=(8, 3))
        basis = auerbach_basis(points, delta)
        achieved = abs(np.linalg.det(points[basis.indices]))
        det_ok &= achieved >= exhaustive_best_det(points, 3) / (1.0 + delta) ** 8 - 1e-12
    ok = bound_ok and det_ok
    report(7, "maxvol basis", ok, "coefficient and determinant guarantees")
    assert bound_ok
    assert det_ok


# Floats in a trace report may differ from the golden file by this much,
# relative to max(1, |golden|). The trace runs QR, SVD, eigh, solve and gemm,
# and the BLAS kernel picks their summation order. Under six OpenBLAS kernels
# (OPENBLAS_CORETYPE Haswell, SandyBridge, Prescott, SkylakeX, Zen, Atom) the
# golden trace's floats move by at most 7.1e-14 absolute, and no key, bool,
# int or string changes; each kernel gives the same bytes on every rerun and
# at every thread count. The bound is 14x that drift.
GOLDEN_FLOAT_RTOL = 1e-12


def golden_mismatches(got, want, path: str = "$") -> list[str]:
    """Paths at which parsed report `got` differs from parsed golden `want`.

    Dicts must have the same keys in the same order and lists the same
    length; bools, ints, strings and nulls must be equal and of the same
    type. A number that is a float on either side (canonical JSON writes an
    integral float such as 0.0 as `0`) must lie within
    GOLDEN_FLOAT_RTOL * max(1, |want|) of the golden value.
    """
    if isinstance(want, dict) and isinstance(got, dict):
        if list(got) != list(want):
            return [f"{path}: keys {list(got)} != {list(want)}"]
        return [m for key in want for m in golden_mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [
            m for i, (g, w) in enumerate(zip(got, want)) for m in golden_mismatches(g, w, f"{path}[{i}]")
        ]
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (got, want))
    if numbers and (isinstance(got, float) or isinstance(want, float)):
        if abs(got - want) <= GOLDEN_FLOAT_RTOL * max(1.0, abs(want)):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def test_golden_comparison_rejects_real_changes():
    golden = json.loads(GOLDEN.read_text())
    assert golden_mismatches(golden, golden) == []

    drifted = copy.deepcopy(golden)
    drifted["measured_constants"]["c0_hat"] *= 1.0 + 1e-13
    assert golden_mismatches(drifted, golden) == []

    flipped = copy.deepcopy(golden)
    next(s for s in flipped["steps"] if s["name"] == "norm_chain")["check"]["holds"] = False
    assert golden_mismatches(flipped, golden) == ["$.steps[7].check.holds: False != True"]

    recounted = copy.deepcopy(golden)
    recounted["measured_constants"]["k"] += 1
    assert golden_mismatches(recounted, golden) == ["$.measured_constants.k: 31 != 30"]

    moved = copy.deepcopy(golden)
    moved["measured_constants"]["c0_hat"] *= 1.0 + 1e-9
    [mismatch] = golden_mismatches(moved, golden)
    assert mismatch.startswith("$.measured_constants.c0_hat: ")


def test_criterion_08_proof_trace_golden():
    # The golden fixture, sign 256/32 seed 1, breaks the premise: its error
    # is 22/32 = 0.6875 > 1/3 (an exact binomial computation puts the chance
    # of error <= 1/3 at rank 32 below exp(-1600)). The |B - I| <= 2/5 bound
    # of matrix_B is derived from that premise, so there B inherits
    # deviations near 0.69 and the step must report that it does not hold,
    # while the steps that do not lean on the premise hold. The report is
    # compared to the golden file as parsed JSON (see GOLDEN_FLOAT_RTOL);
    # byte identity of reruns on one machine is checked in test_prooftrace.
    named = ("norm_chain", "matrix_B", "separation", "net_inequality", "final_density")
    start = time.perf_counter()
    matrix = make_random_sign(256, 32, 1)
    rep = trace(matrix, TraceConfig(gamma=gamma_threshold(256, 32, 0.25)))
    mismatches = golden_mismatches(json.loads(rep.to_json()), json.loads(GOLDEN.read_text()))
    golden_steps = {name: rep.holds(name) for name in named}
    finding_ok = (
        not rep.premise_ok
        and rep.step("premise").check.lhs == 0.6875
        and golden_steps == {name: name != "matrix_B" for name in named}
    )

    # Where the premise holds the criterion's claim is asserted: sign
    # 256/256 seed 1 at its theorem threshold (the fixture of criterion 4)
    # has error <= 1/3, and every step of its trace holds, the five named
    # ones included; seeds 2 and 3 pass them too.
    matrix = make_random_sign(256, 256, 1)
    held = trace(matrix, TraceConfig(gamma=gamma_threshold(256, 256, 0.25)))
    premise_steps = {name: held.holds(name) for name in named}
    failed = [s.name for s in held.steps if s.check is not None and not s.check.holds]
    claim_ok = held.premise_ok and not failed
    elapsed = time.perf_counter() - start

    ok = not mismatches and finding_ok and claim_ok and elapsed < 30.0
    report(
        8,
        "proof trace golden",
        ok,
        f"golden mismatches={len(mismatches)}, steps at 256/32={golden_steps}, "
        f"steps at 256/256={premise_steps}, failed there={failed}, {elapsed:.2f}s",
    )
    assert mismatches == []
    assert not rep.premise_ok
    assert rep.step("premise").check.lhs == 0.6875
    assert golden_steps == {name: name != "matrix_B" for name in named}, golden_steps
    assert held.premise_ok
    assert all(premise_steps.values()), premise_steps
    assert failed == [], failed
    assert elapsed < 30.0


def test_criterion_09_turan_machinery():
    gen = np.random.default_rng(909)
    brute_ok = True
    for trial in range(50):
        size = int(gen.integers(2, 13))
        adj = gen.random((size, size)) < float(gen.uniform(0.15, 0.85))
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        graph = GammaGraph(size, 0.0, adj)
        brute_ok &= len(max_clique(graph)) == brute_max_clique(adj)
    k55 = np.zeros((10, 10), dtype=bool)
    k55[:5, 5:] = True
    k55[5:, :5] = True
    turan_graph = GammaGraph(10, 0.0, k55)
    fixture_ok = (
        len(max_clique(turan_graph)) == 2
        and turan_graph.edge_count == 25
        and turan_edge_bound(10, 3) == 25.0
    )
    clique_ok = True
    for seed in (1, 2, 3):
        mat = make_random_sign(32, 8, seed)
        for gamma in (0.3, 0.5):
            graph = gamma_graph(mat, gamma)
            clique = max_clique(graph)
            clique_ok &= clique_identity_check(mat, clique, gamma).ok
    ok = brute_ok and fixture_ok and clique_ok
    report(9, "turan machinery", ok, "50-graph brute-force suite and fixtures")
    assert brute_ok
    assert fixture_ok
    assert clique_ok


def test_criterion_10_sparse_construction():
    # make_block_sparse uses blocks of B = ceil(alpha N ln N / n) rows and
    # splits the rank evenly. At (4096, 96) with alpha = 1 that is 12 blocks
    # of 355 rows with 8 columns each, where a sign block needs
    # ceil(8 ln 356) = 47, so the construction refuses, as its docstring
    # says. The refusal is asserted.
    start = time.perf_counter()
    try:
        make_block_sparse(4096, 96, 1)
        refusal = ""
    except ConstructionError as exc:
        refusal = str(exc)

    # The claim, error <= 1/3 with O(ln N / n) fill, is asserted where the
    # construction promises it. A block of s rows and rank r misses 1/3 with
    # probability at most s^2 exp(-r/18) (Hoeffding plus a union bound over
    # its entries), so it needs r >= 36 ln s. With alpha = 12 blocks get rank
    # about 12 ln N = 100, and at N = 4096 their error stays at 0.48-0.49 for
    # every n in 1024..3072 even after all 16 retries. With alpha = 32 at
    # (4096, 2048) there are 8 blocks of 533 rows and rank 256: the bound is
    # 0.19 per attempt, so a shortfall after 16 retries is negligible. Seeds
    # 1-10 all succeed on the first attempt with error 0.297-0.328 and fill
    # 0.1202 against the cap 32 ln N / n = 0.1300.
    n_dim, rank, alpha = 4096, 2048, 32.0
    mat = make_block_sparse(n_dim, rank, 1, alpha=alpha)
    err = approx_error(mat)
    block_errors = mat.provenance.params["block_errors"]
    nnz = distribution_function(mat, 0.0).nnz_fraction
    cap = alpha * math.log(n_dim) / rank
    elapsed = time.perf_counter() - start

    refused = "infeasible sizing" in refusal
    blocks_ok = max(block_errors) <= 1.0 / 3.0
    fill_ok = nnz <= cap and nnz < 0.25
    ok = refused and err <= 1.0 / 3.0 and blocks_ok and fill_ok and elapsed < 30.0
    report(
        10,
        "sparse construction",
        ok,
        f"(4096, 96) refused={refused}; (4096, 2048, alpha=32): error={err:.4f}, "
        f"worst block={max(block_errors):.4f}, nnz={nnz:.4f} <= {cap:.4f}, {elapsed:.2f}s",
    )
    assert refused, refusal
    assert err <= 1.0 / 3.0
    assert blocks_ok, block_errors
    assert nnz <= cap
    assert nnz < 0.25
    assert elapsed < 30.0


def test_criterion_11_determinism(tmp_path):
    spec = {
        "N_values": [32, 64],
        "n_rule": {"fixed": [8]},
        "seeds": [1, 2],
        "gamma_rule": {"rule": "theorem", "c": 0.25},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--spec", str(spec_path), "--out", str(out1)]) == 0
    assert main(["sweep", "--spec", str(spec_path), "--out", str(out2)]) == 0
    sweep_ok = out1.read_bytes() == out2.read_bytes()

    round_trip_ok = True
    builders = {
        "identity": lambda: make_identity(12),
        "random_sign": lambda: make_random_sign(48, 12, 9),
        "block_sparse": lambda: make_block_sparse(40, 36, 3, alpha=1.2, beta=2.0),
    }
    for name, build in builders.items():
        p1 = tmp_path / f"{name}1.irlm"
        p2 = tmp_path / f"{name}2.irlm"
        write_matrix(build(), p1)
        write_matrix(read_matrix(p1), p2)
        round_trip_ok &= p1.read_bytes() == p2.read_bytes()

    ok = sweep_ok and round_trip_ok
    report(11, "determinism", ok, f"sweep={sweep_ok}, round_trip={round_trip_ok}")
    assert sweep_ok
    assert round_trip_ok
