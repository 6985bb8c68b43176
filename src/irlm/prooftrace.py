"""Replay of the density lower-bound argument on a concrete matrix.

The pipeline measures every quantity the argument manipulates (densities,
contact frames, expansion coefficients, the large-coordinate matrix B, net
counts) and records one auditable step per inequality.  Failed inequalities
are findings, never exceptions; only structural breakdowns abort.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import geometry
from .errors import (
    DegenerateSpanError,
    NonconvergenceError,
    ParameterError,
    RankDeficiencyError,
    TraceAborted,
)
from .matrices import (
    DensityProfile,
    FactoredMatrix,
    _max_abs_product,
    approx_error,
    distribution_function,
    from_factors,
    min_pairwise_linf,
    submatrix,
)


# ---------------------------------------------------------------------------
# elementary steps


def halve_by_density(
    a: FactoredMatrix, gamma: float, profile: DensityProfile | None = None
) -> tuple[np.ndarray, float, FactoredMatrix]:
    """Drop the columns (and same-indexed rows) whose large-entry density
    exceeds twice the global density; at least half the indices survive.
    `profile` is the density profile of `a` at gamma, computed when not
    given.  Returns the kept indices, the maximal column density of the kept
    submatrix at the same threshold, and that submatrix."""
    if profile is None:
        profile = distribution_function(a, gamma)
    kept = np.flatnonzero(profile.column_densities <= 2.0 * profile.global_density)
    sub = submatrix(a, kept)
    kappa = float(distribution_function(sub, gamma).column_densities.max())
    return kept, kappa, sub


def epsilon_choice(n_dim: int, rank: float, c_net: float) -> float:
    """min(1/2, ln(N/2) / (2 C n))."""
    if n_dim < 3:
        raise ParameterError(f"N must be >= 3, got {n_dim}")
    if rank < 1:
        raise ParameterError(f"n must be >= 1, got {rank}")
    if c_net <= 0:
        raise ParameterError(f"C must be positive, got {c_net}")
    return min(0.5, math.log(n_dim / 2.0) / (2.0 * c_net * rank))


def large_small_split(x: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Split into the strictly-large part and the remainder; supports are
    disjoint and the parts sum back to the input exactly."""
    x = np.asarray(x, dtype=np.float64)
    large = np.abs(x) > gamma
    w = np.where(large, x, 0.0)
    return w, x - w


def net_inequality(
    n_effective: int, rank: float, m_support: int, eps: float, c_net: float
) -> tuple[float, float, bool]:
    """Log-space evaluation of (e n / m)^m exp(C (m + n eps)) >= N_effective,
    with (e n / m)^m read as 1 when m = 0.  Returns (log lhs, log rhs, holds)."""
    if m_support < 0:
        raise ParameterError(f"m must be >= 0, got {m_support}")
    if not 0 < eps < 1:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    if n_effective < 1:
        raise ParameterError(f"N_effective must be >= 1, got {n_effective}")
    log_lhs = c_net * (m_support + rank * eps)
    if m_support > 0:
        log_lhs += m_support * math.log(math.e * rank / m_support)
    log_rhs = math.log(n_effective)
    return log_lhs, log_rhs, log_lhs >= log_rhs


def final_density_inequality(
    kappa: float, n_dim: int, rank: float, c_one: float
) -> tuple[float, float, bool]:
    """kappa ln(2 C1 / kappa) >= ln(N/2) / (4 n); kappa = 0 is the limit
    value 0 on the left."""
    if kappa < 0 or kappa > 1:
        raise ParameterError(f"kappa must be in [0, 1], got {kappa}")
    if c_one <= 0:
        raise ParameterError(f"C1 must be positive, got {c_one}")
    rhs = math.log(n_dim / 2.0) / (4.0 * rank)
    if kappa == 0.0:
        return 0.0, rhs, rhs <= 0.0
    lhs = kappa * math.log(2.0 * c_one / kappa)
    return lhs, rhs, lhs >= rhs


# ---------------------------------------------------------------------------
# configuration and report types


# Fixed parameters of every replay, recorded in the report's config.
RANK_TOL = 1e-10  # relative singular-value cutoff of the rank factorization
AUERBACH_DELTA = 0.01  # maxvol swap threshold of the lemmaB basis
L1_SAMPLES = 64  # sign patterns behind the sampled L1 lower constant
SELECTION_SAMPLES = 4  # sign patterns per contact-selection round
SAMPLE_SEED = 0


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of one proof replay.  eps follows the paper's choice unless
    manual_eps is given."""

    gamma: float
    c_net: float = 1.0
    c_one: float = 1.0
    mvee_tol: float = 1e-6
    manual_eps: float | None = None
    basis_mode: str = "lemmaA"

    def __post_init__(self):
        if not 0 <= self.gamma < math.inf:
            raise ParameterError(f"gamma must be >= 0 and finite, got {self.gamma}")
        if not (0 < self.c_net < math.inf and 0 < self.c_one < math.inf):
            raise ParameterError("C and C1 must be positive and finite")
        if self.manual_eps is not None and not 0 < self.manual_eps < 1:
            raise ParameterError(f"manual_eps must be in (0, 1), got {self.manual_eps}")
        if self.basis_mode not in ("lemmaA", "lemmaB"):
            raise ParameterError(f"unknown basis mode {self.basis_mode!r}")
        if not 0 < self.mvee_tol < 0.1:
            raise ParameterError("mvee_tol must be in (0, 0.1)")

    def epsilon(self, n_dim: int, rank: float) -> float:
        if self.manual_eps is not None:
            return float(self.manual_eps)
        return epsilon_choice(n_dim, rank, self.c_net)


@dataclass(frozen=True)
class TraceCheck:
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class TraceStep:
    name: str
    inputs: dict[str, Any] = field(default_factory=dict)
    outputs: dict[str, Any] = field(default_factory=dict)
    check: TraceCheck | None = None
    notes: str = ""


@dataclass(frozen=True)
class TraceReport:
    premise_ok: bool
    basis_mode: str
    config: dict[str, Any]
    steps: tuple[TraceStep, ...]
    measured_constants: dict[str, Any]

    def step(self, name: str) -> TraceStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)

    def holds(self, name: str) -> bool:
        check = self.step(name).check
        return bool(check.holds) if check is not None else False

    def to_json(self) -> str:
        return report_to_json(self)


# ---------------------------------------------------------------------------
# canonical JSON serialization (golden-file stable)


def _format_float(x: float) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        raise ValueError("report contains a non-finite float")
    if x == 0:
        return "0"
    out = format(float(x), ".17g")
    return out


def _emit(value: Any, indent: int, pieces: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, val) in enumerate(value.items()):
            pieces.append(f'{pad}  {json.dumps(str(key))}: ')
            _emit(val, indent + 1, pieces)
            pieces.append(",\n" if i < len(value) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, val in enumerate(seq):
            pieces.append(pad + "  ")
            _emit(val, indent + 1, pieces)
            pieces.append(",\n" if i < len(seq) - 1 else "\n")
        pieces.append(pad + "]")
    elif isinstance(value, bool):
        pieces.append("true" if value else "false")
    elif value is None:
        pieces.append("null")
    elif isinstance(value, (int, np.integer)):
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        pieces.append(_format_float(float(value)))
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant
    digits, negative zero normalized to 0, trailing newline."""
    pieces: list[str] = []
    _emit(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def report_to_json(report: TraceReport) -> str:
    doc = {
        "premise_ok": report.premise_ok,
        "basis_mode": report.basis_mode,
        "config": report.config,
        "steps": [
            {
                "name": s.name,
                "inputs": s.inputs,
                "outputs": s.outputs,
                "check": (
                    {"lhs": s.check.lhs, "rhs": s.check.rhs, "holds": s.check.holds}
                    if s.check is not None
                    else None
                ),
                "notes": s.notes,
            }
            for s in report.steps
        ],
        "measured_constants": report.measured_constants,
    }
    return dumps_canonical(doc)


# ---------------------------------------------------------------------------
# the trace itself


def _config_dict(a: FactoredMatrix, cfg: TraceConfig) -> dict[str, Any]:
    return {
        "N": a.n_dim,
        "n_budget": a.rank_budget,
        "kind": a.provenance.kind,
        "seed": a.provenance.seed,
        "gamma": cfg.gamma,
        "C": cfg.c_net,
        "C1": cfg.c_one,
        "mvee_tol": cfg.mvee_tol,
        "eps_rule": "paper" if cfg.manual_eps is None else "manual",
        "manual_eps": cfg.manual_eps,
        "basis_mode": cfg.basis_mode,
        "rank_tol": RANK_TOL,
        "auerbach_delta": AUERBACH_DELTA,
        "l1_samples": L1_SAMPLES,
        "selection_samples": SELECTION_SAMPLES,
        "sample_seed": SAMPLE_SEED,
    }


def trace(a: FactoredMatrix, cfg: TraceConfig) -> TraceReport:
    """Run the full replay; see the module docstring for step semantics.

    Every inequality step records lhs, rhs, and a holds flag; a failed
    inequality never raises.  Structural failures (degenerate span, solver
    nonconvergence, rank deficiency) raise TraceAborted naming the step.
    """
    if a.n_dim < 3:
        raise ParameterError("trace needs N >= 3")
    steps: list[TraceStep] = []
    gamma = cfg.gamma

    # premise: elementwise distance to the identity at most 1/3; the same
    # pass gives the density profile the halving step uses
    profile = distribution_function(a, gamma)
    err = profile.error
    premise_ok = err <= 1.0 / 3.0
    steps.append(
        TraceStep(
            name="premise",
            inputs={"N": a.n_dim, "n_budget": a.rank_budget},
            outputs={"approx_error": err},
            check=TraceCheck(err, 1.0 / 3.0, premise_ok),
            notes="" if premise_ok else "premise violated; remaining steps are still measured",
        )
    )

    # density halving
    kept, kappa, sub = halve_by_density(a, gamma, profile)
    steps.append(
        TraceStep(
            name="density_halving",
            inputs={"gamma": gamma, "F_star": profile.global_density},
            outputs={"kept": int(kept.size), "kappa": kappa},
            check=TraceCheck(float(kept.size), a.n_dim / 2.0, kept.size >= a.n_dim / 2.0),
        )
    )
    n_kept = sub.n_dim

    # rank factorization of the kept submatrix
    try:
        space = geometry.rank_factorize(sub, RANK_TOL)
    except (np.linalg.LinAlgError, ParameterError) as exc:
        raise TraceAborted("rank_factorization", exc)
    dim = space.dim
    if dim < 1:
        raise TraceAborted("rank_factorization", DegenerateSpanError("zero numerical rank"))
    steps.append(
        TraceStep(
            name="rank_factorization",
            inputs={"tol": RANK_TOL},
            outputs={"dim": dim},
            check=TraceCheck(float(dim), float(a.rank_budget), dim <= a.rank_budget),
        )
    )
    eps = cfg.epsilon(a.n_dim, dim)
    points = space.coords.T  # one row per kept column, in span coordinates

    if cfg.basis_mode == "lemmaA":
        contacts_cols, frame, max_lev = _lemma_a_frame(points, dim, eps, cfg, steps)
    else:
        contacts_cols, frame = _lemma_b_frame(points, dim, steps)

    k_sel = frame.contacts.shape[0]

    # expansion of every kept column over the frame
    t_coef, s_coef = geometry.expand_coefficients(space.coords, frame)
    recon = frame.contacts.T @ t_coef + frame.complement.T @ s_coef
    col_norms = np.linalg.norm(space.coords, axis=0)
    col_norms[col_norms == 0] = 1.0
    recon_err = float(np.max(np.linalg.norm(recon - space.coords, axis=0) / col_norms))
    steps.append(
        TraceStep(
            name="expansion",
            inputs={"k": k_sel, "complement": int(frame.complement.shape[0])},
            outputs={"max_relative_residual": recon_err},
            check=TraceCheck(recon_err, 1e-8, recon_err <= 1e-8),
        )
    )

    l1_norms = np.abs(t_coef).sum(axis=0)
    max_l1 = float(l1_norms.max()) if l1_norms.size else 0.0

    if cfg.basis_mode == "lemmaA":
        # norm chain: every column sits inside the ellipsoid; sqrt is
        # monotone and correctly rounded, so it commutes with the maximum
        # leverage the mvee step measured
        max_d = math.sqrt(max(max_lev, 0.0))
        steps.append(
            TraceStep(
                name="norm_chain",
                inputs={},
                outputs={"max_column_d_norm": max_d},
                check=TraceCheck(max_d, 1.0 + cfg.mvee_tol, max_d <= 1.0 + cfg.mvee_tol),
            )
        )
        # L1 lower constant of the selected contacts; the sampled value is never
        # below the exact one, so a column within the cap meets the lemma's bound
        l1 = geometry.l1_lower_constant(
            frame.contacts,
            frame.ellipsoid,
            method="sampled",
            n_samples=L1_SAMPLES,
            seed=SAMPLE_SEED,
        )
        mu = l1.value
        c0_hat = mu * math.sqrt(dim) / eps
        l1_cap = (1.0 + cfg.mvee_tol) / mu if mu > 0 else math.inf
        steps.append(
            TraceStep(
                name="l1_bound",
                inputs={"mu": mu, "c0_hat": c0_hat, "facets": l1.facets_examined},
                outputs={"max_t_l1": max_l1, "mu_inverse": 1.0 / mu if mu > 0 else math.inf},
                check=TraceCheck(max_l1, l1_cap + 1e-9, max_l1 <= l1_cap + 1e-9),
                notes="sampled facet minimum over the all-plus and seeded patterns",
            )
        )
        l1_budget = 1.0 / mu if mu > 0 else math.inf
        gate_lhs = gamma / eps
        gate_rhs = c0_hat / (15.0 * math.sqrt(dim)) if math.isfinite(c0_hat) else 0.0
        gate_note = "equivalent to gamma <= mu / 15 with the measured constant"
    else:
        mu = None
        c0_hat = None
        coeff_bound = float(np.abs(t_coef).max()) if t_coef.size else 0.0
        l1_cap = dim * (1.0 + AUERBACH_DELTA)
        steps.append(
            TraceStep(
                name="l1_bound",
                inputs={"coefficient_bound": coeff_bound},
                outputs={"max_t_l1": max_l1, "l1_cap": l1_cap},
                check=TraceCheck(max_l1, l1_cap + 1e-9, max_l1 <= l1_cap + 1e-9),
                notes="reconstructed branch: coefficientwise bound times dimension",
            )
        )
        l1_budget = l1_cap
        gate_lhs = l1_budget * gamma
        gate_rhs = 1.0 / 15.0
        gate_note = "reconstructed branch: direct l1-budget gate"

    gate_holds = gate_lhs <= gate_rhs
    steps.append(
        TraceStep(
            name="gate",
            inputs={"gamma": gamma, "eps": eps},
            outputs={},
            check=TraceCheck(gate_lhs, gate_rhs, gate_holds),
            notes=gate_note,
        )
    )

    # rows with low density over the selected contact columns
    x_rows = sub.dense(contacts_cols)  # n_kept x k
    row_densities = (np.abs(x_rows) > gamma).sum(axis=1) / max(k_sel, 1)
    row_set = np.flatnonzero(row_densities <= 2.0 * kappa)
    steps.append(
        TraceStep(
            name="row_selection",
            inputs={"kappa": kappa},
            outputs={"I": int(row_set.size)},
            check=TraceCheck(float(row_set.size), n_kept / 2.0, row_set.size >= n_kept / 2.0),
        )
    )
    if row_set.size == 0:
        raise TraceAborted("row_selection", RankDeficiencyError("no rows survive selection"))

    # large/small split of the selected rows
    w_rows, z_rows = large_small_split(x_rows[row_set], gamma)
    # the |I| x n_kept inner products with the small parts, in row tiles
    max_drop = _max_abs_product(z_rows, t_coef)
    drop_cap = min(max_l1 * gamma, 1.0 / 15.0) if gate_holds else max_l1 * gamma
    steps.append(
        TraceStep(
            name="large_small_split",
            inputs={"gamma": gamma},
            outputs={"max_small_inner": max_drop, "l1_gamma": max_l1 * gamma},
            check=TraceCheck(max_drop, drop_cap + 1e-12, max_drop <= drop_cap + 1e-12),
            notes="bounded by max l1 norm times gamma; by 1/15 when the gate holds",
        )
    )

    # matrix B on the selected rows, against the identity: B = P @ Q with
    # P = [w_rows | y_rows] and Q = [t; s] on the same rows, kept factored
    # and read in row tiles
    y_rows = space.basis[row_set] @ frame.complement.T
    b_sub = from_factors(
        np.hstack((w_rows, y_rows)), np.vstack((t_coef[:, row_set], s_coef[:, row_set]))
    )
    b_dev = approx_error(b_sub)
    steps.append(
        TraceStep(
            name="matrix_B",
            inputs={"rows": int(row_set.size)},
            outputs={"max_identity_deviation": b_dev},
            check=TraceCheck(b_dev, 2.0 / 5.0, b_dev <= 2.0 / 5.0),
        )
    )

    # pairwise sup-norm separation of the rows of B
    min_sep, _ = min_pairwise_linf(b_sub)
    steps.append(
        TraceStep(
            name="separation",
            inputs={},
            outputs={"min_pairwise_distance": min_sep},
            check=TraceCheck(min_sep, 1.0 / 5.0, min_sep >= 1.0 / 5.0),
        )
    )

    # support bookkeeping: m = floor(2 kappa k) caps each row's large support
    m_support = int(math.floor(2.0 * kappa * k_sel))
    max_supp = int((np.abs(w_rows) > 0).sum(axis=1).max()) if w_rows.size else 0
    steps.append(
        TraceStep(
            name="support_bookkeeping",
            inputs={"kappa": kappa, "k": k_sel},
            outputs={"m": m_support, "max_row_support": max_supp},
            check=TraceCheck(float(max_supp), float(m_support), max_supp <= m_support),
        )
    )

    # net counting inequality over the surviving rows
    net_lhs, net_rhs, net_holds = net_inequality(
        int(row_set.size), float(dim), m_support, eps, cfg.c_net
    )
    steps.append(
        TraceStep(
            name="net_inequality",
            inputs={"m": m_support, "eps": eps, "C": cfg.c_net, "N_effective": int(row_set.size)},
            outputs={},
            check=TraceCheck(net_lhs, net_rhs, net_holds),
            notes="lhs and rhs recorded in log space",
        )
    )

    # final density inequality
    fin_lhs, fin_rhs, fin_holds = final_density_inequality(
        kappa, a.n_dim, float(dim), cfg.c_one
    )
    steps.append(
        TraceStep(
            name="final_density",
            inputs={"kappa": kappa, "C1": cfg.c_one},
            outputs={},
            check=TraceCheck(fin_lhs, fin_rhs, fin_holds),
        )
    )

    measured = {
        "c0_hat": c0_hat,
        "kappa": kappa,
        "m": m_support,
        "k": k_sel,
        "eps": eps,
        "net_lhs": net_lhs,
        "net_rhs": net_rhs,
        "final_lhs": fin_lhs,
        "final_rhs": fin_rhs,
    }
    return TraceReport(
        premise_ok=premise_ok,
        basis_mode=cfg.basis_mode,
        config=_config_dict(a, cfg),
        steps=tuple(steps),
        measured_constants=measured,
    )


def _lemma_a_frame(points, dim, eps, cfg, steps):
    """Ellipsoid contacts, greedy subset, and completed frame; appends the
    mvee / contact_selection / frame_completion steps.  Returns the selected
    column indices, the frame, and the largest leverage of the points."""
    try:
        ell, contacts = geometry.mvee(points, tol=cfg.mvee_tol)
    except (DegenerateSpanError, NonconvergenceError) as exc:
        raise TraceAborted("mvee", exc)
    max_lev = float(geometry._quadratic_forms(points, ell.shape).max())
    steps.append(
        TraceStep(
            name="mvee",
            inputs={"tol": cfg.mvee_tol},
            outputs={
                "log_det": ell.log_det,
                "contacts": len(contacts),
                "certificate_residual": contacts.residual,
            },
            check=TraceCheck(max_lev, 1.0 + cfg.mvee_tol, max_lev <= 1.0 + cfg.mvee_tol),
        )
    )
    target_k = min(math.ceil(dim * (1.0 - eps)), dim)
    local_sel = geometry.select_contact_subset(
        points[contacts.indices], ell, target_k, SELECTION_SAMPLES, SAMPLE_SEED
    )
    selected_cols = contacts.indices[local_sel]
    k_sel = int(local_sel.size)
    steps.append(
        TraceStep(
            name="contact_selection",
            inputs={"target_k": target_k, "eps": eps},
            outputs={"k": k_sel},
            check=TraceCheck(float(k_sel), float(target_k), k_sel >= target_k),
            notes="" if k_sel >= target_k else "independent contacts fell short of the target",
        )
    )
    subset = points[selected_cols]
    try:
        frame = geometry.complete_frame(subset, ell)
    except RankDeficiencyError as exc:
        raise TraceAborted("frame_completion", exc)
    ortho = (
        float(np.abs(frame.contacts @ ell.shape @ frame.complement.T).max())
        if frame.complement.size and frame.contacts.size
        else 0.0
    )
    steps.append(
        TraceStep(
            name="frame_completion",
            inputs={},
            outputs={"complement": int(frame.complement.shape[0])},
            check=TraceCheck(ortho, 1e-10, ortho <= 1e-10),
        )
    )
    return selected_cols, frame, max_lev


def _lemma_b_frame(points, dim, steps):
    """Maxvol basis as the frame with empty complement (reconstructed branch)."""
    try:
        basis = geometry.auerbach_basis(points, AUERBACH_DELTA)
    except (RankDeficiencyError, NonconvergenceError) as exc:
        raise TraceAborted("auerbach_basis", exc)
    steps.append(
        TraceStep(
            name="auerbach_basis",
            inputs={"delta": AUERBACH_DELTA},
            outputs={"k": int(basis.indices.size), "swaps": basis.swaps},
            check=TraceCheck(
                basis.coefficient_bound,
                1.0 + AUERBACH_DELTA + 1e-9,
                basis.coefficient_bound <= 1.0 + AUERBACH_DELTA + 1e-9,
            ),
            notes="reconstructed branch: volume-maximizing basis",
        )
    )
    # identity shape: the coefficient bound replaces ellipsoid geometry here
    ell = geometry.Ellipsoid(dim, np.eye(dim), 0.0)
    frame = geometry.Frame(
        contacts=points[basis.indices], complement=np.zeros((0, dim)), ellipsoid=ell
    )
    return basis.indices, frame

