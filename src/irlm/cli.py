"""Command-line interface.

Subcommands: generate, analyze, trace, sweep, bounds, turan, mvee, auerbach.
Exit codes: 0 ran to completion (failed mathematical inequalities included),
2 usage or parameter error, 3 I/O or file-format error, 4 numerical
nonconvergence or degeneracy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from . import bounds as bnd
from . import geometry, rng
from .errors import (
    ConstructionError,
    DegenerateSpanError,
    FormatError,
    IrlmError,
    ParameterError,
    SizeCapError,
)
from .matrices import (
    FactoredMatrix,
    distribution_function,
    make_block_sparse,
    make_identity,
    make_random_sign,
    numerical_rank,
)
from .prooftrace import AUERBACH_DELTA, RANK_TOL, TraceConfig, trace
from .storage import read_matrix, write_matrix

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _print_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# gamma rules


def parse_gamma_rule(text: str) -> tuple[str, float]:
    """Rules: 'theorem:<c>', 'fixed:<gamma>', 'scaled:<a>' (a * n^(-1/2))."""
    name, _, value = text.partition(":")
    if name not in ("theorem", "fixed", "scaled") or not value:
        raise ParameterError(
            f"gamma rule must be theorem:<c>, fixed:<gamma>, or scaled:<a>, got {text!r}"
        )
    try:
        num = float(value)
    except ValueError:
        raise ParameterError(f"gamma rule parameter {value!r} is not a number") from None
    return name, num


def resolve_gamma(rule: tuple[str, float], n_dim: int, rank: int) -> float:
    name, value = rule
    # each rule maps a finite parameter to a finite gamma
    if not math.isfinite(value):
        raise ParameterError(f"gamma rule {name}:{value} gives a non-finite gamma")
    if name == "theorem":
        return bnd.gamma_threshold(n_dim, rank, value)
    if name == "scaled":
        return value / rank**0.5
    return value


# ---------------------------------------------------------------------------
# subcommands


def _construct(kind: str, n_dim: int, rank: int | None, seed: int, **sizing) -> FactoredMatrix:
    """The library matrix of a kind name, as `generate` and `sweep` build it;
    `sizing` holds block_sparse's alpha and beta."""
    if kind == "identity":
        return make_identity(n_dim)
    if kind == "random_sign":
        return make_random_sign(n_dim, rank, seed)
    return make_block_sparse(n_dim, rank, seed, **sizing)


def _cmd_generate(args) -> int:
    # the file header stores the seed as a u64
    if not 0 <= args.seed <= rng.MASK64:
        raise ParameterError(f"--seed must be in 0..2^64-1, got {args.seed}")
    mat = _construct(args.kind, args.N, args.n, args.seed, alpha=args.alpha, beta=args.beta)
    write_matrix(mat, args.out)
    profile = distribution_function(mat, 0.0)
    _print_json(
        {
            "path": str(args.out),
            "N": mat.n_dim,
            "n": mat.rank_budget,
            "kind": args.kind,
            # the seed the file header holds: identity records 0
            "seed": mat.provenance.seed,
            "error": profile.error,
            "nnz_fraction": profile.nnz_fraction,
            "numerical_rank": numerical_rank(mat, RANK_TOL),
        }
    )
    return EXIT_OK


def _cmd_analyze(args) -> int:
    mat = read_matrix(args.matrix)
    rule = parse_gamma_rule(args.gamma_rule)
    gamma = resolve_gamma(rule, mat.n_dim, mat.rank_budget)
    profile = distribution_function(mat, gamma)
    summary = bnd.bound_summary(mat.n_dim, mat.rank_budget, gamma, args.bound_c)
    bound = summary.values["theorem_density_lower"]
    _print_json(
        {
            "N": mat.n_dim,
            "n": mat.rank_budget,
            "gamma": gamma,
            "F_star": profile.global_density,
            "nnz_fraction": profile.nnz_fraction,
            "error": profile.error,
            "bounds": dict(summary.values) | {"c": summary.c},
            "ratio_empirical_over_bound": profile.global_density / bound,
        }
    )
    return EXIT_OK


def _trace_config(args, mat: FactoredMatrix) -> TraceConfig:
    rule = parse_gamma_rule(args.gamma_rule)
    gamma = resolve_gamma(rule, mat.n_dim, mat.rank_budget)
    return TraceConfig(
        gamma=gamma,
        c_net=args.C,
        c_one=args.C1,
        mvee_tol=args.mvee_tol,
        manual_eps=args.eps,
        basis_mode=args.basis,
    )


def _cmd_trace(args) -> int:
    mat = read_matrix(args.matrix)
    cfg = _trace_config(args, mat)
    report = trace(mat, cfg)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    summary = bnd.bound_summary(args.N, args.n, None, args.c)
    _print_json(
        {
            "N": summary.n_dim,
            "n": summary.rank,
            "gamma": summary.gamma,
            "c": summary.c,
            "values": summary.values,
        }
    )
    return EXIT_OK


def _cmd_turan(args) -> int:
    mat = read_matrix(args.matrix)
    graph = bnd.gamma_graph(mat, args.gamma)
    if mat.n_dim <= args.cap:
        clique = bnd.max_clique(graph, vertex_cap=args.cap)
        method = "exact"
    else:
        # above the exact-solver cap only a greedy lower bound is offered
        clique = bnd.greedy_clique(graph)
        method = "greedy_lower_bound"
    check = bnd.clique_identity_check(mat, clique, args.gamma)
    clique_bound = len(clique) + 1
    _print_json(
        {
            "N": mat.n_dim,
            "gamma": args.gamma,
            "edges": graph.edge_count,
            "clique_method": method,
            "clique_size": len(clique),
            "clique_vertices": list(clique),
            "turan_bound": bnd.turan_edge_bound(mat.n_dim, clique_bound),
            "implied_density_lower": bnd.implied_density_lower(mat.n_dim, clique_bound),
            "clique_check_ok": check.ok,
        }
    )
    return EXIT_OK


def _column_space(args) -> tuple[FactoredMatrix, geometry.Subspace]:
    """The matrix file and its column span at --rank-tol, as `mvee` and
    `auerbach` read them; a matrix of zero numerical rank is refused."""
    mat = read_matrix(args.matrix)
    space = geometry.rank_factorize(mat, args.rank_tol)
    if space.dim == 0:
        raise DegenerateSpanError("matrix has zero numerical rank")
    return mat, space


def _cmd_mvee(args) -> int:
    mat, space = _column_space(args)
    ell, contacts = geometry.mvee(space.coords.T, tol=args.tol)
    _print_json(
        {
            "N": mat.n_dim,
            "dim": ell.dim,
            "log_det": ell.log_det,
            "shape": [[float(v) for v in row] for row in ell.shape],
            "contacts": [
                {"index": int(i), "sign": int(s), "weight": float(w)}
                for i, s, w in zip(contacts.indices, contacts.signs, contacts.weights)
            ],
            "certificate_residual": contacts.residual,
        }
    )
    return EXIT_OK


def _cmd_auerbach(args) -> int:
    mat, space = _column_space(args)
    basis = geometry.auerbach_basis(space.coords.T, delta=args.delta)
    _print_json(
        {
            "N": mat.n_dim,
            "dim": space.dim,
            "indices": [int(i) for i in basis.indices],
            "signs": [int(s) for s in basis.signs],
            "coefficient_bound": basis.coefficient_bound,
            "swaps": basis.swaps,
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


# the parameter key of each gamma rule in a sweep spec
_SPEC_GAMMA_KEYS = {"theorem": "c", "fixed": "value", "scaled": "a"}


def _spec_ints(values, where: str) -> tuple[int, ...]:
    try:
        if not isinstance(values, list):
            raise TypeError
        return tuple(int(v) for v in values)
    except (TypeError, ValueError):
        raise ParameterError(
            f"sweep spec field {where} must be a list of integers, got {values!r}"
        ) from None


def _spec_sizing(doc: dict, kind: str, name: str) -> float | None:
    """block_sparse's optional `name` ("alpha" or "beta") from a sweep spec."""
    if name not in doc:
        return None
    if kind != "block_sparse":
        raise ParameterError(f"sweep spec field {name} applies to kind block_sparse only")
    raw = doc[name]
    numeric = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    if not (numeric and 0 < raw < math.inf):
        raise ParameterError(
            f"sweep spec field {name} must be a positive finite number, got {raw!r}"
        )
    return float(raw)


@dataclass(frozen=True)
class SweepSpec:
    n_values: tuple[int, ...]
    n_rule: dict[str, tuple[int, ...]]
    seeds: tuple[int, ...]
    gamma_rule: tuple[str, float]  # as parse_gamma_rule returns it
    kind: str = "random_sign"
    out: str | None = None
    # block_sparse's alpha and beta; the constructor's defaults where None
    alpha: float | None = None
    beta: float | None = None

    @staticmethod
    def from_json(doc: dict) -> "SweepSpec":
        if not isinstance(doc, dict):
            raise ParameterError("sweep spec must be a JSON object")
        for fieldname in ("N_values", "n_rule", "seeds", "gamma_rule"):
            if fieldname not in doc:
                raise ParameterError(f"sweep spec missing field {fieldname!r}")
        n_values = _spec_ints(doc["N_values"], "N_values")
        seeds = _spec_ints(doc["seeds"], "seeds")
        if not n_values or not seeds:
            raise ParameterError("sweep spec fields N_values and seeds must be nonempty")
        if any(v < 2 for v in n_values):
            raise ParameterError("sweep spec field N_values requires N >= 2")
        n_rule = doc["n_rule"]
        if not isinstance(n_rule, dict) or not (
            ("fixed" in n_rule) ^ ("log_multiples" in n_rule)
        ):
            raise ParameterError(
                "sweep spec field n_rule needs exactly one of 'fixed' or 'log_multiples'"
            )
        rank_rule = "fixed" if "fixed" in n_rule else "log_multiples"
        gamma_rule = doc["gamma_rule"]
        if not isinstance(gamma_rule, dict) or "rule" not in gamma_rule:
            raise ParameterError("sweep spec field gamma_rule needs a 'rule' key")
        name = gamma_rule["rule"]
        key = _SPEC_GAMMA_KEYS.get(name) if isinstance(name, str) else None
        if key is None:
            raise ParameterError(f"sweep spec gamma_rule.rule {name!r} unknown")
        try:
            value = float(gamma_rule[key])
        except KeyError:
            raise ParameterError(f"sweep spec gamma_rule {name!r} needs a {key!r} key") from None
        except (TypeError, ValueError):
            raise ParameterError(
                f"sweep spec field gamma_rule.{key} must be a number, got {gamma_rule[key]!r}"
            ) from None
        kind = doc.get("kind", "random_sign")
        if kind not in ("random_sign", "block_sparse"):
            raise ParameterError(f"sweep spec kind {kind!r} unknown")
        alpha, beta = (_spec_sizing(doc, kind, name) for name in ("alpha", "beta"))
        out = doc.get("out")
        if out is not None and not isinstance(out, str):
            raise ParameterError(f"sweep spec field out must be a path string, got {out!r}")
        return SweepSpec(
            n_values=n_values,
            n_rule={rank_rule: _spec_ints(n_rule[rank_rule], f"n_rule.{rank_rule}")},
            seeds=seeds,
            gamma_rule=(name, value),
            kind=kind,
            out=out,
            alpha=alpha,
            beta=beta,
        )

    def ranks_for(self, n_dim: int) -> list[int]:
        if "fixed" in self.n_rule:
            return list(self.n_rule["fixed"])
        base = math.ceil(math.log(n_dim))
        return [m * base for m in self.n_rule["log_multiples"]]


SWEEP_COLUMNS = [
    "N",
    "n",
    "seed",
    "gamma",
    "error",
    "F_star",
    "nnz_fraction",
    "theorem_bound",
    "probabilistic_bound",
    "trace_final_holds",
]


def _sweep_row(task: tuple) -> dict:
    n_dim, rank, seed, gamma, kind, alpha, beta = task
    sizing = {k: v for k, v in (("alpha", alpha), ("beta", beta)) if v is not None}
    mat = _construct(kind, n_dim, rank, seed, **sizing)
    profile = distribution_function(mat, gamma)
    report = trace(mat, TraceConfig(gamma=gamma))
    return {
        "N": n_dim,
        "n": rank,
        "seed": seed,
        "gamma": gamma,
        "error": profile.error,
        "F_star": profile.global_density,
        "nnz_fraction": profile.nnz_fraction,
        "theorem_bound": bnd.theorem_density_bound(n_dim, rank, 0.05),
        "probabilistic_bound": bnd.probabilistic_upper_bound(n_dim, rank),
        "trace_final_holds": report.holds("final_density"),
    }


def sweep_to_csv(spec: SweepSpec, jobs: int = 1) -> str:
    tasks = []
    for n_dim in spec.n_values:
        for rank in spec.ranks_for(n_dim):
            for seed in spec.seeds:
                gamma = resolve_gamma(spec.gamma_rule, n_dim, rank)
                tasks.append((n_dim, rank, seed, gamma, spec.kind, spec.alpha, spec.beta))
    tasks.sort(key=lambda t: (t[0], t[1], t[2]))
    workers = min(jobs, len(tasks))
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:
            rows = pool.map(_sweep_row, tasks)
    else:
        rows = [_sweep_row(t) for t in tasks]
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for col in SWEEP_COLUMNS:
            val = row[col]
            if isinstance(val, bool):
                cells.append("true" if val else "false")
            elif isinstance(val, float):
                cells.append(_fmt17(val))
            else:
                cells.append(str(val))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> int:
    try:
        doc = json.loads(Path(args.spec).read_text())
    except OSError as exc:
        raise FormatError(f"cannot read sweep spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"sweep spec is not valid JSON: {exc}") from exc
    spec = SweepSpec.from_json(doc)
    out_path = args.out or spec.out
    if not out_path:
        raise ParameterError("sweep needs an output path (--out or spec field 'out')")
    csv_text = sweep_to_csv(spec, jobs=args.jobs)
    Path(out_path).write_bytes(csv_text.encode())
    _print_json({"out": str(out_path), "rows": csv_text.count("\n") - 1})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="irlm",
        description="Low-rank identity approximation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct a matrix and write an IRLM2 file")
    gen.add_argument("--kind", required=True, choices=["identity", "random_sign", "block_sparse"])
    gen.add_argument("--N", type=int, required=True)
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--alpha", type=float, default=1.0)
    gen.add_argument("--beta", type=float, default=8.0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    an = sub.add_parser("analyze", help="densities and closed-form bounds for a matrix file")
    an.add_argument("--matrix", required=True)
    an.add_argument("--gamma-rule", default="theorem:0.25")
    an.add_argument("--bound-c", type=float, default=0.05)
    an.set_defaults(func=_cmd_analyze)

    tr = sub.add_parser("trace", help="replay the density argument on a matrix file")
    tr.add_argument("--matrix", required=True)
    tr.add_argument("--gamma-rule", default="theorem:0.25")
    tr.add_argument("--C", type=float, default=1.0)
    tr.add_argument("--C1", type=float, default=1.0)
    tr.add_argument("--mvee-tol", type=float, default=1e-6)
    tr.add_argument("--eps", type=float, default=None, help="manual epsilon override")
    tr.add_argument("--basis", choices=["lemmaA", "lemmaB"], default="lemmaA")
    tr.add_argument("--out", default=None)
    tr.set_defaults(func=_cmd_trace)

    sw = sub.add_parser("sweep", help="run a (N, n, seed) sweep from a JSON spec into CSV")
    sw.add_argument("--spec", required=True)
    sw.add_argument("--out", default=None)
    sw.add_argument("--jobs", type=int, default=1)
    sw.set_defaults(func=_cmd_sweep)

    bo = sub.add_parser("bounds", help="closed-form bound summary for (N, n, c)")
    bo.add_argument("--N", type=int, required=True)
    bo.add_argument("--n", type=int, required=True)
    bo.add_argument("--c", type=float, default=1.0)
    bo.set_defaults(func=_cmd_bounds)

    tu = sub.add_parser("turan", help="threshold graph, exact max clique, edge bounds")
    tu.add_argument("--matrix", required=True)
    tu.add_argument("--gamma", type=float, required=True)
    tu.add_argument("--cap", type=int, default=200)
    tu.set_defaults(func=_cmd_turan)

    mv = sub.add_parser("mvee", help="minimum-volume ellipsoid of the column body")
    mv.add_argument("--matrix", required=True)
    mv.add_argument("--tol", type=float, default=1e-7)
    mv.add_argument("--rank-tol", type=float, default=RANK_TOL)
    mv.set_defaults(func=_cmd_mvee)

    au = sub.add_parser("auerbach", help="volume-maximizing column basis")
    au.add_argument("--matrix", required=True)
    au.add_argument("--delta", type=float, default=AUERBACH_DELTA)
    au.add_argument("--rank-tol", type=float, default=RANK_TOL)
    au.set_defaults(func=_cmd_auerbach)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "generate" and args.kind != "identity" and args.n is None:
        print("error: --n is required for this kind", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ParameterError, ConstructionError, SizeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except IrlmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
