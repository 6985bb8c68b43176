"""The two benchmark workloads.

Each workload is a closed loop with one client: a pass is a fixed sequence
of in-process ``irlm.cli.main(argv)`` calls, and the next pass starts only
after the previous one returned.  Pass k of a run uses matrix seed
``POOL_SEEDS[(seed - 1 + k) % len(POOL_SEEDS)]``, so every run visits the
same inputs in an order set by ``--seed``, and the stored references in
``references.json`` cover every input a run can see.

A workload has three parts: ``prepare`` writes what the passes read (part
of set-up), ``run`` makes the timed CLI calls, and ``check`` turns the
outputs of one pass into per-operation outcomes (``measure.Op``).
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

from measure import Op, cli_op

POOL_SEEDS = (1, 2, 3, 4)


def pass_seed(seed: int, k: int) -> int:
    return POOL_SEEDS[(seed - 1 + k) % len(POOL_SEEDS)]


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    rc: int | None
    stdout: str
    error: str | None  # repr of an exception the call raised
    seconds: float = 0.0  # wall time of the call


def call_cli(argv: list[str]) -> CliCall:
    """One CLI run in-process; ``irlm.cli.main`` is looked up per call so a
    traced pass goes through its wrapper."""
    from irlm import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception as exc:  # an operation that raises is a failed operation
        return CliCall(tuple(argv), None, buf.getvalue(), repr(exc), time.perf_counter() - t0)
    return CliCall(tuple(argv), rc, buf.getvalue(), None, time.perf_counter() - t0)


def _json_or_none(text: str | bytes | None):
    try:
        return json.loads(text) if text is not None else None
    except ValueError:
        return None


def _read_or_none(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


# ---------------------------------------------------------------------------
# trace workload


def trace_facts(doc: dict) -> dict:
    """The facts of a trace report that must match the stored references."""
    steps = {s["name"]: s for s in doc["steps"]}
    return {
        "steps": [s["name"] for s in doc["steps"]],
        "premise_error": steps["premise"]["outputs"]["approx_error"],
        "premise_ok": doc["premise_ok"],
        "kept": steps["density_halving"]["outputs"]["kept"],
        "kappa": steps["density_halving"]["outputs"]["kappa"],
        "dim": steps["rank_factorization"]["outputs"]["dim"],
        "k": doc["measured_constants"]["k"],
        "m": doc["measured_constants"]["m"],
        "holds": [s["check"]["holds"] if s["check"] else None for s in doc["steps"]],
    }


@dataclass(frozen=True)
class TraceSpec:
    """One ``irlm trace`` call of a trace pass, on a sign-construction file
    written during set-up.  ``label`` names the call and keys its stored
    references."""

    label: str
    n_dim: int
    rank: int
    basis: str

    def input(self, work: Path, seed: int) -> Path:
        return work / f"sign_{self.n_dim}_{self.rank}_s{seed}.irlm"

    def report(self, work: Path) -> Path:
        return work / f"report-{self.label}.json"


class TraceWorkload:
    """``irlm trace`` once per spec, in spec order, on the same matrix seed."""

    unit = "traces"

    def __init__(self, name: str, specs: tuple[TraceSpec, ...]):
        self.name = name
        self.specs = specs
        self.units_per_pass = len(specs)
        self.op_labels = tuple(f"trace {spec.label}" for spec in specs)

    def describe(self) -> str:
        return "; ".join(f"irlm trace --basis {spec.basis} on random_sign "
                         f"N={spec.n_dim} n={spec.rank}" for spec in self.specs)

    def prepare(self, work: Path) -> None:
        for spec in self.specs:
            for seed in POOL_SEEDS:
                res = call_cli(["generate", "--kind", "random_sign", "--N", str(spec.n_dim),
                                "--n", str(spec.rank), "--seed", str(seed),
                                "--out", str(spec.input(work, seed))])
                if res.rc != 0:
                    raise RuntimeError(f"set-up generate failed: {res}")

    def run(self, work: Path, seed: int) -> list[CliCall]:
        calls = []
        for spec in self.specs:
            out = spec.report(work)
            out.unlink(missing_ok=True)
            calls.append(call_cli(["trace", "--matrix", str(spec.input(work, seed)),
                                   "--basis", spec.basis, "--out", str(out)]))
        return calls

    def check(self, work: Path, seed: int, calls: list[CliCall], refs: dict, seen: dict) -> list[Op]:
        return [self._check_one(spec, work, seed, call, refs, seen)
                for spec, call in zip(self.specs, calls)]

    @staticmethod
    def _check_one(spec: TraceSpec, work: Path, seed: int, call: CliCall, refs: dict,
                   seen: dict) -> Op:
        ok, detail = False, ""
        text = _read_or_none(spec.report(work))
        doc = _json_or_none(text)
        if doc is None:
            detail = "no readable trace report was written"
        else:
            first = seen.setdefault(("report", spec.label, seed), text)
            facts = trace_facts(doc)
            want = refs[spec.label][str(seed)]
            if text != first:
                detail = f"report bytes differ from the first pass on seed {seed}"
            elif facts != want:
                diff = {k: (facts[k], want.get(k)) for k in facts if facts[k] != want.get(k)}
                detail = f"trace facts differ from references on seed {seed}: {diff}"
            else:
                ok = True
        return cli_op(f"trace {spec.label}", call.rc, call.error, ok, detail)


# ---------------------------------------------------------------------------
# generate + analyze


ANALYZE_INPUTS = (
    ("random_sign", ["--kind", "random_sign", "--N", "4096", "--n", "128"]),
    ("block_sparse", ["--kind", "block_sparse", "--N", "1024", "--n", "500",
                      "--alpha", "4", "--beta", "2"]),
)
# Read-back of a block_sparse file materializes through the float factor
# product (the loaded_kind fallback in irlm.storage), so analyze reports an
# error that differs from generate's in the last ulp.  The check stays and
# the failure is counted; see README.md.
KNOWN_DEFECTS = {"analyze block_sparse"}


class AnalyzeWorkload:
    """``irlm generate`` then ``irlm analyze`` on a dense-heavy sign matrix
    and on a block_sparse matrix that goes through a file round trip."""

    name = "analyze_large"
    unit = "matrices"
    units_per_pass = len(ANALYZE_INPUTS)
    op_labels = tuple(f"{verb} {label}" for label, _ in ANALYZE_INPUTS
                      for verb in ("generate", "analyze"))

    def describe(self) -> str:
        return "irlm generate + analyze on " + "; ".join(
            " ".join(args) for _, args in ANALYZE_INPUTS)

    def prepare(self, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)

    def run(self, work: Path, seed: int) -> list[CliCall]:
        calls = []
        for label, args in ANALYZE_INPUTS:
            path = str(work / f"{label}.irlm")
            calls.append(call_cli(["generate", *args, "--seed", str(seed), "--out", path]))
            calls.append(call_cli(["analyze", "--matrix", path]))
        return calls

    def check(self, work: Path, seed: int, calls: list[CliCall], refs: dict, seen: dict) -> list[Op]:
        ops = []
        for (label, _), gen, ana in zip(ANALYZE_INPUTS, calls[::2], calls[1::2]):
            g_doc, a_doc = _json_or_none(gen.stdout), _json_or_none(ana.stdout)
            first = seen.setdefault(("generate", label, seed), gen.stdout)
            g_ok = g_doc is not None and gen.stdout == first
            ops.append(cli_op(f"generate {label}", gen.rc, gen.error, g_ok,
                              "generate output differs from the first pass"))
            a_ok, detail = False, "analyze output is not JSON or generate failed"
            if a_doc is not None and g_doc is not None:
                mism = {k: (g_doc[k], a_doc[k]) for k in ("error", "nnz_fraction")
                        if g_doc[k] != a_doc[k]}
                a_ok = not mism
                detail = f"analyze differs from generate (generate, analyze): {mism}"
            name = f"analyze {label}"
            ops.append(cli_op(name, ana.rc, ana.error, a_ok, detail, name in KNOWN_DEFECTS))
        return ops


TRACE_SPECS = (
    TraceSpec("trace_contacts", 96, 96, "lemmaA"),
    TraceSpec("sup_norm_scans", 384, 64, "lemmaB"),
)


def build() -> dict:
    return {
        w.name: w
        for w in (
            TraceWorkload("trace_replay", TRACE_SPECS),
            AnalyzeWorkload(),
        )
    }
