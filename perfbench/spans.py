"""In-memory span recorder that wraps irlm functions from outside the library.

``install`` replaces each traced function with a wrapper in the module that
defines it and under every name another irlm module bound it to at import
(``prooftrace`` binds ``approx_error``, ``distribution_function`` and
``submatrix``; ``cli`` binds the storage, construction and trace functions),
so a call records a span whichever binding it goes through.  Spans stay in
memory until the run ends.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from types import ModuleType

from measure import Span


class Recorder:
    """Spans and per-pass counters of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, time.perf_counter(), float("nan"), parent, self.pass_id))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[self.pass_id][name] += value


def _wrap(rec: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if counter is not None:
            for key, value in counter(args, result).items():
                rec.count(f"{name}.{key}", value)
        return result

    return wrapper


def _file_bytes(mat) -> int:
    # IRLM1: 40-byte header, then two float64 factors of N x n
    return 40 + 16 * mat.n_dim * mat.rank_budget


def targets():
    """(span name, owner, attribute, counter) for every traced function.

    The names are the ones the per-layer metrics use.  ``matrices.dense`` is
    the materialization behind ``FactoredMatrix.dense`` (run once per matrix,
    then cached); its bytes and flops are computed as N^2 * 8 and 2 N^2 n.
    Hot scalar helpers (``rng.mix64``, ``SplitMix64.next_u64``) stay
    unwrapped: a span per call would cost more than the call.
    """
    from irlm import bounds, cli, geometry, matrices, prooftrace, rng, storage

    return [
        ("matrices.dense", matrices, "_materialize",
         lambda a, r: {"count": 1, "bytes": 8 * a[0].n_dim**2,
                       "flops": 2 * a[0].n_dim**2 * a[0].rank_budget}),
        ("matrices.approx_error", matrices, "approx_error", None),
        ("matrices.distribution_function", matrices, "distribution_function", None),
        ("matrices.numerical_rank", matrices, "numerical_rank", None),
        ("matrices.make_random_sign", matrices, "make_random_sign", None),
        ("matrices.make_block_sparse", matrices, "make_block_sparse", None),
        ("matrices.submatrix", matrices, "submatrix", None),
        ("rng.sign_matrix", rng, "sign_matrix", lambda a, r: {"entries": r.size}),
        ("rng.SplitMix64.next_signs", rng.SplitMix64, "next_signs",
         lambda a, r: {"calls": 1, "signs": r.size}),
        ("storage.write_matrix", storage, "write_matrix", lambda a, r: {"bytes": _file_bytes(a[0])}),
        ("storage.read_matrix", storage, "read_matrix", lambda a, r: {"bytes": _file_bytes(r)}),
        ("geometry.mvee", geometry, "mvee", lambda a, r: {"contacts": len(r[1])}),
        ("geometry.select_contact_subset", geometry, "select_contact_subset", None),
        ("geometry.l1_lower_constant", geometry, "l1_lower_constant",
         lambda a, r: {"calls": 1, "facets": r.facets_examined}),
        ("geometry.complete_frame", geometry, "complete_frame", None),
        ("geometry.rank_factorize", geometry, "rank_factorize", None),
        ("geometry.expand_coefficients", geometry, "expand_coefficients", None),
        ("geometry.auerbach_basis", geometry, "auerbach_basis", lambda a, r: {"swaps": r.swaps}),
        ("prooftrace.trace", prooftrace, "trace", None),
        ("prooftrace.halve_by_density", prooftrace, "halve_by_density", None),
        ("prooftrace.TraceReport.to_json", prooftrace.TraceReport, "to_json", None),
        ("bounds.bound_summary", bounds, "bound_summary", None),
        ("cli.main", cli, "main", None),
    ]


def _irlm_modules() -> list[ModuleType]:
    import irlm
    from irlm import bounds, cli, geometry, matrices, prooftrace, rng, storage

    return [irlm, bounds, cli, geometry, matrices, prooftrace, rng, storage]


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every target; returns what ``uninstall`` needs to undo it."""
    patched = []
    modules = _irlm_modules()
    for name, owner, attr, counter in targets():
        original = getattr(owner, attr)
        wrapper = _wrap(rec, name, original, counter)
        homes = [(owner, attr)]
        if isinstance(owner, ModuleType):
            homes += [
                (mod, key)
                for mod in modules
                if mod is not owner
                for key, value in vars(mod).items()
                if value is original
            ]
        for home, key in homes:
            patched.append((home, key, getattr(home, key)))
            setattr(home, key, wrapper)
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for home, key, original in reversed(patched):
        setattr(home, key, original)
