"""Pure helpers that turn raw samples, spans and operation outcomes into
metrics.  Nothing here touches irlm, the clock or the file system, so the
unit tests in ``perfbench/tests`` exercise every rule directly."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

TAIL_BEYOND = 10


def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile of ``samples`` that still has at least ``beyond``
    samples strictly above it.

    Returns (value, percentile, sample count).  The percentile is the share
    of samples at or below the value, in percent.  With ``beyond`` or fewer
    samples no such percentile exists, and the maximum is returned with its
    percentile (100) so the caller can see the rule did not apply.
    """
    if not samples:
        raise ValueError("tail_percentile needs at least one sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, n
    idx = n - 1 - beyond
    # ties with the samples above would leave fewer than `beyond` strictly above
    while idx > 0 and ordered[idx] == ordered[idx + 1]:
        idx -= 1
    if ordered[idx] == ordered[idx + 1]:
        return ordered[-1], 100.0, n
    return ordered[idx], 100.0 * (idx + 1) / n, n


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class Span:
    """One timed call: ``parent`` is the id of the enclosing span (None for a
    pass root) and ``pass_id`` groups the spans of one traced pass."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - union_length(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += own[s.id]
    return dict(out)


@dataclass(frozen=True)
class Op:
    """Outcome of one operation: one CLI call.

    ``known_defect`` marks a failed output check that the benchmark notes
    list as a defect of the program; it still counts as failed."""

    name: str
    ok: bool
    detail: str = ""
    known_defect: bool = False


def cli_op(name: str, rc: int | None, error: str | None, check_ok: bool, detail: str = "",
           known_defect: bool = False) -> Op:
    """An operation fails on a nonzero exit code, an exception, or a failed
    output check.  Only a failed check can be a known defect."""
    if error is not None:
        return Op(name, False, f"raised {error}")
    if rc != 0:
        return Op(name, False, f"exit code {rc}")
    if not check_ok:
        return Op(name, False, detail, known_defect)
    return Op(name, True)


@dataclass(frozen=True)
class Tally:
    attempted: int
    failed: int
    unexpected: int  # failures that are not known defects

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def tally(ops: list[Op]) -> Tally:
    failed = [op for op in ops if not op.ok]
    return Tally(
        attempted=len(ops),
        failed=len(failed),
        unexpected=sum(1 for op in failed if not op.known_defect),
    )
