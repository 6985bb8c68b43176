"""Unit tests for the benchmark's metric rules.

Run from the root of the checkout:  python3 -m pytest perfbench/tests -q
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from measure import Span, cli_op, self_time_by_name, self_times, tail_percentile, tally  # noqa: E402
from workloads import AnalyzeWorkload, CliCall, TraceSpec, TraceWorkload, trace_facts  # noqa: E402

# ---------------------------------------------------------------------------
# highest percentile with at least ten samples beyond it


def test_tail_of_twenty_distinct_samples_is_the_median_rank():
    value, pct, n = tail_percentile([float(i) for i in range(1, 21)])
    assert (value, pct, n) == (10.0, 50.0, 20)


def test_tail_of_hundred_samples_is_p90():
    samples = [float(i) for i in range(1, 101)]
    random.Random(3).shuffle(samples)
    assert tail_percentile(samples) == (90.0, 90.0, 100)


def test_tail_steps_below_ties():
    # the value at rank 10 ties with everything above it, so only 1.0 has
    # ten samples strictly beyond it
    value, pct, _ = tail_percentile([1.0] * 5 + [2.0] * 15)
    assert (value, pct) == (1.0, 25.0)


def test_tail_without_enough_samples_falls_back_to_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail_percentile([1.0] * 10) == (1.0, 100.0, 10)
    assert tail_percentile([1.0] * 30) == (1.0, 100.0, 30)


def test_tail_rule_holds_on_random_samples():
    rng = random.Random(7)
    for _ in range(200):
        samples = [float(rng.randint(0, 30)) for _ in range(rng.randint(11, 60))]
        value, pct, n = tail_percentile(samples)
        above = sum(s > value for s in samples)
        if pct == 100.0:
            assert value == max(samples)
            assert all(sum(s > v for s in samples) < 10 for v in set(samples))
            continue
        assert above >= 10
        higher = [s for s in set(samples) if s > value]
        assert sum(s > min(higher) for s in samples) < 10
        assert pct == 100.0 * sum(s <= value for s in samples) / n


# ---------------------------------------------------------------------------
# self time: a span minus the union of its children's intervals


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 3.0, 0, 0),
        Span(2, "b", 2.0, 5.0, 0, 0),  # overlaps a: the union is [1, 5]
        Span(3, "c", 7.0, 8.0, 0, 0),
    ]
    own = self_times(spans)
    assert own[0] == 10.0 - 4.0 - 1.0


def test_grandchildren_count_only_against_their_parent():
    spans = [
        Span(0, "pass", 0.0, 10.0, None, 0),
        Span(1, "trace", 1.0, 6.0, 0, 0),
        Span(2, "mvee", 2.0, 3.0, 1, 0),
        Span(3, "mvee", 4.0, 4.5, 1, 0),
    ]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 3.5, 2: 1.0, 3: 0.5}
    assert sum(own.values()) == 10.0  # self times add up to the pass
    assert self_time_by_name(spans)["mvee"] == 1.5


def test_child_interval_is_clipped_to_its_parent():
    spans = [Span(0, "p", 0.0, 2.0, None, 0), Span(1, "c", 1.0, 5.0, 0, 0)]
    assert self_times(spans)[0] == 1.0


# ---------------------------------------------------------------------------
# failure counting per operation


def test_an_operation_fails_on_exit_code_exception_or_check():
    assert cli_op("ok", 0, None, True).ok
    assert not cli_op("exit", 2, None, True).ok
    assert not cli_op("raised", None, "ValueError()", True).ok
    assert not cli_op("check", 0, None, False, "mismatch").ok
    # only a failed output check can be a known defect
    assert cli_op("check", 0, None, False, "mismatch", known_defect=True).known_defect
    assert not cli_op("exit", 3, None, True, known_defect=True).known_defect


def test_tally_counts_known_defects_as_failed_but_not_unexpected():
    ops = [
        cli_op("a", 0, None, True),
        cli_op("b", 0, None, False, "ulp", known_defect=True),
        cli_op("c", 0, None, True),
        cli_op("d", 0, None, True),
    ]
    counted = tally(ops)
    assert (counted.attempted, counted.failed, counted.unexpected) == (4, 1, 0)
    assert counted.failed_ratio == 0.25


def _call(rc, doc=None):
    return CliCall((), rc, json.dumps(doc) if doc is not None else "", None)


def test_analyze_read_back_mismatch_is_one_known_failure_of_four():
    gen = {"error": 0.7647058823529411, "nnz_fraction": 0.016004681587}
    ana = {"error": 0.7647058823529412, "nnz_fraction": 0.016700506210}
    sign = {"error": 0.453125, "nnz_fraction": 1.0}
    calls = [_call(0, sign), _call(0, sign), _call(0, gen), _call(0, ana)]
    ops = AnalyzeWorkload().check(Path("."), 1, calls, {}, {})
    counted = tally(ops)
    assert (counted.attempted, counted.failed, counted.unexpected) == (4, 1, 0)
    assert [op.name for op in ops if not op.ok] == ["analyze block_sparse"]


def _report(premise_error):
    def step(name, outputs):
        return {"name": name, "outputs": outputs, "check": {"holds": True}}

    return {
        "steps": [
            step("premise", {"approx_error": premise_error}),
            step("density_halving", {"kept": 96, "kappa": 1}),
            step("rank_factorization", {"dim": 96}),
        ],
        "premise_ok": False,
        "measured_constants": {"k": 95, "m": 190},
    }


def test_trace_report_is_checked_against_references_and_first_pass(tmp_path):
    spec = TraceSpec("contacts", 96, 96, "lemmaA")
    wl = TraceWorkload("trace_test", (spec,))
    refs = {"contacts": {"1": trace_facts(_report(0.375))}}
    seen = {}
    outcomes = []
    for error in (0.375, 0.375, 0.25):
        spec.report(tmp_path).write_text(json.dumps(_report(error)))
        outcomes += wl.check(tmp_path, 1, [_call(0)], refs, seen)
    spec.report(tmp_path).unlink()
    outcomes += wl.check(tmp_path, 1, [_call(0)], refs, seen)
    assert [op.ok for op in outcomes] == [True, True, False, False]
    assert "differ from the first pass" in outcomes[2].detail
    assert "no readable trace report" in outcomes[3].detail
    assert tally(outcomes).unexpected == 2


def test_each_trace_call_of_a_pass_is_its_own_operation(tmp_path):
    specs = (TraceSpec("a", 96, 96, "lemmaA"), TraceSpec("b", 384, 64, "lemmaB"))
    wl = TraceWorkload("trace_test", specs)
    refs = {"a": {"2": trace_facts(_report(0.375))}, "b": {"2": trace_facts(_report(0.5))}}
    specs[0].report(tmp_path).write_text(json.dumps(_report(0.375)))
    specs[1].report(tmp_path).write_text(json.dumps(_report(0.375)))
    ops = wl.check(tmp_path, 2, [_call(0), _call(0)], refs, {})
    assert [(op.name, op.ok) for op in ops] == [("trace a", True), ("trace b", False)]
    assert "differ from references" in ops[1].detail
