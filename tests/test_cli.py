import json
import math
import struct

import pytest

from irlm.bounds import gamma_threshold
from irlm.cli import main, parse_gamma_rule, resolve_gamma
from irlm.errors import ParameterError


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_gamma_rule_parsing():
    assert parse_gamma_rule("theorem:0.25") == ("theorem", 0.25)
    assert parse_gamma_rule("fixed:0.5") == ("fixed", 0.5)
    assert parse_gamma_rule("scaled:0.5") == ("scaled", 0.5)
    with pytest.raises(ParameterError):
        parse_gamma_rule("nope:1")
    with pytest.raises(ParameterError):
        parse_gamma_rule("fixed:abc")
    assert resolve_gamma(("scaled", 0.5), 64, 16) == 0.5 / 4.0
    assert resolve_gamma(("theorem", 1.0), 1024, 64) == gamma_threshold(1024, 64, 1.0)


def test_generate_identity_file_size_and_summary(capsys, tmp_path):
    out = tmp_path / "id4.irlm"
    rc, stdout, _ = run(capsys, "generate", "--kind", "identity", "--N", "4", "--out", str(out))
    assert rc == 0
    assert out.stat().st_size == 40 + 2 * 4 * 4 * 8
    doc = json.loads(stdout)
    assert doc["error"] == 0.0
    assert doc["numerical_rank"] == 4
    assert doc["nnz_fraction"] == 0.25


def test_generate_round_trip_read_after_write(capsys, tmp_path):
    out1 = tmp_path / "a.irlm"
    out2 = tmp_path / "b.irlm"
    rc1, s1, _ = run(
        capsys, "generate", "--kind", "random_sign", "--N", "256", "--n", "64",
        "--seed", "1", "--out", str(out1),
    )
    rc2, s2, _ = run(
        capsys, "generate", "--kind", "random_sign", "--N", "256", "--n", "64",
        "--seed", "1", "--out", str(out2),
    )
    assert rc1 == rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(s1) == json.loads(s2) | {"path": str(out1)}


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_block_sparse_analyze_matches_generate_after_file_round_trip(capsys, tmp_path, seed):
    path = tmp_path / "bs.irlm"
    rc1, s1, _ = run(
        capsys, "generate", "--kind", "block_sparse", "--N", "1024", "--n", "500",
        "--alpha", "4", "--beta", "2", "--seed", str(seed), "--out", str(path),
    )
    rc2, s2, _ = run(capsys, "analyze", "--matrix", str(path))
    assert rc1 == rc2 == 0
    gen, ana = json.loads(s1), json.loads(s2)
    assert (ana["error"], ana["nnz_fraction"]) == (gen["error"], gen["nnz_fraction"])
    if seed == 1:
        # the float factor product read 0.7777777777777775 here
        assert ana["error"] == 0.7777777777777778


def test_generate_infeasible_block_sparse_exits_2_with_sizing_message(capsys, tmp_path):
    rc, _, err = run(
        capsys, "generate", "--kind", "block_sparse", "--N", "8", "--n", "1",
        "--seed", "1", "--out", str(tmp_path / "x.irlm"),
    )
    assert rc == 2
    assert "sizing" in err


def test_generate_requires_rank_for_random_sign(capsys, tmp_path):
    rc, _, err = run(
        capsys, "generate", "--kind", "random_sign", "--N", "8",
        "--out", str(tmp_path / "x.irlm"),
    )
    assert rc == 2


def test_analyze_identity(capsys, tmp_path):
    mat = tmp_path / "id.irlm"
    run(capsys, "generate", "--kind", "identity", "--N", "16", "--out", str(mat))
    rc, stdout, _ = run(capsys, "analyze", "--matrix", str(mat), "--gamma-rule", "fixed:0.5")
    assert rc == 0
    doc = json.loads(stdout)
    assert doc["F_star"] == 1.0 / 16.0
    assert doc["gamma"] == 0.5
    assert doc["ratio_empirical_over_bound"] > 0


def test_analyze_theorem_rule_echoes_gamma_threshold(capsys, tmp_path):
    mat = tmp_path / "rs.irlm"
    run(capsys, "generate", "--kind", "random_sign", "--N", "64", "--n", "16",
        "--seed", "1", "--out", str(mat))
    rc, stdout, _ = run(
        capsys, "analyze", "--matrix", str(mat), "--gamma-rule", "theorem:1", "--bound-c", "1",
    )
    doc = json.loads(stdout)
    assert doc["gamma"] == doc["bounds"]["gamma_threshold"] == gamma_threshold(64, 16, 1.0)


def test_analyze_bad_file_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.irlm"
    bad.write_bytes(b"NOTMAGICxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
    rc, _, err = run(capsys, "analyze", "--matrix", str(bad))
    assert rc == 3
    missing = tmp_path / "missing.irlm"
    rc, _, _ = run(capsys, "analyze", "--matrix", str(missing))
    assert rc == 3


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_analyze_non_finite_factor_row_exits_3(capsys, tmp_path, bad):
    # one row of the left factor of a 64/16 sign file overwritten
    mat = tmp_path / "rs.irlm"
    run(capsys, "generate", "--kind", "random_sign", "--N", "64", "--n", "16",
        "--seed", "1", "--out", str(mat))
    data = bytearray(mat.read_bytes())
    data[40 + 5 * 16 * 8 : 40 + 6 * 16 * 8] = struct.pack("<16d", *[bad] * 16)
    mat.write_bytes(bytes(data))
    rc, stdout, err = run(capsys, "analyze", "--matrix", str(mat))
    assert rc == 3
    assert stdout == ""
    assert "finite" in err


@pytest.mark.parametrize("rule", ["fixed:nan", "scaled:nan", "theorem:nan", "fixed:inf"])
@pytest.mark.parametrize("command", ["analyze", "trace"])
def test_non_finite_gamma_exits_2(capsys, tmp_path, command, rule):
    mat = tmp_path / "rs.irlm"
    run(capsys, "generate", "--kind", "random_sign", "--N", "32", "--n", "8",
        "--seed", "1", "--out", str(mat))
    rc, stdout, err = run(capsys, command, "--matrix", str(mat), "--gamma-rule", rule)
    assert rc == 2
    assert stdout == ""
    assert "non-finite gamma" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--N", "64", "--n", "8", "--c", "nan"],
        ["bounds", "--N", "64", "--n", "8", "--c", "inf"],
        ["analyze", "--matrix", "{mat}", "--bound-c", "nan"],
        ["trace", "--matrix", "{mat}", "--C", "nan"],
        ["trace", "--matrix", "{mat}", "--C", "inf"],
        ["trace", "--matrix", "{mat}", "--C1", "nan"],
        ["trace", "--matrix", "{mat}", "--C1", "inf"],
        ["generate", "--kind", "block_sparse", "--N", "64", "--n", "32", "--alpha", "nan", "--out", "{out}"],
        ["generate", "--kind", "block_sparse", "--N", "64", "--n", "32", "--beta", "nan", "--out", "{out}"],
        ["turan", "--matrix", "{mat}", "--gamma", "nan"],
    ],
)
def test_non_finite_constants_exit_2(capsys, tmp_path, argv):
    mat = tmp_path / "rs.irlm"
    run(capsys, "generate", "--kind", "random_sign", "--N", "32", "--n", "8",
        "--seed", "1", "--out", str(mat))
    out = tmp_path / "out.irlm"
    argv = [a.format(mat=mat, out=out) for a in argv]
    rc, stdout, err = run(capsys, *argv)
    assert rc == 2
    assert stdout == ""
    assert "Traceback" not in err
    assert not out.exists()


def test_trace_premise_violation_exits_zero(capsys, tmp_path):
    mat = tmp_path / "rs.irlm"
    run(capsys, "generate", "--kind", "random_sign", "--N", "32", "--n", "8",
        "--seed", "1", "--out", str(mat))
    out = tmp_path / "report.json"
    rc, _, _ = run(capsys, "trace", "--matrix", str(mat), "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["premise_ok"] is False
    assert doc["basis_mode"] == "lemmaA"


def test_trace_basis_flag_switches_branch(capsys, tmp_path):
    mat = tmp_path / "rs.irlm"
    run(capsys, "generate", "--kind", "random_sign", "--N", "32", "--n", "8",
        "--seed", "1", "--out", str(mat))
    rc, stdout, _ = run(capsys, "trace", "--matrix", str(mat), "--basis", "lemmaB")
    assert rc == 0
    doc = json.loads(stdout)
    assert doc["basis_mode"] == "lemmaB"
    assert any(s["name"] == "auerbach_basis" for s in doc["steps"])


def test_bounds_values(capsys):
    rc, stdout, _ = run(capsys, "bounds", "--N", "1024", "--n", "64", "--c", "1")
    doc = json.loads(stdout)
    assert rc == 0
    assert doc["values"]["volume_rank_lower"] == 4.0
    assert abs(doc["values"]["probabilistic_upper"] - 2 * math.sqrt(math.log(1024) / 64)) < 1e-12
    assert doc["values"]["gamma_threshold"] == 1.0 / 64.0
    assert abs(doc["values"]["theorem_density_lower"] - 0.04477) < 1e-4


def test_turan_identity_and_all_ones(capsys, tmp_path):
    mat = tmp_path / "id.irlm"
    run(capsys, "generate", "--kind", "identity", "--N", "10", "--out", str(mat))
    rc, stdout, _ = run(capsys, "turan", "--matrix", str(mat), "--gamma", "0.5")
    doc = json.loads(stdout)
    assert rc == 0
    assert doc["clique_size"] == 10
    assert doc["edges"] == 45
    assert doc["clique_check_ok"] is True


def test_turan_above_cap_falls_back_to_labeled_greedy(capsys, tmp_path):
    mat = tmp_path / "id.irlm"
    run(capsys, "generate", "--kind", "identity", "--N", "30", "--out", str(mat))
    rc, stdout, _ = run(capsys, "turan", "--matrix", str(mat), "--gamma", "0.5", "--cap", "20")
    doc = json.loads(stdout)
    assert rc == 0
    assert doc["clique_method"] == "greedy_lower_bound"
    assert doc["clique_size"] == 30  # greedy is exact on a complete graph
    rc, stdout, _ = run(capsys, "turan", "--matrix", str(mat), "--gamma", "0.5", "--cap", "200")
    assert json.loads(stdout)["clique_method"] == "exact"


def test_mvee_and_auerbach_commands(capsys, tmp_path):
    mat = tmp_path / "rs.irlm"
    run(capsys, "generate", "--kind", "random_sign", "--N", "24", "--n", "6",
        "--seed", "2", "--out", str(mat))
    rc, stdout, _ = run(capsys, "mvee", "--matrix", str(mat), "--tol", "1e-7")
    doc = json.loads(stdout)
    assert rc == 0
    assert doc["dim"] == 6
    assert len(doc["shape"]) == 6
    assert doc["certificate_residual"] <= 1e-6
    assert all(c["weight"] >= 0 for c in doc["contacts"])
    rc, stdout, _ = run(capsys, "auerbach", "--matrix", str(mat), "--delta", "0.01")
    doc = json.loads(stdout)
    assert rc == 0
    assert len(doc["indices"]) == 6
    assert doc["coefficient_bound"] <= 1.01 + 1e-9


@pytest.mark.parametrize("command", ["mvee", "auerbach", "trace"])
def test_zero_factors_exit_4(capsys, tmp_path, command):
    # a random_sign header (kind code 1) over all-zero 8 x 2 factors: the
    # column span is degenerate
    mat = tmp_path / "zero.irlm"
    mat.write_bytes(struct.pack("<8sQQQQ", b"IRLM0001", 8, 2, 1, 1) + bytes(2 * 8 * 2 * 8))
    rc, stdout, err = run(capsys, command, "--matrix", str(mat))
    assert rc == 4
    assert stdout == ""
    assert err.startswith("error:")


def sweep_spec(tmp_path, **overrides):
    spec = {
        "N_values": [32],
        "n_rule": {"fixed": [8, 12]},
        "seeds": [1, 2, 3],
        "gamma_rule": {"rule": "theorem", "c": 0.25},
    }
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_sweep_row_count_and_order(capsys, tmp_path):
    spec = sweep_spec(tmp_path, N_values=[64, 32], seeds=[2, 1, 3])
    out = tmp_path / "out.csv"
    rc, _, _ = run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 2 * 3
    rows = [line.split(",")[:3] for line in lines[1:]]
    keys = [(int(r[0]), int(r[1]), int(r[2])) for r in rows]
    assert keys == sorted(keys)


def test_sweep_singleton(capsys, tmp_path):
    spec = sweep_spec(tmp_path, N_values=[32], n_rule={"fixed": [8]}, seeds=[1])
    out = tmp_path / "one.csv"
    rc, stdout, _ = run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
    doc = json.loads(stdout)
    assert doc["rows"] == 1


def test_sweep_rerun_is_byte_identical(capsys, tmp_path):
    spec = sweep_spec(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(capsys, "sweep", "--spec", str(spec), "--out", str(out1))[0] == 0
    assert run(capsys, "sweep", "--spec", str(spec), "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_log_multiples_rule(capsys, tmp_path):
    spec = sweep_spec(tmp_path, n_rule={"log_multiples": [2, 3]}, seeds=[1])
    out = tmp_path / "lm.csv"
    rc, _, _ = run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
    assert rc == 0
    lines = out.read_text().strip().split("\n")[1:]
    base = math.ceil(math.log(32))
    ranks = sorted({int(line.split(",")[1]) for line in lines})
    assert ranks == [2 * base, 3 * base]


def test_sweep_parallel_workers_do_not_change_bytes(capsys, tmp_path):
    spec = sweep_spec(tmp_path, N_values=[32], n_rule={"fixed": [8]}, seeds=[1, 2])
    out1 = tmp_path / "serial.csv"
    out2 = tmp_path / "parallel.csv"
    assert run(capsys, "sweep", "--spec", str(spec), "--out", str(out1))[0] == 0
    assert run(capsys, "sweep", "--spec", str(spec), "--out", str(out2), "--jobs", "2")[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("seed", [1, 2])
def test_block_sparse_sweep_row_matches_generate(capsys, tmp_path, seed):
    spec = sweep_spec(tmp_path, kind="block_sparse", N_values=[64], n_rule={"fixed": [64]},
                      seeds=[seed])
    out = tmp_path / "bs.csv"
    assert run(capsys, "sweep", "--spec", str(spec), "--out", str(out))[0] == 0
    header, row = out.read_text().strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    rc, stdout, _ = run(
        capsys, "generate", "--kind", "block_sparse", "--N", "64", "--n", "64",
        "--seed", str(seed), "--out", str(tmp_path / "bs.irlm"),
    )
    assert rc == 0
    gen = json.loads(stdout)
    assert float(cells["error"]) == gen["error"]
    assert float(cells["nnz_fraction"]) == gen["nnz_fraction"]


def test_analyze_sign_fixture_ratio_at_least_one(capsys, tmp_path):
    mat = tmp_path / "rs.irlm"
    run(capsys, "generate", "--kind", "random_sign", "--N", "64", "--n", "16",
        "--seed", "1", "--out", str(mat))
    rc, stdout, _ = run(capsys, "analyze", "--matrix", str(mat))
    doc = json.loads(stdout)
    assert rc == 0
    assert doc["ratio_empirical_over_bound"] >= 1.0


def test_sweep_spec_validation_names_fields(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"N_values": [32]}))
    rc, _, err = run(capsys, "sweep", "--spec", str(path), "--out", str(tmp_path / "x.csv"))
    assert rc == 2
    assert "n_rule" in err


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"gamma_rule": {"rule": "theorem"}}, "'c'"),
        ({"N_values": ["x"]}, "N_values"),
        ({"gamma_rule": {"rule": "scaled", "a": "q"}}, "gamma_rule.a"),
        ({"n_rule": {"fixed": 8}}, "n_rule.fixed"),
        ({"out": 5}, "out"),
    ],
)
def test_malformed_sweep_spec_exits_2_without_traceback(capsys, tmp_path, overrides, field):
    spec = sweep_spec(tmp_path, **overrides)
    rc, _, err = run(capsys, "sweep", "--spec", str(spec), "--out", str(tmp_path / "x.csv"))
    assert rc == 2
    assert "Traceback" not in err
    assert field in err


@pytest.mark.parametrize(
    "gamma_rule, cli_rule",
    [({"rule": "scaled", "a": 0.5}, ("scaled", 0.5)), ({"rule": "fixed", "value": 0.3}, ("fixed", 0.3))],
)
def test_sweep_gamma_rules_resolve_like_the_cli(capsys, tmp_path, gamma_rule, cli_rule):
    spec = sweep_spec(tmp_path, n_rule={"fixed": [8]}, seeds=[1], gamma_rule=gamma_rule)
    out = tmp_path / "g.csv"
    assert run(capsys, "sweep", "--spec", str(spec), "--out", str(out))[0] == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert float(row[3]) == resolve_gamma(cli_rule, 32, 8)


@pytest.mark.parametrize(
    "gamma_rule",
    [{"rule": "fixed", "value": math.nan}, {"rule": "scaled", "a": math.inf},
     {"rule": "theorem", "c": math.nan}],
)
def test_sweep_non_finite_gamma_exits_2(capsys, tmp_path, gamma_rule):
    # json.loads accepts NaN and Infinity, so a spec can carry them
    spec = sweep_spec(tmp_path, n_rule={"fixed": [8]}, seeds=[1], gamma_rule=gamma_rule)
    out = tmp_path / "g.csv"
    rc, _, err = run(capsys, "sweep", "--spec", str(spec), "--out", str(out))
    assert rc == 2
    assert "non-finite gamma" in err
    assert not out.exists()


def test_usage_error_exit_code(capsys):
    assert main(["generate", "--kind", "bogus", "--N", "4", "--out", "x"]) == 2
    assert main([]) == 2
