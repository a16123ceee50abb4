import json
import os
import shlex
import subprocess
import sys

import pytest

import bcinterp.cli as cli
from bcinterp.exactnum import DomainError
from bcinterp.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_region(text):
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,member,witness"
    rows = {}
    for ln in lines[1:]:
        x, y, member, witness = ln.split(",", 3)
        rows[(x, y)] = (member, witness)
    return rows


# ---------------------------------------------------------------- eval / expand


def test_eval_vanishes_at_node(capsys):
    code, out, _ = run(capsys, "eval", "--n", "2", "--tau", "1", "--alpha", "1/2", "--lambda", "1", "--x", "3/2,1/2")
    assert code == 0
    assert json.loads(out) == {"value": "0"}


def test_eval_empty_partition(capsys):
    code, out, _ = run(capsys, "eval", "--n", "2", "--tau", "1", "--alpha", "1/2", "--lambda", "", "--x", "1,2")
    assert code == 0
    assert json.loads(out) == {"value": "1"}


def test_eval_bad_partition_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "--n", "2", "--tau", "1", "--alpha", "1/2", "--lambda", "1,2", "--x", "1,2")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_eval_missing_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "eval", "--n", "2", "--tau", "1", "--alpha", "1/2", "--lambda", "1")
    assert code == 2


def test_eval_domain_error_is_compute_error(capsys):
    # flags parse, but the partition has more parts than n: the mathematics
    # rejects it while computing
    code, out, err = run(capsys, "eval", "--n", "1", "--tau", "1", "--alpha", "1/2", "--lambda", "1,1", "--x", "1")
    assert code == 3
    assert out == ""
    assert "error:" in err


def test_stdout_write_error_is_io_error(capsys, monkeypatch):
    def broken(text):
        raise OSError("stdout closed")

    monkeypatch.setattr(cli.sys.stdout, "write", broken)
    code = main(["eval", "--n", "2", "--tau", "1", "--alpha", "1/2", "--lambda", "1", "--x", "3/2,1/2"])
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert code == 4
    assert err == "error: stdout closed\n"


def test_expand_single_box(capsys):
    code, out, _ = run(capsys, "expand", "--n", "2", "--tau", "1", "--alpha", "1/2", "--lambda", "1")
    assert code == 0
    assert json.loads(out) == {
        "n": 2,
        "terms": [{"exp": [1, 0], "coeff": "1"}, {"exp": [0, 0], "coeff": "-5/2"}],
    }


def test_expand_at_non_generic_tau(capsys):
    # the node of (1) is a zero of P_(1) here, which only blocks lattice
    # interpolation; the expansion comes from the tableau terms
    code, out, _ = run(capsys, "expand", "--n", "2", "--tau", "-1", "--alpha", "1/2", "--lambda", "1")
    assert code == 0
    assert json.loads(out) == {
        "n": 2,
        "terms": [{"exp": [1, 0], "coeff": "1"}, {"exp": [0, 0], "coeff": "-1/2"}],
    }


def test_expand_weight_guard_is_compute_error(capsys):
    code, out, err = run(capsys, "expand", "--n", "2", "--tau", "1", "--alpha", "1/2", "--lambda", "5,4")
    assert code == 3
    assert out == ""
    assert "error:" in err


# ---------------------------------------------------------------- eigenvalue


def test_eigenvalue_at_base_node(capsys):
    code, out, _ = run(capsys, "eigenvalue", "--group", "2,2,0", "--mu", "2", "--x", "3/2,1/2")
    assert code == 0
    assert json.loads(out) == {"alpha": "1/2", "eigenvalue": "0", "k_mu": "2", "tau": "1"}


def test_eigenvalue_twisted(capsys):
    code, out, _ = run(capsys, "eigenvalue", "--group", "2,2,1", "--mu", "1", "--x", "0,0")
    assert code == 0
    data = json.loads(out)
    assert data["tau"] == "1" and data["alpha"] == "1"


def test_eigenvalue_usage_errors(capsys):
    code, _, _ = run(capsys, "eigenvalue", "--group", "2,2", "--mu", "1", "--x", "0,0")
    assert code == 2
    code, _, _ = run(capsys, "eigenvalue", "--group", "2,2,0", "--mu", "1,1,1", "--x", "0,0")
    assert code == 2


# ---------------------------------------------------------------- verify


def test_verify_suites_pass_at_small_budget(capsys):
    budgets = {
        "characterization": "3",
        "tau1-det": "2",
        "columns": "6",
        "rectangles": "2",
        "kmu": "3",
        "rank2": "2",
        "limits": "20",
    }
    for suite, budget in budgets.items():
        code, out, _ = run(capsys, "verify", "--suite", suite, "--budget", budget)
        assert code == 0, suite
        data = json.loads(out)
        assert data["suite"] == suite
        assert data["checks"] > 0
        assert data["failures"] == []


def test_verify_budget_cap(capsys):
    code, _, err = run(capsys, "verify", "--suite", "rank2", "--budget", "5")
    assert code == 2
    assert "error:" in err


def test_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setitem(cli._SUITES, "kmu", (lambda budget, rng, seed: iter([True, "boom", True]), 1, 5))
    code, out, _ = run(capsys, "verify", "--suite", "kmu")
    assert code == 1
    assert json.loads(out)["failures"] == ["boom"]


def test_verify_compute_error_exits_three(capsys, monkeypatch):
    def broken(budget, rng, seed):
        yield True
        raise DomainError("no such check")

    monkeypatch.setitem(cli._SUITES, "kmu", (broken, 1, 5))
    code, _, err = run(capsys, "verify", "--suite", "kmu")
    assert code == 3
    assert "error:" in err


# the checks of every suite at its default budget with --seed 0
DEFAULT_CHECKS = {
    "characterization": 156,
    "tau1-det": 400,
    "columns": 500,
    "rectangles": 240,
    "kmu": 102,
    "rank2": 204,
    "limits": 220,
}


def test_verify_default_budgets_pin_check_counts(capsys):
    assert sorted(DEFAULT_CHECKS) == sorted(cli._SUITES)
    for suite, checks in DEFAULT_CHECKS.items():
        code, out, _ = run(capsys, "verify", "--suite", suite, "--seed", "0")
        assert code == 0, suite
        assert json.loads(out) == {"suite": suite, "checks": checks, "failures": []}


def test_verify_names_each_mismatch_of_a_real_suite(capsys, monkeypatch):
    # a wrong column_poly_gf fails the second of the two checks at each of
    # the 10 points that budget 1 draws
    monkeypatch.setattr(cli, "column_poly_gf", lambda j, pt, p: cli.column_poly(j, pt, p) + 1)
    code, out, _ = run(capsys, "verify", "--suite", "columns", "--budget", "1")
    data = json.loads(out)
    assert code == 1
    assert data["checks"] == 20
    assert len(data["failures"]) == 10
    assert all(f.startswith("column_poly_gf mismatch j=") and " pt=(" in f for f in data["failures"])
    assert "column_poly_gf mismatch j=1 n=2 tau=1 pt=(" in data["failures"][0]


def test_verify_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--suite", "rank2", "--budget", "2", "--seed", "1")
    _, second, _ = run(capsys, "verify", "--suite", "rank2", "--budget", "2", "--seed", "1")
    assert first == second


# ---------------------------------------------------------------- region


def test_region_square_csv(capsys):
    code, out, _ = run(capsys, "region", "--kind", "square", "--group", "2,2,0", "--grid", "9")
    assert code == 0
    rows = parse_region(out)
    assert len(rows) == 45
    assert rows[("0", "0")] == ("1", "")
    assert all(m in ("0", "1") for m, _ in rows.values())


def test_region_G_witnesses(capsys):
    code, out, _ = run(capsys, "region", "--kind", "G", "--group", "2,2,0", "--grid", "9")
    assert code == 0
    rows = parse_region(out)
    for member, witness in rows.values():
        if member == "1":
            assert witness == ""
        else:
            assert witness in ("1", "2")


def test_region_square_inside_certified(capsys):
    _, sq_text, _ = run(capsys, "region", "--kind", "square", "--group", "2,2,1", "--grid", "9")
    _, a_text, _ = run(capsys, "region", "--kind", "A", "--group", "2,2,1", "--grid", "9", "--max-weight", "4")
    sq = parse_region(sq_text)
    aa = parse_region(a_text)
    assert set(sq) == set(aa)
    for key, (m, _) in sq.items():
        if m == "1":
            assert aa[key][0] == "1", key


def test_region_u0_inside_G(capsys):
    _, u_text, _ = run(capsys, "region", "--kind", "U0", "--group", "2,2,3", "--grid", "11")
    _, g_text, _ = run(capsys, "region", "--kind", "G", "--group", "2,2,3", "--grid", "11")
    u = parse_region(u_text)
    g = parse_region(g_text)
    for key, (m, _) in u.items():
        if m == "1":
            assert g[key][0] == "1", key


def test_region_W_window(capsys):
    code, out, _ = run(capsys, "region", "--kind", "W", "--m", "0", "--grid", "6")
    assert code == 0
    rows = parse_region(out)
    assert ("2.5", "0") in rows  # window top is alpha + 2


def test_region_rank2_B(capsys):
    code, out, _ = run(capsys, "region", "--kind", "rank2-B", "--group", "2,2,0", "--grid", "8")
    assert code == 0
    rows = parse_region(out)
    assert rows[("0", "0")][0] == "1"


def test_region_usage_errors(capsys):
    assert run(capsys, "region", "--kind", "W", "--grid", "9")[0] == 2  # missing --m
    assert run(capsys, "region", "--kind", "G", "--grid", "9")[0] == 2  # missing --group
    assert run(capsys, "region", "--kind", "rank2-B", "--group", "3,2,0")[0] == 2
    assert run(capsys, "region", "--kind", "rank2-B", "--group", "2,0,1")[0] == 2
    assert run(capsys, "region", "--kind", "U0", "--group", "2,2,0", "--p", "1")[0] == 2
    assert run(capsys, "region", "--kind", "G", "--group", "2,2,0", "--grid", "1")[0] == 2
    assert run(capsys, "region", "--kind", "A", "--group", "2,2,0", "--max-weight", "0")[0] == 2


def test_region_group_kinds_need_rank_2(capsys):
    # the raster is two-dimensional: a rank-3 group used to give a silent
    # rank-2 square raster, and exit 3 for G and A
    for kind in ("G", "A", "square", "rank2-B", "U0"):
        for group in ("3,2,1", "1,2,1"):
            code, out, err = run(capsys, "region", "--kind", kind, "--group", group, "--grid", "4")
            assert code == 2, (kind, group)
            assert out == ""
            assert f"kind {kind} needs a rank-2 group" in err


def test_region_out_file(tmp_path, capsys):
    target = tmp_path / "sq.csv"
    code, out, _ = run(capsys, "region", "--kind", "square", "--group", "2,2,0", "--grid", "5", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("x,y,member,witness\n")


def test_region_unwritable_out(capsys):
    code, _, err = run(capsys, "region", "--kind", "square", "--group", "2,2,0", "--grid", "5", "--out", "/nonexistent-dir/sq.csv")
    assert code == 4
    assert "error:" in err


# ---------------------------------------------------------------- contour / crossing


def test_contour_stdout(capsys):
    code, out, _ = run(capsys, "contour", "--m", "0", "--grid", "32")
    assert code == 0
    assert out.startswith("x,y\n")


def test_contour_out_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "contour", "--m", "1", "--grid", "24", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("x,y\n")


def test_contour_unwritable_out(capsys):
    code, out, err = run(capsys, "contour", "--m", "0", "--out", "/nonexistent/dir/x.csv")
    assert code == 4
    assert out == ""
    assert "error:" in err


def test_contour_usage_errors(capsys):
    assert run(capsys, "contour", "--m", "0", "--grid", "8")[0] == 2
    assert run(capsys, "contour", "--m", "-1")[0] == 2


def test_crossing_m0(capsys):
    code, out, _ = run(capsys, "crossing", "--m", "0")
    assert code == 0
    data = json.loads(out)
    assert abs(data["c_m"] - 0.5) < 1e-12
    assert abs(data["residual"]) < 1e-9


def test_crossing_usage_error(capsys):
    assert run(capsys, "crossing", "--m", "-1")[0] == 2


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S skips site, so no .pth file imports any of them first
    src = os.path.join(ROOT, "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bcinterp.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'random') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_readme_examples_print_their_output_comments(capsys):
    # every `bcinterp ...` line of README.md followed by a `# {...}` line
    with open(os.path.join(ROOT, "README.md")) as fh:
        lines = fh.read().splitlines()
    examples = [
        (cmd, nxt[2:])
        for cmd, nxt in zip(lines, lines[1:])
        if cmd.startswith("bcinterp ") and nxt.startswith("# {")
    ]
    assert [shlex.split(cmd)[1:3] for cmd, _ in examples] == [
        ["eval", "--n"], ["expand", "--n"], ["eigenvalue", "--group"], ["crossing", "--m"]
    ]
    for cmd, want in examples:
        assert run(capsys, *shlex.split(cmd)[1:]) == (0, want + "\n", ""), cmd
