import ast
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import bcinterp.cli as cli
import bcinterp.rank2 as rank2
import bcinterp.shimura as shimura
from bcinterp.exactnum import ArgumentError, DomainError, _cells
from bcinterp.cli import main
from bcinterp.partitions import format_partition
from bcinterp.limits import in_W
from bcinterp.shimura import GroupData, group_params, in_A_certified, in_G, in_square, in_U0_knapp_speh

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


@pytest.mark.parametrize("argv", [
    "eval --n 0 --tau 1 --alpha 1/2 --lambda '' --x 1",
    "expand --n 0 --tau 1 --alpha 1/2 --lambda ''",
])
def test_rank_below_one_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *shlex.split(argv))
    assert (code, out) == (2, "") and err.startswith("error: rank must be >= 1")


def test_eval_partition_longer_than_n_is_usage_error(capsys):
    # a partition with more parts than n is a bad flag combination: the
    # ArgumentError of okounkov_eval's partition rule, as for eigenvalue
    for n, lam, x in (("1", "1,1", "1"), ("2", "1,1,1", "1,2")):
        code, out, err = run(capsys, "eval", "--n", n, "--tau", "1", "--alpha", "1/2", "--lambda", lam, "--x", x)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: partition")


@pytest.mark.parametrize("argv", [
    "eval --n 2 --tau 1 --alpha 1/2 --lambda 1 --x 1,,2",
    "eval --n 2 --tau 1 --alpha 1/2 --lambda 1 --x ,1,2,",
    "eval --n 2 --tau 1 --alpha 1/2 --lambda 1 --x 1,2,",
    "eigenvalue --group 2,2,0 --mu 1 --x 1,,2",
])
def test_an_empty_part_of_a_point_is_usage_error(capsys, argv):
    # every comma-separated part is a coordinate: an empty one is not dropped
    assert run(capsys, *shlex.split(argv)) == (2, "", "error: not a rational: ''\n")


def test_eval_branching_pole_is_compute_error(capsys):
    # tau = -1 passes the flag checks; the branching weights hit a pole
    code, out, err = run(capsys, "eval", "--n", "2", "--tau", "-1", "--alpha", "1/2", "--lambda", "2", "--x", "1,2")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


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


def test_expand_weight_guard_is_usage_error(capsys):
    # weight 9 is above EXPAND_WEIGHT_GUARD; 1,1,1 has more parts than n = 2
    for lam in ("5,4", "1,1,1"):
        code, out, err = run(capsys, "expand", "--n", "2", "--tau", "1", "--alpha", "1/2", "--lambda", lam)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")


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


def test_verify_argument_error_exits_two(capsys, monkeypatch):
    # an ArgumentError is a usage error wherever the command raises it
    def broken(budget, rng, seed):
        yield True
        raise ArgumentError("no such argument")

    monkeypatch.setitem(cli._SUITES, "kmu", (broken, 1, 5))
    assert run(capsys, "verify", "--suite", "kmu") == (2, "", "error: no such argument\n")


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


def test_verify_suites_pass_at_ten_seeds(capsys):
    # every suite at its default budget, in-process, at seeds 0..9: a wider
    # draw of points than the benchmark's seeds 1, 5, 6 and 7
    for suite in cli._SUITES:
        for seed in range(10):
            code, out, _ = run(capsys, "verify", "--suite", suite, "--seed", str(seed))
            assert code == 0 and json.loads(out)["failures"] == [], (suite, seed)


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


def test_verify_rank2_holds_the_midpoint_to_every_enclosure_up_to_1024_terms(capsys, monkeypatch):
    # the enclosures of the midpoint series at K = 1024 have half-widths
    # 4.3e-12 to 7.1e-11 for b = 0..3, so a midpoint 1e-6 off fails each of
    # the four checks; the first signed enclosure, at K = 4 for b = 1..3,
    # is up to 9e-2 wide and would pass three of them
    telescoped = cli.R_midpoint_telescoped
    monkeypatch.setattr(cli, "R_midpoint_telescoped", lambda b: telescoped(b) + 1e-6)
    code, out, _ = run(capsys, "verify", "--suite", "rank2")
    failures = json.loads(out)["failures"]
    assert code == 1 and len(failures) == 4
    assert all(f.startswith(f"R midpoint outside its enclosure b={b} at K=") for b, f in enumerate(failures))


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


# kind, group, --p, grid, --max-weight. Window tops 5/2 (2,1,1), 7/2
# (2,4,0) and 5/2 (2,1,0 at p = 1) over an even grid - 1 share a factor
# with their denominator, so the raster's common denominator is not every
# point's own.
RASTER_CASES = [
    (kind, group, p, grid, w)
    for group, p, grid, w in (
        ("2,1,1", 0, 21, 6),
        ("2,4,3", 0, 17, 6),
        ("2,4,0", 0, 15, 8),
        ("2,2,5", 0, 12, 6),
        ("2,1,0", 1, 21, 6),
        ("2,3,1", 1, 10, 7),
    )
    for kind in ("A", "G")
]


@pytest.mark.parametrize("kind,group,p,grid,w", RASTER_CASES)
def test_region_A_G_rows_match_point_tests(capsys, monkeypatch, kind, group, p, grid, w):
    # every row of the raster kernel against in_A_certified / in_G called
    # point by point; the per-point kernel never runs on a raster
    _, d, b = (int(v) for v in group.split(","))
    prm = group_params(GroupData(2, d, b, p))
    top = prm.rho[0] + 1
    axis = [top * i / (grid - 1) for i in range(grid)]
    want = ["x,y,member,witness"]
    for i, x1 in enumerate(axis):
        for x2 in axis[: i + 1]:
            v = in_A_certified((x1, x2), prm, w) if kind == "A" else in_G((x1, x2), prm)
            witness = "" if v.member else format_partition(v.witness) if kind == "A" else str(v.witness)
            want.append(f"{float(x1):.12g},{float(x2):.12g},{int(v.member)},{witness}")

    def per_point(*args):
        raise AssertionError("per-point kernel on a raster")

    monkeypatch.setattr(shimura, "_numerator", per_point)
    argv = ["region", "--kind", kind, "--group", group, "--p", str(p), "--grid", str(grid)]
    if kind == "A":
        argv += ["--max-weight", str(w)]
    assert run(capsys, *argv) == (0, "\n".join(want) + "\n", "")


# kind, group, --p (--m for W), grid. Grid 41 puts the U0 segments of
# 2,2,3 and 2,1,4 (window [0, 4]) on nodes.
ROW_RANGE_CASES = [
    *(("U0", f"2,{d},{b}", 0, grid) for d, b, grid in ((2, 3, 41), (1, 4, 41), (3, 0, 21), (4, 7, 33), (1, 6, 12))),
    *(("square", f"2,{d},{b}", p, grid) for d, b, p, grid in ((2, 0, 0, 21), (1, 3, 1, 17), (4, 2, -3, 12))),
    *(("W", None, m, grid) for m, grid in ((0, 41), (1, 21), (2, 17), (3, 30))),
]


@pytest.mark.parametrize("kind,group,p,grid", ROW_RANGE_CASES)
def test_region_row_range_rows_match_point_tests(capsys, kind, group, p, grid):
    # every row of the U0, square and W rasters against in_U0_knapp_speh,
    # in_square and in_W called point by point (p is --m for W)
    if kind == "W":
        top, test = Fraction(p + 1, 2) + 2, lambda pt: in_W(pt, p)
        argv = ["region", "--kind", "W", "--m", str(p), "--grid", str(grid)]
    else:
        g = GroupData(2, *(int(v) for v in group.split(",")[1:]), p)
        prm = group_params(g)
        top = prm.rho[0] + 1
        test = (lambda pt: in_U0_knapp_speh(pt, g.b)) if kind == "U0" else (lambda pt: in_square(pt, prm))
        argv = ["region", "--kind", kind, "--group", group, "--p", str(p), "--grid", str(grid)]
    axis = [top * i / (grid - 1) for i in range(grid)]
    want = ["x,y,member,witness"]
    for i, x1 in enumerate(axis):
        for x2 in axis[: i + 1]:
            want.append(f"{float(x1):.12g},{float(x2):.12g},{int(test((x1, x2)))},")
    assert run(capsys, *argv) == (0, "\n".join(want) + "\n", "")


@pytest.mark.parametrize("d", [1, 2])
def test_region_rank2_B_inside_A8(capsys, d):
    # rank2-B is the positivity set for d <= 2, so its members pass every
    # q_lam up to weight 8
    for b in range(4):
        group = f"2,{d},{b}"
        _, b_text, _ = run(capsys, "region", "--kind", "rank2-B", "--group", group, "--grid", "41")
        _, a_text, _ = run(capsys, "region", "--kind", "A", "--group", group, "--grid", "41", "--max-weight", "8")
        bb, aa = parse_region(b_text), parse_region(a_text)
        assert bb.keys() == aa.keys()
        assert [key for key, (m, _) in bb.items() if m == "1" and aa[key][0] != "1"] == [], group


def test_region_rank2_B_rejects_d_3_and_up(capsys):
    # in_B's three tests miss q_(2,2) < 0 there
    for group in ("2,3,0", "2,4,2", "2,6,5"):
        code, out, err = run(capsys, "region", "--kind", "rank2-B", "--group", group, "--grid", "9")
        assert (code, out) == (2, ""), group
        assert "positivity set only for d <= 2" in err


def _per_cell_csv(argv):
    """The region CSV as the per-cell writer made it: the same rasters, their
    rows expanded from runs to cells, and one f-string and one append per
    cell."""
    args = cli._parse_args(["region", *argv])
    top, rows = cli._region_window(args)
    axis = [top * i / (args.grid - 1) for i in range(args.grid)]
    labels = [f"{float(v):.12g}" for v in axis]
    lines = ["x,y,member,witness"]
    for label, row in zip(labels, map(_cells, rows(axis))):
        for y, cell in zip(labels, row):
            if cell.__class__ is bool:
                text = "1," if cell else "0,"
            else:
                text = ("1," if cell.member else "0,") + (cell.witness_str() or "")
            lines.append(f"{label},{y},{text}")
    return "\n".join(lines) + "\n"


# every kind, with --p 1 and --p -1 where the kind takes them (U0 only p = 0,
# rank2-B only d <= 2), and W at even and odd m
WRITER_CASES = [
    *((kind, ["--group", group, "--p", str(p)]) for kind in ("G", "A", "square", "rank2-B")
      for group in ("2,1,2", "2,2,3") for p in (0, 1, -1)),
    *(("U0", ["--group", group]) for group in ("2,1,4", "2,2,3", "2,3,0")),
    *(("W", ["--m", str(m)]) for m in (0, 1, 2)),
]


def _assert_rows_equal_the_per_cell_writer(capsys, tmp_path, argv):
    want = _per_cell_csv(argv)
    assert run(capsys, "region", *argv) == (0, want, "")
    target = tmp_path / "region.csv"
    assert run(capsys, "region", *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text() == want


@pytest.mark.parametrize("kind,flags", WRITER_CASES)
@pytest.mark.parametrize("grid", [2, 3, 7, 41])
def test_region_rows_equal_the_per_cell_writer(capsys, tmp_path, kind, flags, grid):
    _assert_rows_equal_the_per_cell_writer(capsys, tmp_path, ["--kind", kind, *flags, "--grid", str(grid)])


# the region commands of the benchmark's workloads, at their sizes
@pytest.mark.parametrize("argv", [
    "--kind W --m 1 --grid 200",
    "--kind G --group 2,4,3 --grid 100",
    "--kind U0 --group 2,2,4 --grid 160",
    "--kind rank2-B --group 2,1,2 --grid 100",
])
def test_region_at_benchmark_sizes_equals_the_per_cell_writer(capsys, tmp_path, argv):
    _assert_rows_equal_the_per_cell_writer(capsys, tmp_path, argv.split())


W_200 = ["region", "--kind", "W", "--m", "1", "--grid", "200"]


def test_region_writes_the_header_then_a_row_a_chunk(capsys, monkeypatch):
    sizes = []
    monkeypatch.setattr(cli.sys.stdout, "write", lambda text: sizes.append(len(text)))
    code = main(W_200)
    monkeypatch.undo()
    assert (code, *capsys.readouterr()) == (0, "", "")
    # row i holds the i + 1 cells j <= i, a line each
    lines = _per_cell_csv(W_200[1:]).splitlines(keepends=True)
    starts = [1 + i * (i + 1) // 2 for i in range(201)]
    want = [len(lines[0])] + [sum(map(len, lines[a:b])) for a, b in zip(starts, starts[1:])]
    assert sizes == want and len(sizes) == 201


def test_a_write_error_in_the_middle_of_a_raster_is_one_io_error(capsys, monkeypatch):
    sizes = []

    def fails_third(text):
        sizes.append(len(text))
        if len(sizes) == 3:
            raise OSError("pipe closed")

    monkeypatch.setattr(cli.sys.stdout, "write", fails_third)
    code = main(W_200)
    monkeypatch.undo()
    assert (code, *capsys.readouterr()) == (4, "", "error: pipe closed\n")
    assert len(sizes) == 3


def _W_raster_failing_after_two_rows(monkeypatch, error):
    real = cli.in_W_raster

    def failing(axis, m):
        rows = real(axis, m)
        yield next(rows)
        yield next(rows)
        raise error("row 2 failed")

    monkeypatch.setattr(cli, "in_W_raster", failing)


@pytest.mark.parametrize("error,code", [(DomainError, 3), (ArgumentError, 2)])
def test_an_error_in_a_later_raster_row_prints_nothing(capsys, monkeypatch, error, code):
    _W_raster_failing_after_two_rows(monkeypatch, error)
    assert run(capsys, "region", "--kind", "W", "--m", "1", "--grid", "9") == (code, "", "error: row 2 failed\n")


@pytest.mark.parametrize("error,code", [(DomainError, 3), (ArgumentError, 2)])
def test_an_error_in_a_later_raster_row_leaves_out_untouched(capsys, monkeypatch, tmp_path, error, code):
    target = tmp_path / "region.csv"
    target.write_bytes(b"x,y\n1,2\n")
    _W_raster_failing_after_two_rows(monkeypatch, error)
    argv = ["region", "--kind", "W", "--m", "1", "--grid", "9", "--out", str(target)]
    assert run(capsys, *argv) == (code, "", "error: row 2 failed\n")
    assert target.read_bytes() == b"x,y\n1,2\n"


@pytest.mark.parametrize("argv", [
    "--kind A --group 2,4,4 --grid 58",
    "--kind A --group 2,3,1 --grid 41 --max-weight 8",
    "--kind G --group 2,1,1 --grid 41",
    "--kind U0 --group 2,1,4 --grid 160",
    "--kind rank2-B --group 2,2,3 --grid 41",
    "--kind W --m 1 --grid 60",
])
def test_region_formats_each_distinct_outcome_once(capsys, monkeypatch, argv):
    # the Verdict kinds format each (member, witness) once; the bool kinds
    # index a pair of lines per column and format nothing per outcome
    calls = []
    inner = cli._cell
    monkeypatch.setattr(cli, "_cell", lambda v: calls.append(v) or inner(v))
    code, out, _ = run(capsys, "region", *argv.split())
    outcomes = set(parse_region(out).values())
    assert code == 0 and len(outcomes) >= 2
    if argv.split()[1] in ("A", "G"):
        assert len(calls) == len(outcomes)
    else:
        assert calls == []


@pytest.mark.parametrize("kind, name, flags", [
    ("G", "in_G_raster", ["--group", "2,1,2"]),
    ("A", "in_A_raster", ["--group", "2,1,2", "--max-weight", "3"]),
    ("square", "in_square_raster", ["--group", "2,2,3"]),
    ("U0", "in_U0_raster", ["--group", "2,1,4"]),
    ("rank2-B", "in_B_raster", ["--group", "2,2,3"]),
    ("W", "in_W_raster", ["--m", "1"]),
], ids=["G", "A", "square", "U0", "rank2-B", "W"])
def test_region_calls_the_public_raster_of_its_kind_by_name(capsys, monkeypatch, kind, name, flags):
    # a tracer wraps a raster by rebinding its name in the modules that
    # import it, so region must look the name up in cli when it runs, and
    # in_B_raster must take its gates through rank2.in_G_raster
    argv = ["region", "--kind", kind, *flags, "--grid", "9"]
    want = run(capsys, *argv)
    calls = Counter()

    def count(module, attr):
        inner = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *args: calls.update([attr]) or inner(*args))

    count(cli, name)
    expected = Counter([name])
    if kind == "rank2-B":
        count(rank2, "in_G_raster")
        expected["in_G_raster"] = 1
    assert run(capsys, *argv) == want and want[0] == 0
    assert calls == expected


def _perfbench_module(name):
    """A module of perfbench, loaded from its file: the tests only read it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_references():
    """The benchmark's commands, its checker and its recorded references,
    read only."""
    workloads, check = _perfbench_module("workloads"), _perfbench_module("check")
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
        refs = json.load(fh)
    return workloads.all_commands(), check, refs


def test_exact_rasters_match_benchmark_references(capsys, monkeypatch):
    # every region raster the benchmark runs against its recorded reference,
    # by the benchmark's own checker: A, G and U0 byte for byte, the
    # float-decided rank2-B and W by rows and flags. Every point that
    # reaches a polynomial sign decision on the way is exact, and every
    # point past the rank2-B gates comes as integer numerators over an
    # integer denominator
    commands, check, refs = _benchmark_references()
    argvs = [a for a in commands if a[0] == "region"]
    assert len(argvs) == 52
    assert {a[a.index("--kind") + 1] for a in argvs} == {"A", "G", "U0", "rank2-B", "W"}
    reached, inexact = Counter(), []

    def exact_only(module, name, point, kinds):
        inner = getattr(module, name)

        def wrapper(*args):
            reached[name] += 1
            if not all(type(x) in kinds for x in point(args)):
                inexact.append((name, args))
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    exact_only(shimura, "_first_negative", lambda args: args[0], (int, Fraction))
    # _past_gates(x1, x2, q, r1, r2, d, s): the point is x1 / q, x2 / q
    exact_only(rank2, "_past_gates", lambda args: args[:3], (int,))
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        assert check.check(refs[" ".join(argv)], code, out.encode()) is None, argv
    assert reached["_past_gates"] > 0 and inexact == []


def test_other_commands_match_benchmark_references(capsys):
    # every command the benchmark runs besides the rasters (every verify
    # suite, expand, eval, eigenvalue, contour and crossing) against its
    # recorded reference, by the benchmark's own checker
    commands, check, refs = _benchmark_references()
    argvs = [a for a in commands if a[0] != "region"]
    assert len(argvs) == 56
    assert {a[0] for a in argvs} == {"verify", "expand", "eval", "eigenvalue", "contour", "crossing"}
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        assert check.check(refs[" ".join(argv)], code, out.encode()) is None, argv


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


def test_region_windows_that_make_no_sense_are_usage_errors(capsys):
    # the window is [0, rho1 + 1] with rho1 = (d + b + 1 + p)/2, so a
    # negative p can empty it; rank2-B also needs alpha = (b + 1 + p)/2
    # >= -d/4, or its gates let x1 past rho1, onto a pole of the series
    for kind in ("G", "A", "square", "rank2-B"):
        for d in (1, 2):
            for b in range(4):
                for p in range(-8, 1):
                    rejected = Fraction(d + b + 1 + p, 2) + 1 <= 0
                    if kind == "rank2-B":
                        rejected = rejected or Fraction(b + 1 + p, 2) < -Fraction(d, 4)
                    argv = ("region", "--kind", kind, "--group", f"2,{d},{b}", "--p", str(p), "--grid", "41")
                    code, out, err = run(capsys, *argv)
                    assert code == (2 if rejected else 0), (argv, err)
    code, out, err = run(capsys, "region", "--kind", "G", "--group", "2,2,0", "--p", "-5", "--grid", "3")
    assert (code, out) == (2, "") and "window" in err


def test_region_usage_errors(capsys):
    assert run(capsys, "region", "--kind", "W", "--grid", "9")[0] == 2  # missing --m
    assert run(capsys, "region", "--kind", "G", "--grid", "9")[0] == 2  # missing --group
    assert run(capsys, "region", "--kind", "rank2-B", "--group", "3,2,0")[0] == 2
    assert run(capsys, "region", "--kind", "rank2-B", "--group", "2,0,1")[0] == 2
    assert run(capsys, "region", "--kind", "U0", "--group", "2,2,0", "--p", "1")[0] == 2
    assert run(capsys, "region", "--kind", "G", "--group", "2,2,0", "--grid", "1")[0] == 2
    assert run(capsys, "region", "--kind", "A", "--group", "2,2,0", "--max-weight", "0")[0] == 2


@pytest.mark.parametrize("argv, message", [
    ("region --kind G --group 2,1,1 --m 3 --grid 2", "--m is for kind W only, not for kind G"),
    ("region --kind rank2-B --group 2,2,0 --m 0 --grid 2", "--m is for kind W only, not for kind rank2-B"),
    ("region --kind W --m 0 --group 2,1,1 --p 5 --grid 2", "--group and --p are not for kind W"),
    ("region --kind W --m 0 --group 2,1,1 --grid 2", "--group and --p are not for kind W"),
    ("region --kind W --m 0 --p 5 --grid 2", "--group and --p are not for kind W"),
])
def test_region_flags_of_another_kind_are_usage_errors(capsys, argv, message):
    assert run(capsys, *shlex.split(argv)) == (2, "", f"error: {message}\n")


def test_region_W_takes_the_default_p(capsys):
    # --p 0 is the default, which a given value cannot be told from
    assert run(capsys, "region", "--kind", "W", "--m", "0", "--p", "0", "--grid", "3") == run(
        capsys, "region", "--kind", "W", "--m", "0", "--grid", "3")


def test_region_window_beyond_float_range_is_usage_error(capsys):
    # the axis labels are floats, so such a window is rejected with the
    # flags, before any point is tested
    huge = str(10**400)
    cases = [("W", "--m", huge)] + [(kind, "--group", f"2,1,{huge}") for kind in ("G", "A", "rank2-B", "U0", "square")]
    for kind, flag, value in cases:
        code, out, err = run(capsys, "region", "--kind", kind, flag, value, "--grid", "4")
        assert (code, out) == (2, ""), kind
        assert "beyond float range" in err, kind


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
    # past the finest grid the node signs can rely on
    assert run(capsys, "contour", "--m", "0", "--grid", "60000001")[0] == 2


@pytest.mark.parametrize("argv", ["contour --m 170 --grid 16"])
def test_overflowing_s_m_is_a_domain_error(capsys, argv):
    # (t+1)...(t+170) overflows a float inside the window: one error line
    code, out, err = run(capsys, *shlex.split(argv))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("m", [170, 171])
def test_region_W_is_decided_where_s_m_overflows(capsys, m):
    # W signs m! S_div from s~ = m! s_m, which stays in [-1, 1], so
    # (t+1)...(t+m) overflowing a float no longer stops the raster; each
    # square cell against the sign of S_div at 60 digits
    mp = pytest.importorskip("mpmath")
    code, out, err = run(capsys, "region", "--kind", "W", "--m", str(m), "--grid", "200")
    assert (code, err) == (0, "")
    alpha, top = Fraction(m + 1, 2), Fraction(m + 5, 2)
    axis = [top * i / 199 for i in range(200)]
    cells = parse_region(out)

    def s(t):
        return mp.sin(mp.pi * t) / mp.fprod(t + i for i in range(1, m + 1))

    square = 0
    with mp.workdps(60):
        for i, x1 in enumerate(axis):
            for x2 in axis[: i + 1]:
                member = cells[f"{float(x1):.12g}", f"{float(x2):.12g}"][0]
                if not alpha <= x2 <= x1 <= alpha + 1:
                    assert member == "0"
                    continue
                t1, t2 = (mp.mpf(v.numerator) / v.denominator for v in (x1 - alpha, x2 - alpha))
                slope = mp.diff(s, t1) if t1 == t2 else (s(t1) - s(t2)) / (t1 - t2)
                assert member == ("1" if slope >= 0 else "0"), (x1, x2)
                square += 1
    assert square >= 3


@pytest.mark.parametrize("argv", [
    "eval --n 1 --tau 1 --alpha 1 --lambda 3 --x 1e2000",
    "expand --n 3 --tau 1e400 --alpha 1 --lambda 5",
    "eigenvalue --group 2,2,0 --mu 4 --x 1e1500,1",
])
def test_exact_result_too_long_to_print_is_a_domain_error(capsys, argv):
    # the exact value has more digits than int-to-str conversion allows
    code, out, err = run(capsys, *shlex.split(argv))
    assert (code, out) == (3, "")
    assert err.startswith("error: exact result too long to print") and err.count("\n") == 1


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


@pytest.mark.parametrize("flag, value", [("--x", "-1/2,1"), ("--tau", "-1/2")])
def test_negative_values_parse_as_in_their_equals_form(capsys, flag, value):
    flags = {"--n": "2", "--tau": "1", "--alpha": "1/2", "--lambda": "1", "--x": "1,1", flag: value}
    joined = run(capsys, "eval", *(f"{name}={v}" for name, v in flags.items()))
    assert joined[0] == 0
    assert run(capsys, "eval", *(t for item in flags.items() for t in item)) == joined


# usage errors checked word for word: a bound above 1 is not "positive"
USAGE_MESSAGES = {
    "region --kind G --group 2,1,1 --grid 1": "grid must be an integer >= 2, got 1",
    "region --kind G --group 2,1,1 --grid 0": "grid must be an integer >= 2, got 0",
}


@pytest.mark.parametrize("argv", [
    "bogus --m 0",
    "",
    "crossing --m 0 --bogus 1",
    "crossing --m 0 extra",
    "region --kind A --group 2,2,0 --max 4",
    "crossing --m",
    "eigenvalue --group 2,2,0 --mu 1",
    "region --kind G --group 2,2,0 --grid x",
    "region --kind Z --group 2,2,0",
    "verify --suite nope",
    "region --kind square --group 2,2,0 --grid 3 --out ''",
    "region --kind square --group 2,2,0 --grid 3 --out=",
    "contour --m 1 --out ''",
    "contour --m 1 --out=",
    *USAGE_MESSAGES,
])
def test_each_usage_error_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *shlex.split(argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    if argv in USAGE_MESSAGES:
        assert err == f"error: {USAGE_MESSAGES[argv]}\n"


FLAGS = {
    "eval": "--n --tau --alpha --lambda --x",
    "expand": "--n --tau --alpha --lambda",
    "eigenvalue": "--group --p --mu --x",
    "verify": "--suite --budget --seed",
    "region": "--kind --group --p --m --grid --max-weight --out",
    "contour": "--m --grid --out",
    "crossing": "--m",
}


@pytest.mark.parametrize("help_flag", ["-h", "--help"])
@pytest.mark.parametrize("cmd", [None, *FLAGS])
def test_help_names_every_command_and_flag(capsys, cmd, help_flag):
    code, out, err = run(capsys, *([cmd] if cmd else []), help_flag)
    assert (code, err) == (0, "")
    names = FLAGS if cmd is None else FLAGS[cmd].split()
    assert set(names) <= set(out.split())


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    want = run(capsys, "crossing", "--m", "1")
    monkeypatch.setattr(sys, "argv", ["bcinterp", "crossing", "--m", "1"])
    code = main()
    assert (code, *capsys.readouterr()) == want


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # json is imported where JSON is printed, and the CLI parses its own flags
    # -S skips site, so no .pth file imports any of them first
    src = os.path.join(ROOT, "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bcinterp.cli; "
        "print(sorted(m for m in ('argparse', 'dataclasses', 'inspect', 'json', 'random') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_package_imports_only_the_standard_library():
    # relative imports (level > 0) stay inside the package
    src = os.path.join(ROOT, "src", "bcinterp")
    imported = set()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update((name, alias.name.split(".")[0]) for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add((name, node.module.split(".")[0]))
    outside = [(name, module) for name, module in sorted(imported) if module not in sys.stdlib_module_names]
    assert imported and outside == []


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
