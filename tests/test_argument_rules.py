"""The three argument rules: a point of rank n has n coordinates, a partition
has at most n parts, an integer index is an int at or above its bound. Each
rule is one helper, called by every function that takes the argument, so a
bad argument raises the same ArgumentError, with the same message, wherever
it enters; the CLI reports it as a usage error (exit 2) and keeps no copy of
a library check."""

import glob
import math
import os
import re
from fractions import Fraction

import pytest

from bcinterp import (
    ArgumentError,
    GroupData,
    Params,
    R_midpoint_telescoped,
    R_series,
    Rank2Regions,
    S_div,
    c_l_sequence,
    column_poly,
    column_poly_gf,
    crossing_equation,
    crossing_point,
    det_formula_tau1,
    enumerate_Lambda,
    gamma_ratio_partial,
    group_params,
    in_A_certified,
    in_A_raster,
    in_B,
    in_B_raster,
    in_G,
    in_G0_rank2,
    in_square,
    in_U0_knapp_speh,
    in_U0_raster,
    in_W,
    in_W_raster,
    interpolate_from_values,
    k_constant_alt,
    okounkov_eval,
    okounkov_expand,
    phi_j,
    q_poly,
    q_rank2,
    q_rank2_partial_d2,
    r_partial,
    rank1_poly,
    rectangle_poly,
    reverse_tableaux,
    s_m,
    s_m_prime,
    shimura_eigenvalue,
    trace_contour,
    verify_characterization,
)
from bcinterp.cli import _parse_group, main
from test_rank2 import R_closed_form_b0, hyp_sum, poch_pm, poch_rising

F = Fraction
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
G2 = GroupData(2, 2, 0)
P2 = group_params(G2)  # rho = (3/2, 1/2)
P3 = group_params(GroupData(3, 2, 1))
RHO = (F(3, 2), F(1, 2))
RHO_D2 = (F(7, 4), F(3, 4))  # rho1 - rho2 = 1 = d/2 for d = 2

# Every public function that takes a point, and the float reference of
# R_series in test_rank2, as a function of the point and the rank it
# expects; "rho" entries take rho, the pair the series lives on.
POINT_TAKERS = {
    "okounkov_eval": (lambda pt: okounkov_eval((1,), pt, P3), 3),
    "q_poly": (lambda pt: q_poly((1,), pt, P2), 2),
    "phi_j": (lambda pt: phi_j(1, pt, P3), 3),
    "shimura_eigenvalue": (lambda pt: shimura_eigenvalue((1,), pt, G2), 2),
    "in_G": (lambda pt: in_G(pt, P3), 3),
    "in_A_certified": (lambda pt: in_A_certified(pt, P2, 2), 2),
    "in_square": (lambda pt: in_square(pt, P2), 2),
    "in_U0_knapp_speh": (lambda pt: in_U0_knapp_speh(pt, 1), 2),
    "column_poly": (lambda pt: column_poly(1, pt, P3), 3),
    "column_poly_gf": (lambda pt: column_poly_gf(1, pt, P2), 2),
    "rectangle_poly": (lambda pt: rectangle_poly(1, pt, P2), 2),
    "SymEvenPoly.evaluate": (lambda pt: okounkov_expand((1,), P2).evaluate(pt), 2),
    "q_rank2": (lambda pt: q_rank2(2, 1, pt, 2, RHO_D2), 2),
    "q_rank2 rho": (lambda rho: q_rank2(2, 1, (1, F(1, 2)), 2, rho), 2),
    "q_rank2_partial_d2": (lambda pt: q_rank2_partial_d2(2, 1, pt, RHO_D2), 2),
    "R_series": (lambda pt: R_series(pt, 2, (1.5, 0.5)), 2),
    "R_series rho": (lambda rho: R_series((0.5, 0.2), 2, rho), 2),
    "R_closed_form_b0": (R_closed_form_b0, 2),
    "in_B": (lambda pt: in_B(pt, 2, RHO), 2),
    "in_B rho": (lambda rho: in_B((F(1, 2), F(1, 4)), 2, rho), 2),
    "in_B_raster rho": (lambda rho: next(in_B_raster([F(1, 2)], 2, rho)), 2),
    "Rank2Regions.in_T1": (lambda pt: Rank2Regions(*RHO).in_T1(pt), 2),
    "Rank2Regions.in_T2": (lambda pt: Rank2Regions(*RHO).in_T2(pt), 2),
    "in_W": (lambda pt: in_W(pt, 0), 2),
    "in_G0_rank2": (lambda pt: in_G0_rank2(pt, 0), 2),
    "c_l_sequence": (lambda pt: c_l_sequence(pt, 0, 3), 2),
}


@pytest.mark.parametrize("name", sorted(POINT_TAKERS))
@pytest.mark.parametrize("delta", [-1, 1])
def test_a_point_of_the_wrong_length_is_a_domain_error(name, delta):
    f, n = POINT_TAKERS[name]
    bad = (F(1, 2), F(1, 4), F(1, 8), F(1, 16))[: n + delta]
    with pytest.raises(ArgumentError, match=rf"^point has length {n + delta}, expected {n}$"):
        f(bad)


# Every public function that takes a partition and the rank it must fit in,
# at the partition (1, 1, 1), one part too many for rank 2.
PARTITION_TAKERS = {
    "okounkov_eval": lambda lam: okounkov_eval(lam, (1, 2), P2),
    "q_poly": lambda lam: q_poly(lam, (1, 2), P2),
    "shimura_eigenvalue": lambda lam: shimura_eigenvalue(lam, (1, 2), G2),
    "okounkov_expand": lambda lam: okounkov_expand(lam, P2),
    "Params.node": P2.node,
    "det_formula_tau1": lambda lam: det_formula_tau1(lam, (F(1), F(1, 2)), F(1, 2)),
    "k_constant_alt": lambda lam: k_constant_alt(lam, 2, 2),
    "verify_characterization": lambda lam: verify_characterization(lam, P2),
}


@pytest.mark.parametrize("name", sorted(PARTITION_TAKERS))
def test_a_partition_with_too_many_parts_is_a_domain_error(name):
    with pytest.raises(ArgumentError, match=r"^partition '1,1,1' has more than n = 2 parts$"):
        PARTITION_TAKERS[name]([1, 1, 1, 0])


@pytest.mark.parametrize("name", sorted(PARTITION_TAKERS))
@pytest.mark.parametrize("parts, want", [
    ([2, 1.5], "non-integer part 1.5"), ([2, -1], "[2, -1]"), (["a"], "non-integer part 'a'"),
    ([math.nan], "non-integer part nan"), ([None], "non-integer part None"), ([math.inf], "non-integer part inf"),
], ids=["non-integer", "negative", "text", "nan", "None", "inf"])
def test_a_partition_has_nonnegative_integer_parts(name, parts, want):
    with pytest.raises(ArgumentError, match=f"^{re.escape(f'not a partition: {want}')}$"):
        PARTITION_TAKERS[name](parts)


@pytest.mark.parametrize("name", sorted(PARTITION_TAKERS))
@pytest.mark.parametrize("parts", [5, None, 2.5], ids=["int", "None", "float"])
def test_a_partition_is_a_sequence_of_parts(name, parts):
    with pytest.raises(ArgumentError, match=f"^{re.escape(f'not a partition: {parts!r}')}$"):
        PARTITION_TAKERS[name](parts)


# Every integer index of the public functions, and of the Pochhammer and
# hypergeometric references in test_rank2, as (label, index name, lowest
# value, function of the index). The label numbers the taker's cases in
# their ids, so a row can be added or dropped without renaming the cases of
# the others; a new row takes the next free label.
INDEX_TAKERS = [
    (0, "m", 0, lambda m: s_m(0.5, m)),
    (2, "m", 0, lambda m: s_m_prime(0.5, m)),
    (4, "m", 0, lambda m: S_div(0.5, 0.25, m)),
    (6, "m", 0, lambda m: S_div(0.5, 0.5, m)),
    (8, "m", 0, lambda m: in_W((1.0, 0.75), m)),
    (10, "m", 0, lambda m: in_W((5.0, 5.0), m)),  # outside the square
    (12, "m", 0, lambda m: next(in_W_raster([F(0)], m))),
    (14, "m", 0, lambda m: in_G0_rank2((0.1, 0.1), m)),
    (16, "m", 0, lambda m: c_l_sequence((0.9, 0.8), m, 3)),
    (18, "m", 0, lambda m: crossing_equation(0.5, m)),
    (20, "m", 0, crossing_point),
    (22, "m", 0, lambda m: trace_contour(m, 16)),
    (24, "l_max", 0, lambda l_max: c_l_sequence((0.9, 0.8), 0, l_max)),
    (26, "l", 0, lambda l: r_partial(l, F(1), F(1, 2))),
    (28, "l", 0, lambda l: rank1_poly(l, F(1), F(1, 2))),
    (30, "l", 0, lambda l: rectangle_poly(l, (F(1), F(1, 2)), P2)),
    (32, "b", 0, lambda b: in_U0_knapp_speh((F(1, 2), F(1, 4)), b)),
    (34, "b", 0, lambda b: next(in_U0_raster([F(0)], b))),
    (36, "b", 0, R_midpoint_telescoped),
    (38, "b", 0, lambda b: GroupData(2, 2, b)),
    (40, "d", 0, lambda d: GroupData(2, d, 0)),
    (42, "d", 1, lambda d: q_rank2(1, 0, (1, F(1, 2)), d, RHO_D2)),
    (45, "d", 1, lambda d: in_B((F(1, 2), F(1, 4)), d, RHO)),
    (48, "d", 1, lambda d: next(in_B_raster([F(1, 2)], d, RHO))),
    (51, "d", 1, lambda d: R_series((0.5, 0.2), d, RHO)),
    (54, "d", 1, lambda d: k_constant_alt((1,), d, 2)),
    (57, "d", 0, lambda d: enumerate_Lambda(2, d)),
    (59, "n", 1, lambda n: enumerate_Lambda(n, 2)),
    (62, "d", 0, lambda d: interpolate_from_values({}, d, P2)),
    (64, "n", 0, lambda n: next(reverse_tableaux((1,), n))),
    (66, "k", 0, lambda k: poch_rising(F(1, 2), k)),
    (68, "k", 0, lambda k: poch_pm(F(1, 2), F(1, 4), k)),
    (70, "truncation", 0, lambda t: hyp_sum((1,), (2,), t)),
    (72, "terms", 0, lambda t: gamma_ratio_partial(1, 1, 1, 1, t)),
    (74, "m2", 0, lambda m2: q_rank2(2, m2, (1, F(1, 2)), 2, RHO_D2)),
    (76, "m1 - m2", 0, lambda m1: q_rank2(m1, 0, (1, F(1, 2)), 2, RHO_D2)),
    (78, "m1 - m2", 0, lambda m1: q_rank2_partial_d2(m1, 0, (1, F(1, 2)), RHO_D2)),
    (80, "max_weight", 1, lambda w: in_A_certified((F(1, 2), F(1, 4)), P2, w)),
    (83, "max_weight", 1, lambda w: next(in_A_raster([F(0)], P2, w))),
]


@pytest.mark.parametrize("rel_tol", [0, -1, math.nan, math.inf])
def test_the_rel_tol_of_R_series_is_a_positive_finite_number(rel_tol):
    with pytest.raises(ArgumentError, match=r"^rel_tol must be a positive finite number, got "):
        R_series((0.5, 0.2), 2, (1.5, 0.5), rel_tol=rel_tol)


# -1 and 1.5 for every index, and 0 where the index must be positive
INDEX_CASES = [
    pytest.param(name, low, f, v, id=f"{label + k}-{name}={v}")
    for label, name, low, f in INDEX_TAKERS
    for k, v in enumerate((-1, 1.5, 0)[: 2 + low])
]


@pytest.mark.parametrize("name, low, f, value", INDEX_CASES)
def test_a_bad_integer_index_is_a_domain_error(name, low, f, value):
    kind = "positive" if low else "nonnegative"
    want = f"{name} must be a {kind} integer ({name} >= {low}), got {value!r}"
    with pytest.raises(ArgumentError, match=f"^{re.escape(want)}$"):
        f(value)


@pytest.mark.parametrize(
    "make", [lambda: Params(2.0, 1, F(1, 2)), lambda: GroupData(2.5, 2, 0), lambda: Params(0, 1, F(1, 2))]
)
def test_a_rank_is_a_positive_int(make):
    with pytest.raises(ArgumentError, match="rank must be >= 1"):
        make()


def test_the_twist_p_is_an_int_of_any_sign():
    with pytest.raises(ArgumentError, match="p must be an integer, got 0.5"):
        GroupData(2, 2, 0, 0.5)
    assert GroupData(2, 2, 0, -3).p == -3


@pytest.mark.parametrize("j", [0, 3, 1.5])
def test_a_column_height_outside_1_to_n_is_a_domain_error(j):
    for f in (phi_j, column_poly, column_poly_gf):
        with pytest.raises(ArgumentError, match=rf"^column height {j} outside 1\.\.2$"):
            f(j, (1, 2), P2)


@pytest.mark.parametrize("what, f", [("expansion", okounkov_expand), ("verification", verify_characterization)])
def test_the_weight_guard_is_an_argument_rule(what, f):
    # the expansion and the vanishing check share the guard at weight 8
    with pytest.raises(ArgumentError, match=rf"^{what} guarded to weight <= 8, got 9$"):
        f((9,), P2)


def _message(f):
    with pytest.raises(ArgumentError) as info:
        f()
    return str(info.value)


# A CLI usage error and the library call that breaks the same rule, or the
# CLI's own parser where the rule is the CLI's (the three integers of --group).
CLI_USAGE = [
    (["eval", "--n", "2", "--tau", "1", "--alpha", "1/2", "--lambda", "3,2,1", "--x", "1,2"],
     lambda: okounkov_eval((3, 2, 1), (1, 2), Params(2, 1, F(1, 2)))),
    (["eval", "--n", "2", "--tau", "1", "--alpha", "1/2", "--lambda", "1", "--x", "1,2,3"],
     lambda: okounkov_eval((1,), (1, 2, 3), Params(2, 1, F(1, 2)))),
    (["expand", "--n", "2", "--tau", "1", "--alpha", "1/2", "--lambda", "5,4"],
     lambda: okounkov_expand((5, 4), Params(2, 1, F(1, 2)))),
    (["eigenvalue", "--group", "2,2,0", "--mu", "1,1,1", "--x", "1,2"],
     lambda: shimura_eigenvalue((1, 1, 1), (1, 2), G2)),
    (["eigenvalue", "--group", "2,2,0", "--mu", "1", "--x", "1"], lambda: shimura_eigenvalue((1,), (1,), G2)),
    (["contour", "--m", "-1"], lambda: trace_contour(-1, 96)),
    (["crossing", "--m", "-2"], lambda: crossing_point(-2)),
    (["region", "--kind", "W", "--m", "-1"], lambda: in_W((1, 1), -1)),
    (["region", "--kind", "A", "--group", "2,2,0", "--max-weight", "0"], lambda: in_A_certified((0, 0), P2, 0)),
    (["region", "--kind", "G", "--group", "2,-1,0"], lambda: GroupData(2, -1, 0)),
    (["region", "--kind", "rank2-B", "--group", "2,0,1"], lambda: in_B((F(1, 2), F(1, 4)), 0, RHO)),
    (["contour", "--m", "0", "--grid", "8"], lambda: trace_contour(0, 8)),
    (["eigenvalue", "--group", "0,1,0", "--mu", "1", "--x", "1"], lambda: GroupData(0, 1, 0)),
    (["eigenvalue", "--group", "2,x,1", "--mu", "1", "--x", "1,2"], lambda: _parse_group("2,x,1", 0)),
]


@pytest.mark.parametrize("argv, call", CLI_USAGE, ids=[" ".join(a[:3]) for a, _ in CLI_USAGE])
def test_cli_usage_errors_print_the_library_message(capsys, argv, call):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {_message(call)}\n")


def test_each_rule_is_written_once():
    # the message of each rule appears once in the package source, so no
    # function keeps a copy of its own; nor does any old-style "need x >= 0"
    source = ""
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "bcinterp", "*.py"))):
        with open(path) as fh:
            source += fh.read()
    for rule in ("point has length {", "has more than n = {", "integer ({name} >= {low})", "guarded to weight <= {",
                 "column height {", "a raster needs rank 2"):
        assert source.count(rule) == 1, rule
    assert re.findall(r"need [\w-]+ >= \d|(?:nonnegative|positive) integer, got", source) == []


def test_the_cli_keeps_no_copy_of_a_library_check():
    # each handler's library call runs these checks itself, so a call from
    # cli.py would only repeat one (in_A_raster checks --max-weight); --grid
    # is the CLI's own
    with open(os.path.join(ROOT, "src", "bcinterp", "cli.py")) as fh:
        source = fh.read()
    for name in ("_at_most", "_check_length", "_series_constants", "_contour_step", "_check_expand_weight"):
        assert name not in source, name
    assert re.findall(r"_check_int\((.*?),", source) == ['"grid"']


@pytest.mark.parametrize("argv", [
    "region --kind G --group 2,1,1 --max-weight 3 --grid 2",
    "region --kind W --m 0 --max-weight 3 --grid 2",
    "region --kind U0 --group 2,1,1 --max-weight 6 --grid 2",
    "region --kind G --group 2,1,1 --max-weight 0 --grid 2",
])
def test_max_weight_is_for_kind_A_only(capsys, argv):
    # the cap has no default of its own, so a given one is seen and refused
    kind = argv.split()[2]
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", f"error: --max-weight is for kind A only, not for kind {kind}\n")
