"""Sign decisions of in_G and in_A_certified: every point is decided at
its exact value (a float coordinate as the binary rational it holds) by the
integer table kernel of okounkov (per-coordinate tables, then one dot
product), which must agree with a plain Fraction sum over the reverse
tableaux at Fraction(x), and with the column subset sum for in_G."""

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcinterp.okounkov as okounkov
import bcinterp.shimura as shimura
from bcinterp.exactnum import DomainError, PoleError, _cells
from bcinterp.limits import in_G0_rank2, in_W
from bcinterp.okounkov import (
    Params,
    _block_certs,
    _compiled_terms,
    _degree_one_fails,
    _node_row,
    _scaled_axis,
    _sign_blocks,
    _weights,
    column_poly,
    okounkov_eval,
)
from bcinterp.partitions import cells, enumerate_Lambda, psi_tableau, reverse_tableaux, weight
from bcinterp.rank2 import in_B
from bcinterp.shimura import (
    GroupData,
    Verdict,
    group_params,
    in_A_certified,
    in_A_raster,
    in_G,
    in_G_raster,
    in_square,
    in_U0_knapp_speh,
)

GROUPS = [GroupData(2, 2, 0), GroupData(2, 4, 3), GroupData(2, 1, 1), GroupData(2, 3, 1, p=1)]
# Group parameters are half-integers, so their lattice nodes are exact
# floats. Non-dyadic parameters put roundoff into every node, where P_lam
# still vanishes exactly.
RANK2 = [group_params(g) for g in GROUPS] + [
    Params(2, Fraction(1, 3), Fraction(2, 5)),
    Params(2, Fraction(5, 7), Fraction(3, 11)),
]
RANK3 = [group_params(GroupData(3, 2, 1)), Params(3, Fraction(2, 3), Fraction(1, 7))]
coords_st = st.fractions(min_value=-7, max_value=7, max_denominator=12)
HUGE = [
    (Fraction(10**400), Fraction(1)),
    (Fraction(10**400, 3), Fraction(-(10**399))),
    (Fraction(1, 10**400), Fraction(0)),
    (Fraction(3, 2) + Fraction(1, 10**400), Fraction(1, 10**400)),
    (Fraction(0), Fraction(0)),
]


@lru_cache(maxsize=None)
def reference_terms(lam, p):
    """The terms of P_lam, one per reverse tableau T, enumerated here:
    (psi_T, ((T(s) - 1, c^2) for each cell s)) with the cell constant
    c = a'(s) + tau (n - T(s) - l'(s)) + alpha."""
    out = []
    for t in reverse_tableaux(lam, p.n):
        facs = []
        for i, j in cells(lam):
            k = t.entry(i, j)
            c = (j - 1) + p.tau * (p.n - k - (i - 1)) + p.alpha
            facs.append((k - 1, c * c))
        out.append((psi_tableau(t, p.tau), tuple(facs)))
    return tuple(out)


def reference_sum(lam, p, pt):
    """sum_T psi_T prod (x_idx^2 - c^2) over reference_terms, term by term
    in Fraction arithmetic; shares nothing with the integer kernel."""
    sq = [Fraction(x) ** 2 for x in pt]
    total = Fraction(0)
    for psi, facs in reference_terms(lam, p):
        prod = Fraction(psi)
        for idx, csq in facs:
            prod *= sq[idx] - csq
        total += prod
    return total


def oracle_A(pt, p, max_weight):
    """in_A_certified by the sign of (-1)^|lam| times the reference sum."""
    for lam in enumerate_Lambda(p.n, max_weight):
        if lam and (-1) ** weight(lam) * reference_sum(lam, p, pt) < 0:
            return Verdict(False, lam, max_weight)
    return Verdict(True, None, max_weight)


def oracle_G(pt, p):
    """in_G by the sign of phi_j = (-1)^j times the column subset sum."""
    for j in range(1, p.n + 1):
        if (-1) ** j * column_poly(j, tuple(map(Fraction, pt)), p) < 0:
            return Verdict(False, j, p.n)
    return Verdict(True, None, p.n)


def decoded_terms(comp):
    """The terms of a compiled sum read back from its integer form:
    (Psi / P, sorted (coordinate index, C / L) of its factors) per fold
    entry, each coordinate's factors from the path of its node to the root
    of that coordinate's prefix tree."""
    starts = [0]
    for chain in comp.chains:
        starts.append(starts[-1] + len(chain) + 1)
    out = []
    for psi, ks, last in comp.fold:
        facs = []
        for idx, node in enumerate([k - start for k, start in zip(ks, starts)] + [last]):
            while node:
                node, k = comp.chains[idx][node - 1]
                facs.append((idx, Fraction(comp.consts[idx][k], comp.lsc)))
        out.append((Fraction(psi, comp.den), tuple(sorted(facs))))
    return out


def column_subset_terms(j, p):
    """The column subset sum as terms: psi = 1 and, for the k-th member i
    of a j-subset of 1..n, the factor x_i^2 - rho_{i+j-k}^2."""
    rsq = [r * r for r in p.rho]
    return [
        (Fraction(1), tuple(sorted((i - 1, rsq[i + j - k - 1]) for k, i in enumerate(subset, start=1))))
        for subset in itertools.combinations(range(1, p.n + 1), j)
    ]


def assert_agrees(pt, p):
    for w in (6, 8) if p.n == 2 else (4,):
        assert in_A_certified(pt, p, w) == oracle_A(pt, p, w), (pt, w)
    assert in_G(pt, p) == oracle_G(pt, p), pt


def nodes(p, max_weight=4):
    return [p.node(mu) for mu in enumerate_Lambda(p.n, max_weight)]


def off_nodes(p):
    """Points 10^-20 off the lattice nodes: both ways along the first and
    the last axis, along both diagonals through them, and along (1, ..., 1)."""
    eps, mid = Fraction(1, 10**20), (0,) * (p.n - 2)
    steps = [(eps, *mid, 0), (-eps, *mid, 0), (0, *mid, eps), (0, *mid, -eps), (eps, *mid, -eps), (eps,) * p.n]
    return [tuple(x + d for x, d in zip(node, step)) for node in nodes(p) for step in steps]


def huge_points(p):
    """HUGE, padded to rank p.n with a coordinate beyond float range."""
    return [pt + (Fraction(-(10**401), 7),) * (p.n - 2) for pt in HUGE]


def table_value(comp, pt, extra):
    """E at pt from the kernel's per-coordinate tables over one shared axis
    that holds pt's coordinates and the values extra, so its common
    denominator differs from pt's own."""
    n = len(pt)
    q2, a2s = _scaled_axis(list(pt) + extra)
    tables = [[_node_row(comp, idx, q2, a2) for a2 in a2s] for idx in range(n)]
    w = _weights(comp, [tables[idx][idx] for idx in range(n - 1)])
    num = sum(a * b for a, b in zip(w, tables[-1][n - 1]))
    return Fraction(num, comp.den * (q2 * comp.lsc) ** comp.cells)


def assert_kernel_exact(pt, p, max_weight):
    """okounkov_eval (the table kernel over one-element axes) and the
    tables over a shared axis equal the reference sum exactly, and at the
    columns also the subset sum column_poly."""
    extra = [Fraction(7, 36), Fraction(-5, 22)]
    for lam in enumerate_Lambda(p.n, max_weight):
        comp, got = _compiled_terms(lam, p), okounkov_eval(lam, pt, p)
        want = reference_sum(lam, p, pt)
        assert type(got) is Fraction and got == want == table_value(comp, pt, extra), (lam, pt)
    for j in range(1, p.n + 1):
        got = okounkov_eval((1,) * j, pt, p)
        assert got == column_poly(j, pt, p) == reference_sum((1,) * j, p, pt), (j, pt)


@pytest.mark.parametrize("p", RANK2 + RANK3)
def test_kernel_matches_reference_at_and_off_nodes(p):
    w = 6 if p.n == 2 else 4
    for pt in nodes(p) + off_nodes(p):
        assert_kernel_exact(pt, p, w)


@pytest.mark.parametrize("p", [RANK2[0], RANK2[4], RANK3[1]])
def test_kernel_matches_reference_beyond_float_range(p):
    for pt in huge_points(p):
        assert_kernel_exact(pt, p, 6 if p.n == 2 else 4)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(RANK2 + RANK3), x=st.tuples(coords_st, coords_st, coords_st))
def test_kernel_matches_reference_at_random_rationals(p, x):
    assert_kernel_exact(x[: p.n], p, 6 if p.n == 2 else 4)


# the groups of the benchmark's A and G rasters, whose sums reach weight 8
RASTER_PARAMS = [group_params(GroupData(2, d, b)) for d, b in ((1, 1), (4, 3), (4, 4), (3, 1), (4, 0))]


@pytest.mark.parametrize("p", [RANK2[0], RANK2[4], RANK3[1], *RASTER_PARAMS])
def test_kernel_scaling_is_integral(p):
    # Psi / P and C / L give back psi and the c^2 of each coordinate's
    # factors, term by term, read off the prefix trees, against the terms
    # enumerated here from the reverse tableaux in the same order
    for lam in enumerate_Lambda(p.n, 8 if p in RASTER_PARAMS else 5):
        comp = _compiled_terms(lam, p)
        want = [(psi, tuple(sorted(facs))) for psi, facs in reference_terms(lam, p)]
        assert all(len(facs) == comp.cells for _, facs in want)
        assert comp.den == math.lcm(*(psi.denominator for psi, _ in want))
        ints = [comp.den, comp.lsc] + [psi for psi, _, _ in comp.fold] + [c for cs in comp.consts for c in cs]
        assert all(type(v) is int for v in ints)
        for consts, chain in zip(comp.consts, comp.chains):
            assert len(set(consts)) == len(consts) and len(set(chain)) == len(chain)
            assert all(parent <= node for node, (parent, _) in enumerate(chain))
        assert decoded_terms(comp) == want, lam


@pytest.mark.parametrize("tau", [Fraction(-1, 2), Fraction(-1), Fraction(-2, 3), Fraction(-3, 2)])
def test_compile_raises_exactly_where_a_tableau_weight_has_a_pole(tau):
    # the compile's weights come from its own walk over each tableau's
    # strips, psi_tableau's from the tableau's chain: the first pole of the
    # one is the first pole of the other, message and all
    poles = 0
    for n, max_weight in ((2, 8), (3, 6), (4, 5)):
        p = Params(n, tau, Fraction(1, 2))
        for lam in enumerate_Lambda(n, max_weight):
            pole = None
            for t in reverse_tableaux(lam, n):
                try:
                    psi_tableau(t, tau)
                except PoleError as exc:
                    pole = str(exc)
                    break
            if pole is None:
                _compiled_terms(lam, p)
            else:
                poles += 1
                with pytest.raises(PoleError, match=f"^{re.escape(pole)}$"):
                    _compiled_terms(lam, p)
    assert poles > 0


def test_compile_takes_each_reverse_tableau_once(monkeypatch):
    # reverse_tableaux is the compile's only enumerator: it takes every
    # tableau, in order, once, and makes one term of each. The Params are
    # this test's own, so every sum is compiled here and the compile cache,
    # whose objects other tests compare by identity, is left as it is
    taken = []

    def counting(lam, n):
        for t in reverse_tableaux(lam, n):
            taken.append(t.rows)
            yield t

    monkeypatch.setattr(okounkov, "reverse_tableaux", counting)
    for p, max_weight in (
        (Params(2, Fraction(9, 4), Fraction(7, 11)), 8),
        (Params(3, Fraction(-5, 3), Fraction(2, 13)), 6),
        (Params(4, Fraction(4, 9), Fraction(3, 17)), 5),
    ):
        for lam in enumerate_Lambda(p.n, max_weight):
            taken.clear()
            comp = _compiled_terms(lam, p)
            assert taken == [t.rows for t in reverse_tableaux(lam, p.n)]
            assert len(comp.fold) == len(taken)


@pytest.mark.parametrize(
    "tau, alpha", [(1, Fraction(1, 2)), (Fraction(1, 2), 1), (Fraction(-1, 2), Fraction(3, 2)), (Fraction(2, 3), Fraction(1, 7))]
)
def test_column_tableau_terms_are_the_subset_terms(tau, alpha):
    # the compiled tableau sum of 1^j has the terms of the column subset
    # sum, as a multiset, so in_G's column tests are the sums of (1^j)
    for n in range(1, 6):
        p = Params(n, tau, alpha)
        for j in range(1, n + 1):
            want = Counter(column_subset_terms(j, p))
            assert Counter(decoded_terms(_compiled_terms((1,) * j, p))) == want, (n, j)
            assert Counter((psi, tuple(sorted(facs))) for psi, facs in reference_terms((1,) * j, p)) == want


def test_exact_points_never_use_floats():
    # there is no float sign engine: exact points, huge ones included, get
    # the oracle's verdicts from the integer kernel
    for p in RANK2 + RANK3:
        for pt in nodes(p, 3) + huge_points(p):
            assert_agrees(pt, p)


@pytest.mark.parametrize("p", RANK2 + RANK3)
def test_agrees_at_lattice_nodes(p):
    for pt in nodes(p):
        assert_agrees(pt, p)


def random_params(rng):
    """Rank-2 Params with tau and alpha each negative, 0 or positive; a sum
    up to weight 8 may have a branching pole."""
    return Params(2, *(rng.choice((-1, 0, 1)) * Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in "ta"))


def pole_free_params(rng):
    """random_params, drawn again while a sum up to weight 8 has a
    branching pole."""
    while True:
        p = random_params(rng)
        try:
            list(shimura._signed_sums(p, 8))
        except PoleError:
            continue
        return p


def random_axis(rng, p, size):
    """size exact values, unsorted and with repeats: some of them a cell
    constant c = j + tau k + alpha up to sign, where a factor x^2 - c^2 is
    0, and the rest random."""
    consts = [j + p.tau * k + p.alpha for j in range(4) for k in range(3)]
    pool = [rng.choice((-1, 1)) * rng.choice(consts) for _ in range(size)]
    pool += [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(size)]
    return [rng.choice(pool) for _ in range(size)]


# seeds 2 and 4 draw Params with a branching pole, (-2, 0) and (-5, 7/4)
RANDOM_RANK2 = [random_params(random.Random(seed)) for seed in range(10)]
POLES = [Params(2, -1, -4), Params(2, -4, 4), Params(2, -3, Fraction(1, 2))]


def assert_raster_is_point_tests(rows, axis, test):
    """Row i of the raster rows, expanded from its runs, is
    [test((axis[i], x2)) for x2 in axis[:i + 1]], until the first row where
    a point test raises PoleError; the raster must raise it there too, and
    only there."""
    for i, x1 in enumerate(axis):
        try:
            want = [test((x1, x2)) for x2 in axis[: i + 1]]
        except PoleError:
            with pytest.raises(PoleError):
                next(rows)
            return "pole"
        assert _cells(next(rows)) == want, (axis, i)
    assert next(rows, None) is None
    return "rows"


@pytest.mark.parametrize("p", RANK2 + RANDOM_RANK2 + POLES)
def test_rasters_match_point_tests(p):
    # an axis with negative values, ints and unrelated denominators, then an
    # unsorted one with repeats and zero factors; at a Params with a
    # branching pole a band is compiled only when a cell reaches it, so the
    # raster gives each row the point tests give, up to the first row where
    # one of them raises
    fixed = [Fraction(-3, 2), 0, Fraction(1, 3), Fraction(5, 4), 2, Fraction(7, 3), *p.rho, Fraction(10**30 + 1, 10**30)]
    for axis in (fixed, random_axis(random.Random(str(p)), p, 8)):
        assert_raster_is_point_tests(in_A_raster(axis, p, 8), axis, lambda pt: in_A_certified(pt, p, 8))
        assert_raster_is_point_tests(in_G_raster(axis, p), axis, lambda pt: in_G(pt, p))


def test_a_raster_at_a_pole_decides_the_rows_before_it():
    # the point (7, 7) fails at lam = (1) before the band with the pole
    p = Params(2, -2, 0)
    assert list(map(_cells, in_A_raster([7], p, 6))) == [[in_A_certified((7, 7), p, 6)]] == [[Verdict(False, (1,), 6)]]
    outcomes = Counter(assert_raster_is_point_tests(in_A_raster(axis, p, 6), axis,
                                                    lambda pt: in_A_certified(pt, p, 6))
                       for axis in ([7, 6, Fraction(1, 3)], [Fraction(1, 3), 7], [9, 8, 7]))
    assert outcomes == {"pole": 2, "rows": 1}


def sorted_masks(a2s):
    """(squares, below) of an axis's scaled squares a2s: them in ascending
    order, and below[k] the bitmask of the positions of the k smallest."""
    order = sorted(range(len(a2s)), key=lambda j: a2s[j])
    return [a2s[j] for j in order], [sum(1 << j for j in order[:k]) for k in range(len(a2s) + 1)]


def degree_one_boundary_axis(p, rng):
    """Exact values whose cells sit on the zero sets of the degree-one sums
    and next to them: rational points of the circle x1^2 + x2^2 =
    rho1^2 + rho2^2 (where q_(1) = 0, found on lines through rho), +-alpha
    (where the x1 weight of (1,1) vanishes), values inside |x| < |alpha|
    (where it is negative), and neighbours a 1/12 step off. The values
    appear twice, the second time shuffled, so the raster holds each
    ordered pair of them, unsorted and with repeats."""
    r1, r2 = p.rho
    values = [r1, r2, p.alpha, -p.alpha, p.alpha / 2, -p.alpha / 3, 0]
    for m in (Fraction(1, 2), 2, Fraction(-1, 3), Fraction(3, 4)):
        x = -2 * m * (r2 - m * r1) / (1 + m * m) - r1  # the line through rho of slope m meets the circle again
        values += [x, r2 + m * (x - r1)]
    values += [v + Fraction(rng.choice((-1, 1)), 12) for v in values[:4]]
    return values + rng.sample(values, len(values))


BOUNDARY_PARAMS = RANK2 + [Params(2, Fraction(-1, 3), Fraction(-5, 2)), Params(2, Fraction(-3, 2), Fraction(-1, 4)),
                           Params(2, Fraction(2, 3), Fraction(-7, 5)), Params(2, -3, Fraction(9, 4))]


@pytest.mark.parametrize("p", BOUNDARY_PARAMS)
def test_degree_one_thresholds_at_exact_boundary_cells(p):
    # the column tests and lam = (1), (1,1) are decided by one bisection a
    # row, against an integer threshold rounded up or down by the sign of
    # the x1 weight: at cells where q_(1) or q_(1,1) is exactly 0 or its
    # weight vanishes or is negative, each raster still gives the point tests
    axis = degree_one_boundary_axis(p, random.Random(str(p)))
    r1, r2 = p.rho
    on_circle = sum(x1 * x1 + x2 * x2 == r1 * r1 + r2 * r2 for x1, x2 in itertools.combinations(axis, 2))
    assert on_circle > 0 and -p.alpha in axis
    for rows, test in ((in_G_raster(axis, p), lambda pt: in_G(pt, p)),
                       (in_A_raster(axis, p, 2), lambda pt: in_A_certified(pt, p, 2))):
        assert assert_raster_is_point_tests(rows, axis, test) == "rows"


@pytest.mark.parametrize("p", BOUNDARY_PARAMS)
def test_degree_one_thresholds_on_small_denominators(p):
    # over a small common denominator Q the threshold t / s is often not an
    # integer and an axis square A^2 lies one unit from it, where rounding
    # it the wrong way, or bisecting on the wrong side of a tie, flips a cell
    rng = random.Random(repr(p))
    for q in (1, 2, 3, 4):
        axis = [Fraction(rng.randint(-4 * q, 4 * q), q) for _ in range(14)]
        assert_raster_is_point_tests(in_G_raster(axis, p), axis, lambda pt: in_G(pt, p))


@settings(max_examples=200, deadline=None)
@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(1, 9), st.lists(st.integers(-12, 12), max_size=9),
       st.integers(0, 2**9 - 1), st.sampled_from(BOUNDARY_PARAMS))
def test_degree_one_fails_is_the_sign_of_the_numerator(w0, w1, q, nums, todo, p):
    # the bisection against the threshold marks exactly the cells of todo,
    # axis positions of unsorted values with repeats, where
    # w0 + w1 (A^2 L - C Q^2) < 0
    comp = _compiled_terms((1, 1), p)
    q2, a2s = q * q, [a * a for a in nums]
    todo &= (1 << len(a2s)) - 1
    want = sum(1 << k for k, a2 in enumerate(a2s)
               if todo >> k & 1 and w0 + w1 * (a2 * comp.lsc - comp.consts[1][0] * q2) < 0)
    assert _degree_one_fails((w0, w1), comp, q2, *sorted_masks(a2s), todo) == want


def test_column_rasters_build_no_x2_node_row(monkeypatch):
    # every column test has one x2 node, so in_G_raster decides a row by
    # bisection and builds x1 rows only; in_A_raster at weight 2 builds x2
    # rows for lam = (2) alone
    built = Counter()
    node_row = shimura._node_row

    def counted(comp, idx, q2, a2):
        built[idx, comp] += 1
        return node_row(comp, idx, q2, a2)

    monkeypatch.setattr(shimura, "_node_row", counted)
    for p in BOUNDARY_PARAMS:
        axis = degree_one_boundary_axis(p, random.Random(0))
        list(in_G_raster(axis, p))
        assert built and all(idx == 0 for idx, _ in built), p
        built.clear()
        list(in_A_raster(axis, p, 2))
        assert {comp for idx, comp in built if idx == 1} <= {_compiled_terms((2,), p)}, p
        built.clear()


@pytest.mark.parametrize("seed", range(6))
def test_a_certified_block_holds_every_term_at_its_sign(seed):
    # where certs marks x2 for the block of x1, every compiled term,
    # read back from its integer form and evaluated in Fractions, has
    # sign * term >= 0, zero allowed
    rng = random.Random(seed)
    certified = 0
    for _ in range(5):
        p = pole_free_params(rng)
        signed = [*shimura._signed_sums(p, 5), *shimura._signed_columns(p)]
        axis = random_axis(rng, p, 5)
        q2, a2s = _scaled_axis(axis)
        low, ranks = _sign_blocks([comp for _, _, comp in signed], q2, a2s)
        for _, sign, comp in signed:
            certs = _block_certs(sign, comp, low, q2, *sorted_masks(a2s))
            terms = decoded_terms(comp)
            for (x1, r1), (j, x2) in itertools.product(zip(axis, ranks), enumerate(axis)):
                if certs[r1] >> j & 1:
                    certified += 1
                    sq = (Fraction(x1) ** 2, Fraction(x2) ** 2)
                    for psi, facs in terms:
                        assert sign * psi * math.prod(sq[idx] - c for idx, c in facs) >= 0, (p, x1, x2)
    assert certified > 0


def test_the_square_needs_no_node_row(monkeypatch):
    # for tau, alpha > 0 every c is >= alpha, so on [0, alpha]^2 each factor
    # is <= 0 and each term has the sign of q_lam: the square lies in A_w
    # by the certificate alone, and the raster evaluates no sum there
    calls = []
    monkeypatch.setattr(shimura, "_node_row", lambda *args: calls.append(args))
    monkeypatch.setattr(shimura, "_weights", lambda *args: calls.append(args))
    for p in RANK2[:4] + [Params(2, Fraction(1, 3), Fraction(2, 5)), Params(2, Fraction(7, 2), Fraction(1, 9))]:
        axis = [p.alpha * i / 11 for i in range(12)]
        member = Verdict(True, None, 8)
        assert all(row == [member] * (i + 1) for i, row in enumerate(map(_cells, in_A_raster(axis, p, 8))))
    assert calls == []


def test_rasters_need_an_exact_rank_2_axis():
    with pytest.raises(DomainError, match="exact"):
        next(in_G_raster([0.5, Fraction(1)], RANK2[0]))
    with pytest.raises(DomainError, match="rank 2"):
        next(in_A_raster([Fraction(1)], RANK3[0], 4))
    with pytest.raises(DomainError, match="max_weight"):
        next(in_A_raster([Fraction(1)], RANK2[0], 0))


def test_rho_is_a_member():
    # phi_1, phi_2 and many q_lam vanish exactly at rho
    p = group_params(GroupData(2, 2, 0))
    assert in_G(p.rho, p) == Verdict(True, None, 2)
    assert in_A_certified(p.rho, p, 6) == Verdict(True, None, 6)


def test_generic_point_is_a_member():
    p = group_params(GroupData(2, 4, 3))
    pt = (Fraction(1, 3), Fraction(1, 7))
    assert in_A_certified(pt, p, 8) == Verdict(True, None, 8)
    assert in_G(pt, p) == Verdict(True, None, 2)


@pytest.mark.parametrize("p", RANK2)
def test_agrees_just_off_zeros(p):
    for pt in off_nodes(p):
        assert_agrees(pt, p)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(RANK2), x1=coords_st, x2=coords_st)
def test_agrees_at_random_rationals(p, x1, x2):
    assert_agrees((x1, x2), p)


@settings(max_examples=20, deadline=None)
@given(p=st.sampled_from(RANK3), x=st.tuples(coords_st, coords_st, coords_st))
def test_agrees_at_random_rationals_rank3(p, x):
    assert_agrees(x, p)


@pytest.mark.parametrize("pt", HUGE)
def test_coordinates_beyond_float_range(pt):
    for p in RANK2:
        assert_agrees(pt, p)


def test_huge_coordinate_verdicts():
    p = group_params(GroupData(2, 2, 0))
    huge = (Fraction(10**400), Fraction(1))
    assert in_G(huge, p) == Verdict(False, 1, 2)
    assert in_A_certified(huge, p, 6) == Verdict(False, (1,), 6)


@pytest.mark.parametrize("pt", [(1e200, 0.0), (1e155, 0.1), (0.0, -1e200)])
def test_float_points_beyond_the_deadband_scale(pt):
    # an overflowing scale used to turn the float deadband test into
    # -inf < -inf and report a member; every point is decided at its exact
    # rational value
    p = group_params(GroupData(2, 2, 0))
    exact = tuple(Fraction(x) for x in pt)
    assert in_G(pt, p) == oracle_G(exact, p) == Verdict(False, 1, 2)
    assert in_A_certified(pt, p, 6) == oracle_A(exact, p, 6) == Verdict(False, (1,), 6)


@pytest.mark.parametrize("pt", [(Fraction(10**400), 0.5), (0.5, Fraction(-(10**400))), (Fraction(10**400, 3), 1e300)])
def test_mixed_points_beyond_float_range(pt, monkeypatch):
    # float() of the exact coordinate used to raise OverflowError; the
    # point is decided by the integer kernel at its rational value
    p = group_params(GroupData(2, 2, 0))
    calls = []
    numerator = shimura._numerator
    monkeypatch.setattr(shimura, "_numerator", lambda *args: calls.append(args[0]) or numerator(*args))
    got_G, got_A = in_G(pt, p), in_A_certified(pt, p, 6)
    assert calls == [_compiled_terms((1,), p)] * 2
    exact = tuple(map(Fraction, pt))
    assert got_G == oracle_G(exact, p) == Verdict(False, 1, 2)
    assert got_A == oracle_A(exact, p, 6) == Verdict(False, (1,), 6)
    # the point fails a gate of in_B, q10 < 0 or q11 < 0, in Fraction arithmetic
    (x1, x2), (r1, r2) = exact, p.rho
    assert r1 * r1 + r2 * r2 - x1 * x1 - x2 * x2 < 0 or (r2 * r2 - x1 * x1) * (r2 * r2 - x2 * x2) < 0
    assert in_B(pt, 2, p.rho) is False


NON_FINITE = [(float("inf"), 0.0), (float("nan"), 0.0), (0.5, float("-inf")), (Fraction(1, 2), float("nan"))]


@pytest.mark.parametrize("pt", NON_FINITE)
def test_non_finite_coordinates_are_domain_errors(pt):
    p = group_params(GroupData(2, 2, 0))
    with pytest.raises(DomainError, match="finite"):
        in_G(pt, p)
    with pytest.raises(DomainError, match="finite"):
        in_A_certified(pt, p, 6)


@pytest.mark.parametrize("test", [
    lambda pt: in_W(pt, 0),
    lambda pt: in_G0_rank2(pt, 0),
    lambda pt: in_U0_knapp_speh(pt, 3),
    lambda pt: in_square(pt, group_params(GroupData(2, 2, 0))),
], ids=["in_W", "in_G0_rank2", "in_U0_knapp_speh", "in_square"])
@pytest.mark.parametrize("pt", NON_FINITE)
def test_region_tests_reject_non_finite_coordinates(test, pt):
    # these used to call such a point a non-member: every comparison with
    # nan is false
    with pytest.raises(DomainError, match="finite"):
        test(pt)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(RANK2), x1=coords_st, x2=coords_st)
def test_float_points_match_the_exact_oracle(p, x1, x2):
    pt = (float(x1), float(x2))
    exact = (Fraction(pt[0]), Fraction(pt[1]))
    assert in_A_certified(pt, p, 6) == oracle_A(exact, p, 6)
    assert in_G(pt, p) == oracle_G(exact, p)


def test_float_points_near_a_zero_set_get_the_exact_verdict():
    # phi_2 = (1/4 - x1^2)(1/4 - x2^2) < 0 at the first point and phi_1 < 0
    # at the second, each by less than 1e-12: in_G, in_A_certified and the
    # gates of in_B must all see the sign of the exact value
    p = group_params(GroupData(2, 2, 0))
    for pt, column, lam in [((0.3, 0.5 + 1e-12), 2, (1, 1)), ((1.5, 0.5 + 1e-12), 1, (1,))]:
        exact = (Fraction(pt[0]), Fraction(pt[1]))
        assert in_G(pt, p) == oracle_G(exact, p) == Verdict(False, column, 2)
        assert in_A_certified(pt, p, 6) == oracle_A(exact, p, 6) == Verdict(False, lam, 6)
        assert in_B(pt, 2, p.rho) is False


def test_wrong_length_is_domain_error():
    p = group_params(GroupData(3, 2, 1))
    with pytest.raises(DomainError, match="point has length 2, expected 3"):
        in_G((Fraction(1), Fraction(0)), p)
    with pytest.raises(DomainError, match="point has length 2, expected 3"):
        in_A_certified((Fraction(1), Fraction(0)), p, 4)


# (tau, alpha) of the benchmark's expand, eval, eigenvalue and raster
# commands, of the verify suites, and two with larger denominators
COMPILED_PARAMS = [
    (Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(1, 2)), (Fraction(3, 2), Fraction(1)),
    (Fraction(1), Fraction(1)), (Fraction(2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(3, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 2)), (Fraction(1), Fraction(2)),
    (Fraction(2), Fraction(1)), (Fraction(2), Fraction(2)), (Fraction(2), Fraction(5, 2)),
    (Fraction(1, 2), Fraction(3, 4)), (Fraction(1), Fraction(3, 4)), (Fraction(3, 2), Fraction(3, 4)),
    (Fraction(1, 3), Fraction(2, 5)), (Fraction(2, 3), Fraction(1, 7)),
]


@pytest.mark.parametrize("tau, alpha", COMPILED_PARAMS)
def test_every_sum_of_a_params_shares_one_scale(tau, alpha):
    # every c^2 has a denominator dividing D^2, D = lcm(den tau, den alpha),
    # so every compiled sum of the Params is scaled by L = D^2
    scale = math.lcm(tau.denominator, alpha.denominator) ** 2
    for n in range(1, 5):
        p = Params(n, tau, alpha)
        for lam in enumerate_Lambda(n, 6):
            assert _compiled_terms(lam, p).lsc == scale, (n, lam)


def test_a_cold_point_failing_at_one_compiles_one_sum():
    # the weight-8 table is compiled a weight band at a time, and the point
    # fails at lam = (1), in the first band
    _compiled_terms.cache_clear()
    shimura._signed_band.cache_clear()
    p = group_params(GroupData(2, 4, 0))
    assert in_A_certified((Fraction(7), Fraction(1, 3)), p, 8) == Verdict(False, (1,), 8)
    assert _compiled_terms.cache_info().currsize == 1


def test_signed_sums_follow_the_enumeration_order():
    for n in range(1, 5):
        p = Params(n, Fraction(2, 3), Fraction(1, 7))
        for w in range(7):
            signed = list(shimura._signed_sums(p, w))
            assert [k for k, _, _ in signed] == [lam for lam in enumerate_Lambda(n, w) if lam], (n, w)
            assert all(sign == (-1) ** weight(k) and comp is _compiled_terms(k, p) for k, sign, comp in signed)
