import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcinterp.exactnum import DomainError
from bcinterp.okounkov import (
    EXPAND_WEIGHT_GUARD,
    Params,
    SymEvenPoly,
    column_poly,
    column_poly_gf,
    det_formula_tau1,
    interpolate_from_values,
    k_constant,
    k_constant_alt,
    okounkov_eval,
    okounkov_expand,
    rank1_poly,
    rectangle_poly,
    verify_characterization,
)
from bcinterp.okounkov import _det_exact
from bcinterp.partitions import (
    arm,
    cells,
    enumerate_Lambda,
    leg,
    normalize,
    psi_tableau,
    reverse_tableaux,
    weight,
)
from bcinterp.shimura import GroupData, group_params, phi_j, q_poly, shimura_eigenvalue

P_HALF = Params(2, Fraction(1), Fraction(1, 2))


def naive_eval(lam, pt, p):
    """Direct tableau sum written against the partitions primitives only."""
    lam = normalize(lam)
    total = Fraction(0)
    for t in reverse_tableaux(lam, p.n):
        term = psi_tableau(t, p.tau)
        for i, j in cells(lam):
            k = t.entry(i, j)
            c = (j - 1) + p.tau * (p.n - k - (i - 1)) + p.alpha
            term = term * (pt[k - 1] ** 2 - c * c)
        total += term
    return total


def rational_points(n, count, seed):
    rng = random.Random(seed)
    return [
        tuple(Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4))) for _ in range(n))
        for _ in range(count)
    ]


coords_st = st.fractions(min_value=-8, max_value=8, max_denominator=4)


# ---------------------------------------------------------------- params


def test_rho_and_node():
    assert P_HALF.rho == (Fraction(3, 2), Fraction(1, 2))
    assert P_HALF.node((1,)) == (Fraction(5, 2), Fraction(1, 2))
    assert P_HALF.node(()) == P_HALF.rho


def test_params_rejects_bad_rank():
    with pytest.raises(DomainError):
        Params(0, Fraction(1), Fraction(1, 2))


def test_node_rejects_long_partition():
    with pytest.raises(DomainError):
        P_HALF.node((1, 1, 1))


# ---------------------------------------------------------------- evaluation


def test_empty_partition_is_one():
    assert okounkov_eval((), (Fraction(7, 3), Fraction(1)), P_HALF) == 1


def test_single_box_values():
    # P_(1) = (x1^2 - (tau+alpha)^2) + (x2^2 - alpha^2) here
    assert okounkov_eval((1,), P_HALF.rho, P_HALF) == 0
    assert okounkov_eval((1,), (Fraction(2), Fraction(1)), P_HALF) == Fraction(5, 2)


def test_eval_rejects_bad_shapes():
    with pytest.raises(DomainError):
        okounkov_eval((1, 1, 1), (Fraction(1), Fraction(2)), P_HALF)
    with pytest.raises(DomainError):
        okounkov_eval((1,), (Fraction(1),), P_HALF)


@settings(max_examples=60, deadline=None)
@given(
    lam=st.sampled_from([(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)]),
    ta=st.sampled_from([(1, Fraction(1, 2)), (Fraction(1, 2), 1), (2, 1)]),
    x1=coords_st,
    x2=coords_st,
)
def test_eval_matches_naive_tableau_sum(lam, ta, x1, x2):
    p = Params(2, Fraction(ta[0]), Fraction(ta[1]))
    assert okounkov_eval(lam, (x1, x2), p) == naive_eval(lam, (x1, x2), p)


def test_eval_matches_naive_rank3():
    p = Params(3, Fraction(1, 2), Fraction(3, 2))
    for lam in [(2, 1), (2, 2, 1), (3, 1, 1)]:
        for pt in rational_points(3, 4, seed=11):
            assert okounkov_eval(lam, pt, p) == naive_eval(lam, pt, p)


FLOAT_POINTS = [
    (Params(2, Fraction(1, 2), Fraction(3, 2)), (2.3, -0.1)),
    (Params(3, Fraction(2, 3), Fraction(1, 7)), (1e-3, 4.75, -1.3)),
]


@pytest.mark.parametrize("p, pt", FLOAT_POINTS)
def test_float_points_are_evaluated_at_their_exact_value(p, pt):
    # a float coordinate is the binary rational it holds: every value is the
    # exact Fraction there, computed by the integer kernel
    exact = tuple(map(Fraction, pt))
    for lam in enumerate_Lambda(p.n, 4):
        want = naive_eval(lam, exact, p)
        got = okounkov_eval(lam, pt, p)
        assert type(got) is Fraction and got == want, lam
        assert q_poly(lam, pt, p) == (-1) ** weight(lam) * want, lam
    for j in range(1, p.n + 1):
        assert phi_j(j, pt, p) == (-1) ** j * naive_eval((1,) * j, exact, p) == (-1) ** j * column_poly(j, exact, p)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coordinates_are_domain_errors(bad):
    g = GroupData(2, 2, 0)
    p, pt = group_params(g), (Fraction(1, 2), bad)
    for call in (
        lambda: okounkov_eval((2, 1), pt, p),
        lambda: q_poly((1,), pt, p),
        lambda: phi_j(2, pt, p),
        lambda: shimura_eigenvalue((1, 1), pt, g),
    ):
        with pytest.raises(DomainError, match="finite"):
            call()


def test_eigenvalue_at_a_float_point_is_exact():
    g = GroupData(2, 2, 3)
    p, pt = group_params(g), (2.3, 0.1)
    got = shimura_eigenvalue((2, 1), pt, g)
    assert type(got) is Fraction
    assert got == k_constant((2, 1), p.tau) * naive_eval((2, 1), tuple(map(Fraction, pt)), p)


@settings(max_examples=40, deadline=None)
@given(x1=coords_st, x2=coords_st)
def test_symmetric_and_even(x1, x2):
    p = Params(2, Fraction(1, 2), Fraction(1))
    v = okounkov_eval((2, 1), (x1, x2), p)
    assert okounkov_eval((2, 1), (x2, x1), p) == v
    assert okounkov_eval((2, 1), (-x1, x2), p) == v


# ---------------------------------------------------------------- closed forms


def test_rank1_poly_values():
    assert rank1_poly(0, Fraction(5), Fraction(1, 2)) == 1
    assert rank1_poly(2, Fraction(0), Fraction(1, 2)) == Fraction(9, 16)
    with pytest.raises(DomainError):
        rank1_poly(-1, Fraction(1), Fraction(1, 2))


def test_rank1_is_the_n1_interpolation_poly():
    # a single row in rank 1 does not see tau
    for tau in (Fraction(1), Fraction(1, 2), Fraction(3)):
        p = Params(1, tau, Fraction(3, 4))
        for l in range(5):
            for (x,) in rational_points(1, 3, seed=l):
                assert okounkov_eval((l,), (x,), p) == rank1_poly(l, x, Fraction(3, 4))


def test_det_formula_tau1_matches_eval():
    rng = random.Random(7)
    for n in (2, 3):
        for alpha in (Fraction(1, 2), Fraction(1)):
            p = Params(n, Fraction(1), alpha)
            for lam in enumerate_Lambda(n, 3):
                done = 0
                while done < 5:
                    pt = tuple(
                        Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3))) for _ in range(n)
                    )
                    try:
                        d = det_formula_tau1(lam, pt, alpha)
                    except DomainError:
                        continue
                    assert d == okounkov_eval(lam, pt, p)
                    done += 1


def test_det_formula_of_the_empty_point_is_one():
    assert det_formula_tau1((), (), Fraction(1, 2)) == 1


def test_det_formula_rejects_coinciding_squares():
    with pytest.raises(DomainError):
        det_formula_tau1((1,), (Fraction(2), Fraction(-2)), Fraction(1, 2))


def test_column_poly_matches_eval():
    for n in (2, 3):
        for tau, alpha in ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 2))):
            p = Params(n, tau, alpha)
            for j in range(1, n + 1):
                col = (1,) * j
                for pt in rational_points(n, 6, seed=10 * n + j):
                    v = okounkov_eval(col, pt, p)
                    assert column_poly(j, pt, p) == v
                    assert column_poly_gf(j, pt, p) == v


def test_column_poly_rejects_bad_height():
    with pytest.raises(DomainError):
        column_poly(0, (Fraction(1), Fraction(2)), P_HALF)
    with pytest.raises(DomainError):
        column_poly_gf(3, (Fraction(1), Fraction(2)), P_HALF)


def test_rectangle_poly_matches_eval():
    for n in (1, 2):
        for tau, alpha in ((Fraction(1), Fraction(1, 2)), (Fraction(2), Fraction(1))):
            p = Params(n, tau, alpha)
            for l in range(4):
                for pt in rational_points(n, 5, seed=n + l):
                    assert rectangle_poly(l, pt, p) == okounkov_eval((l,) * n, pt, p)


def test_column_and_rectangle_forms_are_exact_only():
    pt = (Fraction(1, 2), 0.25)
    for f in (column_poly, column_poly_gf):
        with pytest.raises(DomainError, match="exact"):
            f(1, pt, P_HALF)
    for l in (0, 2):
        with pytest.raises(DomainError, match="exact"):
            rectangle_poly(l, pt, P_HALF)


# ---------------------------------------------------------------- integer oracles
#
# The reference formulas compute in integers over one common denominator.
# Below, the Fraction versions they replaced: Gaussian elimination, the
# truncated series product, and the products taken factor by factor.


def reference_det(rows):
    """Determinant by Gaussian elimination in Fractions."""
    m = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            for c in range(col, len(m)):
                m[r][c] -= f * m[col][c]
    return det


def reference_det_formula_tau1(lam, pt, alpha):
    n = len(pt)
    padded = tuple(lam) + (0,) * (n - len(lam))
    kappa = [padded[j] + (n - 1 - j) for j in range(n)]
    van = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            van *= pt[i] ** 2 - pt[j] ** 2
    rows = [[reference_rank1(k, x, alpha) for k in kappa] for x in pt]
    return reference_det(rows) / van


def reference_rank1(l, x, alpha):
    out = Fraction(1)
    for i in range(l):
        out *= x * x - (i + alpha) ** 2
    return out


def reference_poly_mul_trunc(a, b, deg):
    out = [Fraction(0)] * (deg + 1)
    for i, ai in enumerate(a[:deg + 1]):
        for k, bk in enumerate(b[:deg + 1 - i]):
            out[i + k] += ai * bk
    return out


def reference_column_poly_gf(j, pt, p):
    series = [Fraction(1)]
    for x in pt:
        series = reference_poly_mul_trunc(series, [Fraction(1), x * x], j)
    for r in p.rho[j - 1:]:
        series = reference_poly_mul_trunc(series, [(-r * r) ** k for k in range(j + 1)], j)
    return series[j]


def reference_column_poly(j, pt, p):
    total = Fraction(0)
    for subset in itertools.combinations(range(p.n), j):
        term = Fraction(1)
        for k, i in enumerate(subset, start=1):
            term *= pt[i] ** 2 - p.rho[i + j - k] ** 2
        total += term
    return total


def reference_rectangle_poly(l, pt, p):
    total = Fraction(1)
    for i in range(l):
        for x in pt:
            total *= x * x - (i + p.alpha) ** 2
    return total


def test_det_exact_matches_gaussian_elimination():
    # a zero leading pivot, a zero pivot after one step, singular matrices
    cases = [
        [[0, 1], [1, 0]],
        [[0, 0], [1, 2]],
        [[1, 2], [2, 4]],
        [[1, 1, 1], [1, 1, 2], [2, 3, 5]],
        [[0, 1, 2], [1, 0, 3], [4, 5, 0]],
        [[7]],
        [[0]],
        [],
    ]
    rng = random.Random(3)
    for _ in range(400):
        size = rng.randint(1, 5)
        cases.append([[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(size)] for _ in range(size)])
    for m in cases:
        want = reference_det(m)
        assert _det_exact([list(r) for r in m]) == want
    assert sum(reference_det(m) == 0 for m in cases) > 50


ORACLE_ALPHAS = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(7, 12), Fraction(0))


def oracle_points(rng, n, alpha, shifts):
    """Random points with negative coordinates and denominators 1..4, and
    points whose x_0 is +-(alpha + i), i < shifts: a zero of the factor
    x^2 - (i + alpha)^2."""
    pts = [tuple(Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4))) for _ in range(n)) for _ in range(4)]
    for i in range(shifts):
        pts.append((alpha + i, *pts[0][1:]))
        pts.append((-alpha - i, *pts[1][1:]))
    return pts


def test_det_formula_tau1_matches_the_fraction_reference():
    rng = random.Random(11)
    swapped = singular = 0
    for n in (1, 2, 3, 4):
        for alpha in ORACLE_ALPHAS:
            for lam in enumerate_Lambda(n, 3 if n < 4 else 2):
                padded = lam + (0,) * (n - len(lam))
                kappa = [padded[j] + (n - 1 - j) for j in range(n)]
                for pt in oracle_points(rng, n, alpha, kappa[0]):
                    if len({x * x for x in pt}) < n:
                        with pytest.raises(DomainError):
                            det_formula_tau1(lam, pt, alpha)
                        continue
                    got = det_formula_tau1(lam, pt, alpha)
                    assert isinstance(got, Fraction)
                    assert got == reference_det_formula_tau1(lam, pt, alpha)
                    x0 = pt[0]
                    if n > 1 and rank1_poly(kappa[0], x0, alpha) == 0 != rank1_poly(kappa[1], x0, alpha):
                        swapped += 1  # entry (0, 0) vanishes, entry (0, 1) does not
                    if rank1_poly(kappa[-1], x0, alpha) == 0:
                        assert got == 0  # row 0 vanishes
                        singular += 1
    assert swapped > 20 and singular > 20


def test_det_formula_tau1_matches_eval_where_a_pivot_vanishes():
    # kappa = (2, 0): x_0 = alpha + 1 zeroes entry (0, 0) only
    for alpha in (Fraction(1, 3), Fraction(-3, 4)):
        p = Params(2, Fraction(1), alpha)
        pt = (alpha + 1, Fraction(-7, 4))
        got = det_formula_tau1((1,), pt, alpha)
        assert got != 0 and got == okounkov_eval((1,), pt, p)


def test_column_and_rectangle_forms_match_the_fraction_reference():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        for tau in (Fraction(1), Fraction(2, 3), Fraction(-1, 4)):
            for alpha in ORACLE_ALPHAS:
                p = Params(n, tau, alpha)
                for pt in oracle_points(rng, n, alpha, 2):
                    for j in range(1, n + 1):
                        want = reference_column_poly(j, pt, p)
                        assert want == reference_column_poly_gf(j, pt, p)
                        assert column_poly(j, pt, p) == want == column_poly_gf(j, pt, p)
                    for l in range(4):
                        assert rectangle_poly(l, pt, p) == reference_rectangle_poly(l, pt, p)


# ---------------------------------------------------------------- the k constant


def test_k_constant_small_values():
    assert k_constant((), Fraction(1, 2)) == 1
    assert k_constant((1, 1), Fraction(1, 2)) == Fraction(3, 2)
    tau = Fraction(5, 3)
    assert k_constant((2, 1), tau) == tau + 2


def test_k_constant_alt_agrees():
    for n in (1, 2, 3):
        for d in (1, 2, 4):
            for mu in enumerate_Lambda(n, 4):
                assert k_constant_alt(mu, d, n) == k_constant(mu, Fraction(d, 2))


def reference_k_constant(mu, tau):
    """prod over cells of (tau leg + arm + 1), cell by cell in Fractions."""
    out = Fraction(1)
    for s in cells(mu):
        out *= tau * leg(mu, s) + arm(mu, s) + 1
    return out


def test_k_constant_equals_the_fraction_reference():
    for n in (1, 2, 3, 4):
        for mu in enumerate_Lambda(n, 6):
            for tau in (Fraction(1, 3), Fraction(2, 5), Fraction(1), Fraction(3, 2), Fraction(3)):
                assert k_constant(mu, tau) == reference_k_constant(mu, tau), (mu, tau)
            for d in (1, 2, 3, 4):
                assert k_constant_alt(mu, d, n) == k_constant(mu, Fraction(d, 2)), (mu, d, n)


def test_k_constant_alt_rejects():
    with pytest.raises(DomainError):
        k_constant_alt((1,), 0, 2)
    with pytest.raises(DomainError):
        k_constant_alt((1, 1, 1), 2, 2)


# ---------------------------------------------------------------- characterization


def test_characterization_reports_clean():
    for n, tau, alpha in ((1, Fraction(1), Fraction(1, 2)), (2, Fraction(1), Fraction(1, 2)), (2, Fraction(1, 2), Fraction(1))):
        p = Params(n, tau, alpha)
        for lam in enumerate_Lambda(n, 3):
            rep = verify_characterization(lam, p)
            assert rep["ok"], rep
            assert rep["zero_failures"] == []
            assert rep["extra_failures"] == []
            assert rep["self_nonzero"]
            assert rep["zero_checked"] == sum(1 for mu in enumerate_Lambda(n, weight(lam))) - 1


def test_characterization_guard():
    with pytest.raises(DomainError):
        verify_characterization((5, 4), P_HALF)


# ---------------------------------------------------------------- expansion


def test_expand_single_box_json():
    poly = okounkov_expand((1,), P_HALF)
    assert poly.to_json() == {
        "n": 2,
        "terms": [{"exp": [1, 0], "coeff": "1"}, {"exp": [0, 0], "coeff": "-5/2"}],
    }


EXPAND_PARAMS = [
    (Fraction(1), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1)),
    (Fraction(3, 2), Fraction(1, 3)),
    (Fraction(2, 3), Fraction(1, 7)),
]
# the largest weight expanded against eval, by rank
EXPAND_WEIGHTS = {1: 6, 2: 6, 3: 5, 4: 4}


def test_expand_evaluates_like_eval():
    for n, w in EXPAND_WEIGHTS.items():
        for tau, alpha in EXPAND_PARAMS:
            p = Params(n, tau, alpha)
            pts = rational_points(n, 3, seed=17 + n)
            for lam in enumerate_Lambda(n, w):
                poly = okounkov_expand(lam, p)
                assert poly.degree() == weight(lam)
                for pt in pts:
                    # expand and eval share the compiled terms, so naive_eval
                    # is the independent check
                    want = naive_eval(lam, pt, p)
                    assert poly.evaluate(pt) == okounkov_eval(lam, pt, p) == want, (n, tau, alpha, lam, pt)


def test_expand_needs_only_own_tableau_terms():
    # At tau = -1, alpha = 1/2 a lattice interpolation of P_lam would fail on
    # other partitions: the node of (1) is a zero of P_(1) in rank 2, and the
    # branching weights of (2) have a pole in rank 3. The expansion of P_lam
    # needs only lam's own tableau terms.
    for n, lam in ((2, (1,)), (3, (1, 1))):
        p = Params(n, Fraction(-1), Fraction(1, 2))
        poly = okounkov_expand(lam, p)
        for pt in rational_points(n, 4, seed=5):
            assert poly.evaluate(pt) == okounkov_eval(lam, pt, p)


def test_expand_top_coefficient_is_one():
    poly = okounkov_expand((2, 1), P_HALF)
    assert poly.coefficient((2, 1)) == 1


def test_expand_guard():
    assert EXPAND_WEIGHT_GUARD == 8
    with pytest.raises(DomainError):
        okounkov_expand((5, 4), P_HALF)


# ---------------------------------------------------------------- interpolation


def test_interpolate_round_trip():
    target = SymEvenPoly(2, {(2, 0): Fraction(3), (1, 1): Fraction(-1, 2), (0, 0): Fraction(7, 5)})
    vals = {mu: target.evaluate(P_HALF.node(mu)) for mu in enumerate_Lambda(2, 2)}
    got = interpolate_from_values(vals, 2, P_HALF)
    assert got.coeffs == target.coeffs
    # every monomial of y-degree <= 3 in rank 3, so every P_mu of the
    # back-substitution gets a nonzero coefficient
    p = Params(3, Fraction(1, 2), Fraction(3, 2))
    exps = [mu + (0,) * (3 - len(mu)) for mu in enumerate_Lambda(3, 3)]
    target = SymEvenPoly(3, {e: Fraction((-1) ** k * (k + 2), k + 1) for k, e in enumerate(exps)})
    assert len(target.coeffs) == 20
    vals = {mu: target.evaluate(p.node(mu)) for mu in enumerate_Lambda(3, 3)}
    got = interpolate_from_values(vals, 3, p)
    assert got.coeffs == target.coeffs


def test_interpolate_missing_values():
    vals = {(): Fraction(1)}
    with pytest.raises(DomainError):
        interpolate_from_values(vals, 1, P_HALF)


def test_interpolate_detects_non_generic_tau():
    # tau = -1, alpha = 1/2 collapses the node of (1) onto a zero of P_(1)
    p = Params(2, Fraction(-1), Fraction(1, 2))
    vals = {mu: Fraction(0) for mu in enumerate_Lambda(2, 1)}
    with pytest.raises(DomainError):
        interpolate_from_values(vals, 1, p)


# ---------------------------------------------------------------- SymEvenPoly


def test_sym_poly_closes_under_permutation():
    poly = SymEvenPoly(2, {(1, 0): Fraction(2)})
    assert poly.coefficient((0, 1)) == 2


def test_sym_poly_drops_zero_coeffs():
    poly = SymEvenPoly(2, {(1, 1): Fraction(0)})
    assert poly.coeffs == {}
    assert poly.degree() == 0


def test_sym_poly_rejects_asymmetry():
    with pytest.raises(DomainError):
        SymEvenPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(2)})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trusted_expansions_equal_validated_ones(n):
    # okounkov_expand and interpolate_from_values build their coefficient
    # maps as __init__ would leave them: re-validating changes nothing
    p = Params(n, Fraction(2, 3), Fraction(3, 5))
    for lam in enumerate_Lambda(n, 5):
        got = okounkov_expand(lam, p)
        want = SymEvenPoly(n, got.coeffs)
        assert got.coeffs == want.coeffs, lam
        assert all(type(c) is Fraction and c != 0 for c in got.coeffs.values()), lam
    rng = random.Random(n)
    for d in (2, 3):
        vals = {mu: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for mu in enumerate_Lambda(n, d)}
        got = interpolate_from_values(vals, d, p)
        assert got.coeffs == SymEvenPoly(n, got.coeffs).coeffs, d
        assert all(got.evaluate(p.node(mu)) == v for mu, v in vals.items()), d


def test_sym_poly_rejects_bad_exponents():
    with pytest.raises(DomainError):
        SymEvenPoly(2, {(1,): Fraction(1)})
    with pytest.raises(DomainError):
        SymEvenPoly(2, {(-1, 0): Fraction(1)})


def test_sym_poly_evaluate_checks_length():
    poly = SymEvenPoly(2, {(1, 0): Fraction(1)})
    with pytest.raises(DomainError):
        poly.evaluate((Fraction(1),))


def test_expand_closed_orbits_at_rank_8():
    # every exponent orbit of this expansion arrives complete, so the
    # symmetry check needs no permutations
    p = Params(8, Fraction(1, 2), Fraction(1))
    lam = (1,) * 8
    poly = okounkov_expand(lam, p)
    pt = tuple(Fraction(k, k + 2) for k in range(8))
    assert poly.evaluate(pt) == okounkov_eval(lam, pt, p)
