"""Filtered sign decisions at exact points: the float filter in in_G and
in_A_certified must give the verdict and witness of the pure-exact oracle,
fall back to exact arithmetic where the float sum cannot decide, and keep
the deadband rule at float points."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcinterp.rank2 as rank2
import bcinterp.shimura as shimura
from bcinterp.exactnum import SIGN_DEADBAND, DomainError
from bcinterp.okounkov import Params, _compiled_terms, _float_sum, okounkov_eval
from bcinterp.partitions import enumerate_Lambda, weight
from bcinterp.rank2 import in_B
from bcinterp.shimura import (
    GroupData,
    Verdict,
    _filter_table,
    group_params,
    in_A_certified,
    in_G,
    q_poly,
)

GROUPS = [GroupData(2, 2, 0), GroupData(2, 4, 3), GroupData(2, 1, 1), GroupData(2, 3, 1, p=1)]
# Group parameters are half-integers, so their lattice nodes are exact
# floats and the float sum there is often exactly 0. Non-dyadic parameters
# put roundoff into every node, where P_lam still vanishes exactly.
RANK2 = [group_params(g) for g in GROUPS] + [
    Params(2, Fraction(1, 3), Fraction(2, 5)),
    Params(2, Fraction(5, 7), Fraction(3, 11)),
]
RANK3 = [group_params(GroupData(3, 2, 1)), Params(3, Fraction(2, 3), Fraction(1, 7))]
coords_st = st.fractions(min_value=-7, max_value=7, max_denominator=12)


def oracle_A(pt, p, max_weight):
    """in_A_certified by the sign of the exact okounkov_eval value only."""
    for lam in enumerate_Lambda(p.n, max_weight):
        if lam and q_poly(lam, pt, p) < 0:
            return Verdict(False, lam, max_weight)
    return Verdict(True, None, max_weight)


def oracle_G(pt, p):
    """in_G through q_poly(1^j) = (-1)^j P_{1^j}, the tableau sum."""
    for j in range(1, p.n + 1):
        if q_poly((1,) * j, pt, p) < 0:
            return Verdict(False, j, p.n)
    return Verdict(True, None, p.n)


def assert_agrees(pt, p):
    for w in (6, 8) if p.n == 2 else (4,):
        assert in_A_certified(pt, p, w) == oracle_A(pt, p, w), (pt, w)
    assert in_G(pt, p) == oracle_G(pt, p), pt


def nodes(p, max_weight=4):
    return [p.node(mu) for mu in enumerate_Lambda(p.n, max_weight)]


@pytest.fixture
def exact_calls(monkeypatch):
    """Count the exact re-decisions of in_A_certified and in_G."""
    calls = {"A": 0, "G": 0}
    eval_, phi = shimura.okounkov_eval, shimura.phi_j

    def counted_eval(*args):
        calls["A"] += 1
        return eval_(*args)

    def counted_phi(*args):
        calls["G"] += 1
        return phi(*args)

    monkeypatch.setattr(shimura, "okounkov_eval", counted_eval)
    monkeypatch.setattr(shimura, "phi_j", counted_phi)
    return calls


@pytest.mark.parametrize("p", RANK2 + RANK3)
def test_agrees_at_lattice_nodes(p, exact_calls):
    for pt in nodes(p):
        assert_agrees(pt, p)
    # P_lam vanishes exactly at mu + rho unless lam is inside mu, so the
    # float sum cannot decide there and the exact value must have been used
    assert exact_calls["A"] > 0
    assert exact_calls["G"] > 0


def test_fallback_runs_at_rho(exact_calls):
    p = group_params(GroupData(2, 2, 0))
    assert in_G(p.rho, p).member
    assert exact_calls["G"] == 2  # phi_1 and phi_2 both vanish at rho
    assert in_A_certified(p.rho, p, 6).member
    assert exact_calls["A"] >= len(enumerate_Lambda(2, 6)) - 1


def test_generic_point_needs_no_fallback(exact_calls):
    p = group_params(GroupData(2, 4, 3))
    pt = (Fraction(1, 3), Fraction(1, 7))
    assert in_A_certified(pt, p, 8).member
    assert in_G(pt, p).member
    assert exact_calls == {"A": 0, "G": 0}


@pytest.mark.parametrize("p", RANK2)
def test_agrees_just_off_zeros(p):
    eps = Fraction(1, 10**20)
    for x1, x2 in nodes(p):
        for d1, d2 in ((eps, 0), (-eps, 0), (0, eps), (0, -eps), (eps, -eps)):
            assert_agrees((x1 + d1, x2 + d2), p)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(RANK2), x1=coords_st, x2=coords_st)
def test_agrees_at_random_rationals(p, x1, x2):
    assert_agrees((x1, x2), p)


@settings(max_examples=20, deadline=None)
@given(p=st.sampled_from(RANK3), x=st.tuples(coords_st, coords_st, coords_st))
def test_agrees_at_random_rationals_rank3(p, x):
    assert_agrees(x, p)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(RANK2), x1=coords_st, x2=coords_st)
def test_float_sum_within_bound(p, x1, x2):
    # the a-priori bound itself: |S - E| <= gamma * M at rounded exact points
    sq = [float(x) * float(x) for x in (x1, x2)]
    for lam in enumerate_Lambda(2, 8)[1:]:
        fterms, gamma, floor = _filter_table(_compiled_terms(lam, p))
        assert floor <= min([y for y in sq if y] + [1.0])
        total, _, mag = _float_sum(fterms, sq)
        exact = okounkov_eval(lam, (x1, x2), p)
        assert abs(Fraction(total) - exact) <= Fraction(gamma * mag), lam


@pytest.mark.parametrize(
    "pt",
    [
        (Fraction(10**400), Fraction(1)),
        (Fraction(10**400, 3), Fraction(-(10**399))),
        (Fraction(1, 10**400), Fraction(0)),
        (Fraction(3, 2) + Fraction(1, 10**400), Fraction(1, 10**400)),
        (Fraction(0), Fraction(0)),
    ],
)
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
    # an overflowing scale used to turn the deadband test into -inf < -inf
    # and report a member; those points get the exact decision at their
    # exact rational value
    p = group_params(GroupData(2, 2, 0))
    exact = tuple(Fraction(x) for x in pt)
    assert in_G(pt, p) == oracle_G(exact, p) == Verdict(False, 1, 2)
    assert in_A_certified(pt, p, 6) == oracle_A(exact, p, 6) == Verdict(False, (1,), 6)


@pytest.mark.parametrize("pt", [(Fraction(10**400), 0.5), (0.5, Fraction(-(10**400))), (Fraction(10**400, 3), 1e300)])
def test_mixed_points_beyond_float_range(pt, exact_calls):
    # float() of the exact coordinate used to raise OverflowError; the
    # point is decided exactly at its rational value
    p = group_params(GroupData(2, 2, 0))
    got_G, got_A = in_G(pt, p), in_A_certified(pt, p, 6)
    assert exact_calls == {"A": 1, "G": 1}
    exact = shimura._exact_point(pt)
    assert got_G == oracle_G(exact, p) == Verdict(False, 1, 2)
    assert got_A == oracle_A(exact, p, 6) == Verdict(False, (1,), 6)
    assert rank2._gates_fail(*exact, *rank2._rho_constants(p.rho)[:4])
    assert in_B(pt, 2, p.rho) is False


@pytest.mark.parametrize("pt", [(float("inf"), 0.0), (float("nan"), 0.0), (0.5, float("-inf")), (Fraction(1, 2), float("nan"))])
def test_non_finite_coordinates_are_domain_errors(pt):
    p = group_params(GroupData(2, 2, 0))
    with pytest.raises(DomainError, match="finite"):
        in_G(pt, p)
    with pytest.raises(DomainError, match="finite"):
        in_A_certified(pt, p, 6)


def deadband_q(lam, pt, p):
    """q_lam at a float point and its deadband scale, with Fraction psi
    times float factors for the value and sum_T |psi_T| prod |x^2 - c^2|
    for the scale; independent of _float_sum."""
    sq = [x * x for x in pt]
    total = 0
    scale = 0.0
    for psi, facs in _compiled_terms(lam, p):
        prod = psi
        mag = abs(float(psi))
        for idx, csq in facs:
            fac = sq[idx] - csq
            prod = prod * fac
            mag = mag * abs(float(fac))
        total = total + prod
        scale += mag
    sign = -1 if weight(lam) % 2 else 1
    return sign * total, scale


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(RANK2), x1=coords_st, x2=coords_st)
def test_float_points_keep_deadband_rule(p, x1, x2):
    pt = (float(x1), float(x2))
    want = Verdict(True, None, 6)
    for lam in enumerate_Lambda(2, 6)[1:]:
        value, scale = deadband_q(lam, pt, p)
        if value < -SIGN_DEADBAND * (1.0 + scale):
            want = Verdict(False, lam, 6)
            break
    assert in_A_certified(pt, p, 6) == want


def test_wrong_length_is_domain_error():
    p = group_params(GroupData(3, 2, 1))
    with pytest.raises(DomainError, match="point has length 2, expected 3"):
        in_G((Fraction(1), Fraction(0)), p)
    with pytest.raises(DomainError, match="point has length 2, expected 3"):
        in_A_certified((Fraction(1), Fraction(0)), p, 4)
