import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcinterp.exactnum import (
    DomainError,
    PoleError,
    _ascending_axis,
    _gamma_quotient,
    as_exact,
    gen_pochhammer,
    is_exact,
    log_gamma,
    poch_pm,
    poch_rising,
)

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def test_rising_basic():
    assert poch_rising(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert poch_rising(5, 0) == 1
    assert poch_rising(-2, 4) == 0


def test_rising_rejects_negative_k():
    with pytest.raises(DomainError):
        poch_rising(1, -1)


@given(small_fractions, st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_rising_splits_at_any_point(a, j, k):
    assert poch_rising(a, j + k) == poch_rising(a, j) * poch_rising(a + j, k)


def test_poch_pm_is_two_sided():
    a, x = Fraction(3, 2), Fraction(1, 3)
    assert poch_pm(a, x, 2) == poch_rising(a + x, 2) * poch_rising(a - x, 2)
    assert poch_pm(a, x, 0) == 1


def test_gen_pochhammer_single_row_reduces_to_rising():
    a = Fraction(5, 4)
    for d in (1, 2, 3):
        assert gen_pochhammer(a, (3,), d) == poch_rising(a, 3)


def test_gen_pochhammer_two_rows():
    # second row is shifted down by d/2
    a = Fraction(2)
    got = gen_pochhammer(a, (2, 1), 3)
    assert got == poch_rising(a, 2) * poch_rising(a - Fraction(3, 2), 1)


def test_gen_pochhammer_empty():
    assert gen_pochhammer(Fraction(1, 3), (), 2) == 1


def test_floats_pass_through():
    v = poch_rising(0.5, 2)
    assert isinstance(v, float)
    assert v == pytest.approx(0.75)


def test_log_gamma_matches_math_gamma():
    for t in (0.5, 1.0, 2.25, 7.5):
        lg, sign = log_gamma(t)
        assert sign == 1
        assert math.exp(lg) == pytest.approx(math.gamma(t), rel=1e-12)


def test_log_gamma_negative_sign_alternates():
    # Gamma is negative on (-1,0), positive on (-2,-1), then alternates
    assert log_gamma(-0.5)[1] == -1
    assert log_gamma(-1.5)[1] == 1
    assert log_gamma(-2.5)[1] == -1


def test_log_gamma_reflection_check():
    # Gamma(t)Gamma(1-t) = pi/sin(pi t)
    t = -0.3
    la, sa = log_gamma(t)
    lb, sb = log_gamma(1 - t)
    got = sa * sb * math.exp(la + lb)
    assert got == pytest.approx(math.pi / math.sin(math.pi * t), rel=1e-12)


def test_log_gamma_pole():
    for t in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            log_gamma(t)


def test_exactness_predicates():
    assert is_exact(3) and is_exact(Fraction(1, 3)) and not is_exact(0.5)
    assert as_exact(7) == Fraction(7)
    with pytest.raises(DomainError):
        as_exact(0.5)


def test_gamma_quotient_poles():
    # Gamma(1/2)^2 / (Gamma(1) Gamma(-1/2)) = pi / (-2 sqrt(pi)) = -sqrt(pi)/2
    assert _gamma_quotient((0.5, 0.5), (1.0, -0.5)) == pytest.approx(-math.sqrt(math.pi) / 2, rel=1e-12)
    assert _gamma_quotient((), ()) == 1.0
    # a pole of a denominator Gamma is a zero of the quotient
    assert _gamma_quotient((0.5,), (0.0,)) == 0.0
    assert _gamma_quotient((Fraction(1, 2),), (1.0, Fraction(-3))) == 0.0
    # a pole of a numerator Gamma raises, with or without one below
    for dens in ((1.0,), (-2.0,)):
        with pytest.raises(PoleError):
            _gamma_quotient((2.5, -1.0), dens)
    # no tolerance: a hair off the pole is a finite value
    assert 0.0 < abs(_gamma_quotient((1.0,), (1e-13,))) < 1e-12


def test_ascending_axis_is_one_denominator_over_the_exact_values():
    # ints and Fractions mixed, a negative value, a tie of 0 and Fraction(0),
    # and values of 10^+-400, far past float range
    big, tiny = Fraction(10**400), Fraction(1, 10**400)
    axis = [-big, -3, Fraction(-1, 3), 0, Fraction(0), tiny, Fraction(2, 7), 1, Fraction(10**400 + 1, 3), big]
    q, nums = _ascending_axis(axis)
    assert q == 3 * 7 * 10**400
    assert all(type(a) is int for a in nums)
    assert [Fraction(a, q) for a in nums] == axis
    assert _ascending_axis([]) == (1, [])
    with pytest.raises(DomainError, match="ascending"):
        _ascending_axis([0, tiny, Fraction(0)])
    with pytest.raises(DomainError, match="exact"):
        _ascending_axis([0, 0.5])
