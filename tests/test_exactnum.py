import math
from fractions import Fraction

import pytest

from bcinterp.exactnum import (
    DomainError,
    PoleError,
    _ascending_axis,
    _gamma_quotient,
    as_exact,
    is_exact,
    log_gamma,
)


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
