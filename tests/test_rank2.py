import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcinterp import limits, rank2, shimura
from bcinterp.cli import main
from bcinterp.exactnum import (SIGN_DEADBAND, DomainError, PoleError, _cells, _check_int, _check_length,
                               _gamma_quotient, _over_common, as_exact)
from bcinterp.limits import in_W
from bcinterp.okounkov import Params
from bcinterp.rank2 import (
    Rank2Regions,
    R_midpoint_telescoped,
    R_series,
    in_B,
    in_B_raster,
    q_rank2,
    q_rank2_partial_d2,
)
from bcinterp.shimura import q_poly

RHO_SU22 = (Fraction(3, 2), Fraction(1, 2))


# ---------------------------------------------------------------- references
# The Fraction and float references of q_rank2 and R_series, written apart
# from the integer kernels they check; each keeps the library's argument
# rules, so a bad argument fails here as it does there.


def poch_rising(a, k: int):
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); empty product for k = 0."""
    _check_int("k", k)
    return math.prod(a + i for i in range(k))


def poch_pm(a, x, k: int):
    """The symmetric product (a+x)_k (a-x)_k."""
    return poch_rising(a + x, k) * poch_rising(a - x, k)


def hyp_sum(upper, lower, truncation: int) -> Fraction:
    """The terminating hypergeometric sum at unit argument
    sum_{k <= truncation} prod(upper)_k / (prod(lower)_k k!), in exact
    arithmetic: every parameter must be exact and truncation a nonnegative
    integer, or ArgumentError is raised.

    The sum stops at its first zero term, where a nonpositive-integer upper
    parameter terminates the series; a lower parameter reaching zero under
    a live term is a pole (PoleError).
    """
    _check_int("truncation", truncation)
    upper = [as_exact(v) for v in upper]
    lower = [as_exact(v) for v in lower]
    term = total = Fraction(1)
    for k in range(truncation):
        num = term * math.prod(u + k for u in upper)
        if num == 0:
            break
        den = (k + 1) * math.prod(l + k for l in lower)
        if den == 0:
            raise PoleError(f"lower parameter hits zero at term {k + 1}")
        term = num / den
        total += term
    return total


def R_closed_form_b0(pt) -> float:
    """Gamma-quotient value of the boundary series for the b=0, d=2 pair
    rho = (3/2, 1/2) (Whipple's sum). A pole of a denominator Gamma gives
    0.0; one of Gamma(rho1 +- x1), where the series has its pole, raises
    PoleError."""
    _check_length(pt, 2)
    x1, x2 = map(float, pt)
    r1, r2 = 1.5, 0.5
    den_args = [
        (r1 + r2 + x1 + x2) / 2.0,
        (r1 + r2 + x1 - x2) / 2.0,
        (r1 + r2 - x1 + x2) / 2.0,
        (r1 + r2 - x1 - x2) / 2.0,
    ]
    return math.pi / 2.0 * _gamma_quotient((r1 + x1, r1 - x1), den_args)


def test_rising_basic():
    assert poch_rising(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert poch_rising(5, 0) == 1
    assert poch_rising(-2, 4) == 0


@given(st.fractions(min_value=-6, max_value=6, max_denominator=4), st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=5))
def test_rising_splits_at_any_point(a, j, k):
    assert poch_rising(a, j + k) == poch_rising(a, j) * poch_rising(a + j, k)


def test_poch_pm_is_two_sided():
    a, x = Fraction(3, 2), Fraction(1, 3)
    assert poch_pm(a, x, 2) == poch_rising(a + x, 2) * poch_rising(a - x, 2)
    assert poch_pm(a, x, 0) == 1


def test_truncated_sum_is_exact():
    # Chu-Vandermonde: 2F1(-2, 1/2; 1) = (1/2)_2 / (1)_2
    got = hyp_sum((Fraction(-2), Fraction(1, 2)), (Fraction(1),), 2)
    assert got == Fraction(3, 8)
    assert isinstance(got, Fraction)


def test_terminating_upper_parameter_stops_series():
    # a truncation past the terminating index adds nothing
    got = hyp_sum((-2, Fraction(1, 2)), (1,), 6)
    assert got == Fraction(3, 8) and isinstance(got, Fraction)
    # the whole tail dies with the zero term
    assert hyp_sum((-1,), (), 5) == 0


def test_terminating_beats_lower_pole():
    # upper kills the series at k=1, before the lower parameter reaches zero
    assert hyp_sum((Fraction(-1), Fraction(5)), (Fraction(-2),), 4) == Fraction(7, 2)


def test_float_parameter_and_negative_truncation_rejected():
    with pytest.raises(DomainError):
        hyp_sum((1,), (2,), -1)
    with pytest.raises(DomainError, match="exact"):
        hyp_sum((0.5,), (Fraction(3, 2),), 3)
    with pytest.raises(DomainError, match="exact"):
        hyp_sum((Fraction(1, 2),), (1.5,), 3)


def test_lower_pole_raises():
    with pytest.raises(PoleError):
        hyp_sum((Fraction(1, 2), Fraction(1, 3)), (Fraction(-2),), 5)


# ---------------------------------------------------------------- q_rank2


def rank2_setups():
    for d in (1, 2, 3):
        rho2 = Fraction(3, 4)
        yield d, (rho2 + Fraction(d, 2), rho2)


def test_q_rank2_matches_tableau_sum():
    rng = random.Random(21)
    for d, rho in rank2_setups():
        p = Params(2, Fraction(d, 2), rho[1])
        for m1 in range(4):
            for m2 in range(m1 + 1):
                done = 0
                while done < 4:
                    pt = (
                        Fraction(rng.randint(-10, 10), rng.choice((1, 2, 3, 4))),
                        Fraction(rng.randint(-10, 10), rng.choice((1, 2, 3, 4))),
                    )
                    try:
                        got = q_rank2(m1, m2, pt, d, rho)
                    except PoleError:
                        continue
                    assert got == q_poly((m1, m2), pt, p)
                    done += 1


def test_q_rank2_partial_d2_agrees():
    rng = random.Random(4)
    rho = (Fraction(7, 4), Fraction(3, 4))
    for m1 in range(4):
        for m2 in range(m1 + 1):
            done = 0
            while done < 4:
                pt = (
                    Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3))),
                    Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3))),
                )
                try:
                    a = q_rank2(m1, m2, pt, 2, rho)
                    b = q_rank2_partial_d2(m1, m2, pt, rho)
                except PoleError:
                    continue
                assert a == b
                done += 1


def test_q_rank2_validation():
    pt = (Fraction(1), Fraction(0))
    with pytest.raises(DomainError):
        q_rank2(1, 2, pt, 2, RHO_SU22)
    with pytest.raises(DomainError):
        q_rank2(2, 1, pt, 0, RHO_SU22)
    with pytest.raises(DomainError):
        q_rank2(2, 1, pt, 2, (Fraction(2), Fraction(1, 2)))
    with pytest.raises(DomainError):
        q_rank2_partial_d2(2, 1, pt, (Fraction(2), Fraction(1, 2)))


def _q_reference(m1, m2, pt, d, rho):
    """q_rank2 as Pochhammer prefactor times hyp_sum, in Fractions; d = None
    gives q_rank2_partial_d2."""
    (r1, r2), (x1, x2), big_m = rho, pt, m1 - m2
    pref = poch_pm(r2, x1, m2) * poch_pm(r2, x2, m2) * poch_pm(m2 + r1, x1, big_m)
    upper, lower = (m2 + r2 + x2, m2 + r2 - x2), (m2 + r1 + x1, m2 + r1 - x1)
    if d is None:
        return pref * hyp_sum((*upper, 1), lower, big_m)
    half = Fraction(d, 2)
    return pref * hyp_sum((-big_m, *upper, half), (1 - big_m - half, *lower), big_m)


def _value_or_pole(f, *args):
    try:
        return f(*args)
    except PoleError as exc:
        return "PoleError", str(exc)


def test_q_rank2_equals_the_fraction_reference():
    rng = random.Random(11)
    poles = 0
    for _ in range(3000):
        d = rng.randint(1, 3)
        m1 = rng.randint(0, 6)
        m2 = rng.randint(0, m1)
        r2 = Fraction(rng.randint(-8, 12), rng.choice((1, 2, 3, 4, 6)))
        pt = tuple(Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 5))) for _ in range(2))
        rho = (r2 + Fraction(d, 2), r2)
        got = _value_or_pole(q_rank2, m1, m2, pt, d, rho)
        assert got == _value_or_pole(_q_reference, m1, m2, pt, d, rho), (m1, m2, pt, d, rho)
        rho = (r2 + 1, r2)
        got_d2 = _value_or_pole(q_rank2_partial_d2, m1, m2, pt, rho)
        assert got_d2 == _value_or_pole(_q_reference, m1, m2, pt, None, rho), (m1, m2, pt, rho)
        poles += isinstance(got, tuple) + isinstance(got_d2, tuple)
    assert poles > 0


def test_q_rank2_pole_propagates():
    # lower parameter m2 + rho1 - x1 = -1 dies inside the live series
    with pytest.raises(PoleError):
        q_rank2(3, 1, (Fraction(15, 4), Fraction(1, 4)), 2, (Fraction(7, 4), Fraction(3, 4)))


# ---------------------------------------------------------------- the boundary series


def test_R_series_at_origin_b0():
    # sum of 1/(2k+1)^2 = pi^2/8
    got = R_series((0.0, 0.0), 2, (1.5, 0.5))
    assert abs(got - math.pi ** 2 / 8.0) < 1e-10


def test_R_series_vanishes_at_corner_node():
    assert abs(R_series((1.0, 1.0), 2, (1.5, 0.5))) < 1e-8
    assert R_closed_form_b0((1.0, 1.0)) == 0.0


def _series_parameters(pt, d, rho):
    """(u, l, s) of the boundary series at pt and rho, each coordinate at its
    exact value, as R_series and in_B round them."""
    _, r1, r2, s, _ = rank2._series_constants(d, tuple(map(Fraction, rho)))
    q, (r1, r2, x1, x2) = _over_common((r1, r2, *map(Fraction, pt)))
    return (*rank2._series_args(x1, x2, q, r1, r2, d), s)


def test_R_series_matches_reference_values():
    mp = pytest.importorskip("mpmath")
    cases = [
        ((0.3, 0.1), 1, (1.25, 0.75)),
        ((1.1, 0.4), 1, (1.25, 0.75)),
        ((0.7, 0.2), 2, (1.5, 0.5)),
        ((1.4, 1.3), 2, (1.5, 0.5)),
        ((0.9, 0.6), 3, (2.25, 0.75)),
        ((2.2, 0.1), 3, (2.25, 0.75)),
    ]
    for pt, d, rho in cases:
        x1, x2 = pt
        r1, r2 = rho
        with mp.workdps(25):
            ref = mp.hyper(
                [r2 + x2, r2 - x2, d / 2.0],
                [r1 + x1, r1 - x1],
                1,
            )
            assert abs(R_series(pt, d, rho) - float(ref)) <= 5e-12 * (1 + abs(float(ref)))
            value, radius = rank2._R_enclosure(*_series_parameters(pt, d, rho))
            assert abs(mp.mpf(value) - ref) <= radius, (pt, d, rho)


def test_R_series_agrees_with_gamma_quotient():
    for pt in [(0.2, 0.1), (0.8, 0.3), (1.2, 0.9), (1.45, 0.2)]:
        assert abs(R_series(pt, 2, (1.5, 0.5)) - R_closed_form_b0(pt)) < 1e-8


def test_R_series_rejects_bad_parameters():
    with pytest.raises(DomainError):
        R_series((1.5, 0.0), 2, (1.5, 0.5))  # parameter pole at x1 = rho1
    with pytest.raises(DomainError):
        R_series((0.0, 0.0), 2, (1.0, 1.0))  # s = 1: not summable
    with pytest.raises(DomainError):
        R_series((0.0, 0.0), 0, (1.5, 0.5))


@pytest.mark.parametrize("pt", [(0.0, math.inf), (0.0, math.nan), (math.nan, 0.0)])
def test_R_series_rejects_non_finite_coordinates(pt):
    # every comparison with nan is false, so these used to pass the
    # parameter checks and sum to nan
    with pytest.raises(DomainError, match="finite"):
        R_series(pt, 2, (1.5, 0.5))


def test_midpoint_telescoped_values():
    assert R_midpoint_telescoped(0) == 0.0
    assert R_midpoint_telescoped(1) == float(Fraction(-5, 18))
    for b in (1, 2, 3):
        assert R_midpoint_telescoped(b) < 0
    with pytest.raises(DomainError):
        R_midpoint_telescoped(-1)


def test_midpoint_matches_series():
    for b in range(4):
        rho2 = (b + 1) / 2.0
        mid = (b + 2) / 2.0
        got = R_series((mid, mid), 2, (rho2 + 1.0, rho2))
        assert abs(got - R_midpoint_telescoped(b)) < 1e-8


def test_partial_sums_decrease_to_R_in_open_square():
    rho = RHO_SU22
    for pt in [(Fraction(1), Fraction(3, 4)), (Fraction(5, 4), Fraction(11, 10)), (Fraction(3, 4), Fraction(3, 5))]:
        x1, x2 = pt
        upper = (rho[1] + x2, rho[1] - x2, Fraction(1))
        lower = (rho[0] + x1, rho[0] - x1)
        limit = R_series((float(x1), float(x2)), 2, (float(rho[0]), float(rho[1])))
        partials = [hyp_sum(upper, lower, m) for m in range(11)]
        assert partials[0] == 1
        for a, b in zip(partials, partials[1:]):
            assert b < a
        for v in partials:
            assert float(v) >= limit - 1e-9


def test_partial_d2_is_prefactor_times_partial_sum():
    rho = (Fraction(7, 4), Fraction(3, 4))
    pt = (Fraction(5, 4), Fraction(1))
    for m in range(4):
        series = hyp_sum((rho[1] + pt[1], rho[1] - pt[1], Fraction(1)), (rho[0] + pt[0], rho[0] - pt[0]), m)
        assert q_rank2_partial_d2(m, 0, pt, rho) == poch_pm(rho[0], pt[0], m) * series


# ---------------------------------------------------------------- regions


def test_triangle_membership():
    reg = Rank2Regions(*RHO_SU22)
    assert reg.in_T1((Fraction(1, 2), Fraction(1, 4)))
    assert not reg.in_T1((Fraction(3, 4), Fraction(1, 4)))
    assert reg.in_T2((Fraction(1), Fraction(3, 4)))
    assert not reg.in_T2((Fraction(1), Fraction(1, 4)))
    assert reg.in_union((Fraction(3, 2), Fraction(1, 2)))
    assert not reg.in_union((Fraction(8, 5), Fraction(1, 5)))
    # tol loosens the cut lines
    assert not reg.in_T1((0.501, 0.1))
    assert reg.in_T1((0.501, 0.1), tol=1e-2)


def test_in_B_members_and_non_members():
    rho = RHO_SU22
    assert in_B((Fraction(3, 10), Fraction(1, 10)), 2, rho)
    assert in_B((Fraction(1), Fraction(3, 4)), 2, rho)
    assert in_B(rho, 2, rho)  # the corner is a member by the exact rule at rho
    assert not in_B((Fraction(8, 5), Fraction(1, 5)), 2, rho)
    assert not in_B((Fraction(2), Fraction(1)), 2, rho)


def test_in_B_matches_triangles_on_grid():
    rho = RHO_SU22
    reg = Rank2Regions(*RHO_SU22)
    step = 2.2 / 29
    band = 5e-3
    checked = 0
    for i in range(30):
        for j in range(i + 1):
            x1 = i * step
            x2 = j * step
            if abs(x1 - 0.5) < band or abs(x2 - 0.5) < band or abs(x1 + x2 - 2.0) < band:
                continue
            got = in_B((x1, x2), 2, rho)
            assert got == reg.in_union((x1, x2), tol=1e-9), (x1, x2)
            checked += 1
    assert checked > 300


# ---------------------------------------------------------------- in_B term signs


def _fraction_gates_fail(pt, rho):
    """The polynomial gates of in_B at an exact point, in Fraction
    arithmetic: q10 < 0 or q11 < 0."""
    x1, x2 = pt
    r1, r2 = Fraction(rho[0]), Fraction(rho[1])
    q10 = r1 * r1 + r2 * r2 - x1 * x1 - x2 * x2
    q11 = (r2 * r2 - x1 * x1) * (r2 * r2 - x2 * x2)
    return q10 < 0 or q11 < 0


def _in_B_always_summing(pt, d, rho, near_zero=None):
    """in_B without the term-sign rule: the same polynomial gates, in
    Fraction arithmetic at the exact value of the point (a float coordinate
    as Fraction(x)), and pole whisker, then the boundary series at every
    point that passes them: R_series to rel_tol 1e-8 or, where that lies
    within 2e-8 of 0 and its error (about 1e-9) is the size of the
    deadband, 30-digit mpmath hyp3f2 at the exact parameters. The points
    that take the mpmath path are appended to near_zero when it is given."""
    x1, x2 = pt
    r1, r2 = rho
    if _fraction_gates_fail((Fraction(x1), Fraction(x2)), rho):
        return False
    if float(r1) - float(x1) < 1e-6:
        return True
    value = R_series((float(x1), float(x2)), d, (float(r1), float(r2)), rel_tol=1e-8)
    if abs(value) < 2e-8:
        mp = pytest.importorskip("mpmath")
        x1, x2, r1, r2 = map(Fraction, (x1, x2, r1, r2))
        exact = (r2 + x2, r2 - x2, Fraction(d, 2), r1 + x1, r1 - x1)
        with mp.workdps(30):
            # zeroprec: a terminating sum that cancels to exactly 0 is 0
            value = mp.hyp3f2(*(mp.mpf(v.numerator) / v.denominator for v in exact), 1, zeroprec=300)
        if near_zero is not None:
            near_zero.append(pt)
    return value >= -SIGN_DEADBAND


def _group_rho(d, b):
    rho2 = Fraction(b + 1, 2)
    return (rho2 + Fraction(d, 2), rho2)


def _window_points(rho, steps=14):
    """Exact points of the raster window [0, rho1 + 1] with x2 from a few
    steps below 0 up to x1, plus every x1 with x2 = +-rho2 exactly."""
    top = rho[0] + 1
    pts = []
    for i in range(steps + 1):
        x1 = top * i / steps
        pts.extend((x1, top * j / steps) for j in range(-3, i + 1))
        pts.extend(((x1, rho[1]), (x1, -rho[1])))
    return pts


GROUPS_DB = [(d, b) for d in (1, 2, 3, 4) for b in range(5)]


def test_in_B_agrees_with_always_summing_the_series():
    near_zero = []
    for d, b in GROUPS_DB:
        rho = _group_rho(d, b)
        for pt in _window_points(rho):
            fpt = (float(pt[0]), float(pt[1]))
            assert in_B(pt, d, rho) == _in_B_always_summing(pt, d, rho, near_zero), (d, b, pt)
            assert in_B(fpt, d, rho) == _in_B_always_summing(fpt, d, rho, near_zero), (d, b, fpt)
    # on the zero line x1 + x2 = rho1 + rho2 of group 2,4,0, R = 0 but the
    # float reference reads +1.2e-9 to +2.1e-9: mpmath decides these
    zero_line = {(Fraction(7, 4), Fraction(5, 4)), (2, 1), (Fraction(9, 4), Fraction(3, 4))}
    assert zero_line <= {tuple(map(Fraction, pt)) for pt in near_zero}


def test_R_series_is_at_least_one_in_T1():
    checked = 0
    for d, b in GROUPS_DB:
        rho = _group_rho(d, b)
        frho = (float(rho[0]), float(rho[1]))
        reg = Rank2Regions(*rho)
        for pt in _window_points(rho):
            if not reg.in_T1(pt):
                continue
            for tol in (1e-12, 1e-8):
                assert R_series(pt, d, frho, rel_tol=tol) >= 1.0, (d, b, pt, tol)
            checked += 1
    assert checked > 400


# The pairs (d, rho) where in_B signs R by the series: every d but 2, and
# d = 2 at alpha = 0 and -1/2, where m = 2 alpha - 1 < 0 and R does not
# telescope to an S_div (limits._ScaledSine signs it for alpha >= 1/2)
SERIES_CASES = [(d, _group_rho(d, b)) for d in (1, 3, 4) for b in range(5)]
SERIES_CASES += [(2, (Fraction(1), Fraction(0))), (2, (Fraction(1, 2), Fraction(-1, 2)))]


def test_in_B_sums_the_series_only_in_T2(monkeypatch):
    calls = []
    enclosure = rank2._R_enclosure

    def counting_R_enclosure(*args):
        calls.append(args)
        return enclosure(*args)

    monkeypatch.setattr(rank2, "_R_enclosure", counting_R_enclosure)
    for d, rho in SERIES_CASES:
        for pt in _window_points(rho):
            if abs(pt[1]) <= rho[1]:
                for p in (pt, (float(pt[0]), float(pt[1]))):
                    in_B(p, d, rho)
                    assert not calls, (d, rho, p)
        # a T2 point that passes both gates and is away from the pole
        t2 = (rho[1] + Fraction(1, 8), rho[1] + Fraction(1, 8))
        for p in (t2, (float(t2[0]), float(t2[1])), (t2[0], -t2[1])):
            assert in_B(p, d, rho)
            assert len(calls) == 1, (d, rho, p)
            calls.clear()


def _T2_series_points(d, b):
    """The window points past both gates, off rho, with |x2| > rho2: the
    points where in_B signs the series from its enclosure."""
    rho = _group_rho(d, b)
    for pt in _window_points(rho):
        if abs(pt[1]) > rho[1] and pt[0] != rho[0] and not _fraction_gates_fail(pt, rho):
            yield (float(pt[0]), float(pt[1])), (float(rho[0]), float(rho[1]))


def test_R_enclosure_contains_R_series_in_T2():
    checked = 0
    for d, b in GROUPS_DB:
        for fpt, frho in _T2_series_points(d, b):
            value, radius = rank2._R_enclosure(*_series_parameters(fpt, d, frho))
            assert abs(R_series(fpt, d, frho) - value) <= radius, (d, b, fpt)
            checked += 1
    assert checked > 150


def test_R_enclosure_signs_every_T2_point_as_a_start_of_32_does(monkeypatch):
    # the proof holds from any start K >= 1, and a start of 32 reaches the
    # same partial sums later: both enclosures contain R and decide alike
    starts = (rank2._ENCLOSURE_START, 32)
    checked = 0
    for d, b in GROUPS_DB:
        for fpt, frho in _T2_series_points(d, b):
            args = _series_parameters(fpt, d, frho)
            ref = R_series(fpt, d, frho)
            decisions = []
            for start in starts:
                monkeypatch.setattr(rank2, "_ENCLOSURE_START", start)
                value, radius = rank2._R_enclosure(*args)
                assert abs(ref - value) <= radius, (d, b, fpt, start)
                decisions.append(value > 0 if abs(value) > radius else None)
            assert decisions[0] == decisions[1], (d, b, fpt)
            checked += 1
    assert checked == 188


@pytest.mark.parametrize("pt, d, rho", [((1.66, 1.58), 4, (2.5, 0.5)), ((1.0, 0.98), 2, (1.5, 0.5))])
def test_R_enclosure_where_the_first_tail_bound_fails(monkeypatch, pt, d, rho):
    # a first-order (Raabe) tail bound fails here at every K up to 64; the
    # second-order tail signs both at the first K. A start of 32 meets,
    # from K = 32 on, the very runs a start of 4 made
    args = _series_parameters(pt, d, rho)
    value, radius = rank2._R_enclosure(*args)
    assert abs(R_series(pt, d, rho) - value) <= radius
    runs = list(itertools.islice(rank2._R_steps(*args), 5))
    assert [k0 for k0, *_ in runs] == [4, 8, 16, 32, 64]
    assert (runs[0][1], runs[0][3]) == (value, radius) and abs(value) > radius
    monkeypatch.setattr(rank2, "_ENCLOSURE_START", 32)
    assert list(itertools.islice(rank2._R_steps(*args), 2)) == runs[3:]
    assert rank2._R_enclosure(*args) == (runs[3][1], runs[3][3])


@pytest.mark.parametrize("u, l", [((2.0, -1.0, 1.0), (3.0, 0.5)), ((40.5, -32.0, 0.5), (45.25, 3.75))])
def test_R_enclosure_at_a_terminating_series(u, l):
    # the terms die after t_(-u1); the exact finite sum is the value
    exact = hyp_sum(map(Fraction, u), map(Fraction, l), int(-u[1]))
    value, radius = rank2._R_enclosure(u, l, 1.0 + sum(l) - sum(u))
    assert abs(Fraction(value) - exact) <= Fraction(radius) < 1e-7


def test_R_enclosure_gives_up_on_an_underflowed_term():
    # t_2 underflows to 0 with no zero factor: nothing bounds the tail
    u, l = (2.0, -1.5, 0.5), (1e170, 1e170)
    assert rank2._R_enclosure(u, l, 1.0 + sum(l) - sum(u))[1] == math.inf


def _poly_mul(a, b):
    """The product of two polynomials given by their coefficients, lowest
    first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _P_Q(u, l):
    """The coefficients of P(k) = (k+u0)(k+u1)(k+u2) and
    Q(k) = (k+l0)(k+l1)(k+1), lowest first."""
    return (_poly_mul(_poly_mul([u[0], 1], [u[1], 1]), [u[2], 1]),
            _poly_mul(_poly_mul([l[0], 1], [l[1], 1]), [1, 1]))


def _kummer_residual(u, l, c):
    """The coefficients n0 .. n6 of N(k) = (g(k) - g(k+1) P(k)/Q(k) - 1)
    Q(k) k (k+1), g(k) = c0 k + a1 + a2/k, in Fractions at the exact values
    of u, l and c = (c0, a1, a2), by polynomial products apart from the
    formulas of rank2._residual."""
    p, q = _P_Q([Fraction(v) for v in u], [Fraction(v) for v in l])
    c0, a1, a2 = map(Fraction, c)
    # g(k) k (k+1) = (c0 k^2 + a1 k + a2)(k+1), g(k+1) k (k+1) = (c0 (k+1)^2 + a1 (k+1) + a2) k
    g_here = _poly_mul([a2, a1, c0], [1, 1])
    g_next = _poly_mul([c0 + a1 + a2, 2 * c0 + a1, c0], [0, 1])
    terms = (_poly_mul(q, g_here), [-v for v in _poly_mul(p, g_next)], [-v for v in _poly_mul(q, [0, 1, 1])])
    return [sum(t[j] for t in terms if j < len(t)) for j in range(7)]


def _random_series_parameters(rng, exact):
    """Random upper parameters u (of either sign), lower parameters l > 0
    and s = 1 + l0 + l1 - sum(u) > 1: Fractions if exact, else floats, with
    s the float of the exact s of those floats."""
    while True:
        if exact:
            u = [Fraction(rng.randint(-60, 60), rng.randint(1, 16)) for _ in range(3)]
            l = [Fraction(rng.randint(1, 80), rng.randint(1, 16)) for _ in range(2)]
        else:
            u = [rng.uniform(-8.0, 8.0) for _ in range(2)] + [rng.choice((0.5, 1.0, 1.5, 2.0))]
            l = [rng.uniform(0.0, 10.0) or 1.0, rng.choice((rng.uniform(1e-3, 0.1), rng.uniform(0.1, 10.0)))]
        s = 1 + sum(map(Fraction, l)) - sum(map(Fraction, u))
        if s > 1 and float(s) > 1.0:
            return tuple(u), tuple(l), s if exact else float(s)


def test_kummer_leaves_a_residual_of_degree_2():
    # the exact c0, a1, a2 of rank2._kummer, in Fractions, cancel the k^3,
    # k^4 and k^5 terms of the residual; k^6 cancels for any g
    rng = random.Random(7)
    for _ in range(200):
        u, l, s = _random_series_parameters(rng, exact=True)
        c0, a1, a2, _ = rank2._kummer(u, l, s)
        assert c0 == 1 / (s - 1)
        n = _kummer_residual(u, l, (c0, a1, a2))
        assert n[3:] == [0, 0, 0, 0], (u, l)
        p, q = _P_Q(u, l)
        assert n[:3] == list(rank2._residual(*p[2::-1], *q[2::-1], c0, a1, a2, -1)[:3]), (u, l)


def test_kummer_bounds_cover_the_exact_residual_of_the_float_g():
    # the float c0, a1, a2 define a g of their own; the bounds must cover
    # all six coefficients of its exact residual, n3 .. n5 included
    rng = random.Random(11)
    for _ in range(400):
        u, l, s = _random_series_parameters(rng, exact=False)
        c0, a1, a2, bounds = rank2._kummer(u, l, s)
        n = _kummer_residual(u, l, (c0, a1, a2))
        assert n[6] == 0
        assert all(abs(v) <= b for v, b in zip(n, bounds)), (u, l, s)


def _group_zero_line(d, steps=24):
    """Exact T2 points on x1 + x2 = rho1 + rho2 of the group 2,d,0
    (alpha = 1/2), where R = 0, with x2 > rho2 and x1 >= x2."""
    rho = _group_rho(d, 0)
    total = rho[0] + rho[1]
    return rho, [(total - x2, x2) for x2 in (rho[1] + (total / 2 - rho[1]) * i / steps for i in range(1, steps + 1))]


def test_R_enclosure_contains_the_series_at_random_parameters():
    # mpmath sums the series at the float parameters themselves; the draws
    # hold negative upper parameters, lower parameters within 0.1 of 0
    # and every d = 1 .. 4. Every run from K = 4 to 256 must hold it
    mp = pytest.importorskip("mpmath")
    rng = random.Random(3)
    for d in (1, 2, 3, 4) * 3:
        rho2 = Fraction(rng.randint(1, 12), 4)
        rho = (rho2 + Fraction(d, 2) + Fraction(rng.randint(0, 4), 8), rho2)
        near = rng.random() < 0.5
        x1 = rho[0] - Fraction(rng.randint(1, 99), 1000) if near else rho[0] * Fraction(rng.randint(0, 99), 100)
        x2 = rng.choice((1, -1)) * (rho[1] + Fraction(rng.randint(1, 300), 100))
        u, l, s = _series_parameters((x1, x2), d, rho)
        with mp.workdps(30):
            ref = mp.hyper([mp.mpf(v) for v in u], [mp.mpf(v) for v in l], 1)
            runs = list(itertools.islice(rank2._R_steps(u, l, s), 7))
            assert [k0 for k0, *_ in runs] == [4, 8, 16, 32, 64, 128, 256]
            for k0, value, _, radius in runs:
                assert abs(mp.mpf(value) - ref) <= radius, (d, rho, x1, x2, k0)
        assert runs[-1][3] < 1e-4 * (1 + abs(runs[-1][1])), (d, rho, x1, x2)
    # R = 0 on the zero line of an alpha = 1/2 group: never signed
    for d in (1, 2, 4):
        rho, line = _group_zero_line(d)
        for pt in line:
            value, radius = rank2._R_enclosure(*_series_parameters(pt, d, rho))
            assert abs(value) <= radius, (d, pt)


def test_R_series_raises_where_it_has_no_bound(monkeypatch):
    # a term underflows at once: no tail bound at all
    with pytest.raises(DomainError, match="no tail bound"):
        R_series((0.0, 0.0), 2, (1e170, 0.5))
    # the target is out of reach within the cap
    monkeypatch.setattr(rank2, "_SERIES_MAX", 64)
    # a parameter beyond the range of the proof: the terms overflow, and
    # an infinite centre with an infinite tail bound is no answer
    with pytest.raises(DomainError, match="no tail bound"):
        R_series((0.0, 2.0**70), 2, (1.5, 0.5))
    with pytest.raises(DomainError, match="no tail bound"):
        R_series((0.3, 0.1), 1, (1.25, 0.75), rel_tol=1e-15)
    assert abs(R_series((0.3, 0.1), 1, (1.25, 0.75), rel_tol=1e-3) - 1.6622304327763957) < 1e-3


def test_in_B_near_the_pole_decides_from_the_series():
    # float points that pass the gates within a hair of rho1 used to be
    # members by a 1e-6 whisker; the series is negative at this one
    rho = (Fraction(5, 4), Fraction(3, 4))
    pt = (1.25 - 1e-12, 0.75 + 1e-12)
    assert R_series(pt, 1, (1.25, 0.75), rel_tol=1e-8) < -0.3
    assert not in_B(pt, 1, rho)
    # a float point past rho1 fails the gates at its exact value; rho and
    # its mirror are members
    assert not in_B((1.5 + 1e-12, 0.5), 2, RHO_SU22)
    assert in_B((1.5, 0.5), 2, RHO_SU22) and in_B((1.5, -0.5), 2, RHO_SU22)


def test_in_B_mirrors_of_rho_are_members():
    # both gates pass at (-rho1, +-rho2) and R is even in x1: the exact rule
    # at rho covers its mirrors in x1, where the series has its pole too
    for d, rho in ((2, RHO_SU22), (1, _group_rho(1, 0))):
        r1, r2 = rho
        for x2 in (r2, -r2):
            assert in_B((-r1, x2), d, rho)
            assert in_B((-float(r1), float(x2)), d, rho)
        assert not in_B((-r1 - Fraction(1, 10**12), r2), d, rho)


def test_in_B_exact_T1_point_within_float_rounding_of_rho1():
    # float(x1) == float(rho1) here, but the exact point has rho1 - x1 > 0
    # and |x2| <= rho2: every term is >= 0 and R >= 1. x2 = rho2 stops the
    # series after its first term, on both paths
    rho = (Fraction(4, 3), Fraction(1, 3))
    pt = (Fraction(4, 3) - Fraction(1, 10**20), Fraction(1, 3))
    assert float(pt[0]) == float(rho[0])
    assert R_series(pt, 2, rho) == 1.0
    assert in_B(pt, 2, rho)
    assert in_B((pt[0], -pt[1]), 2, rho)


def _counting(monkeypatch, calls, *names):
    """Append (name, args) to calls at every call of rank2.<name>."""
    for name in names:
        def counting(*args, name=name, fn=getattr(rank2, name)):
            calls.append((name, args))
            return fn(*args)

        monkeypatch.setattr(rank2, name, counting)
    return calls


def _recording_enclosures(monkeypatch):
    """A list that gets (args, (value, radius)) at every call of
    rank2._R_enclosure; an interval with |value| <= radius sends in_B to
    its fallback on the centre."""
    calls = []
    enclosure = rank2._R_enclosure

    def recording(*args):
        calls.append((args, enclosure(*args)))
        return calls[-1][1]

    monkeypatch.setattr(rank2, "_R_enclosure", recording)
    return calls


def test_R_series_sums_the_parameters_in_B_signs(monkeypatch):
    # both round rho +- x once from the exact value; rounding rho and x
    # first, then adding, differs in the last bit at many of these points.
    # Both read the runs of one summer, at the same (u, l, s)
    calls = _counting(monkeypatch, [], "_R_steps")
    checked = 0
    for d, rho in ((1, _group_rho(1, 0)), (1, _group_rho(1, 1)), *SERIES_CASES[-2:]):
        for q in (3, 7, 10):
            top = int(rho[0] + 1) * q
            for pt in ((Fraction(i, q), Fraction(j, q)) for i in range(top) for j in range(i + 1)):
                if pt[1] <= rho[1] or pt[0] >= rho[0] or _fraction_gates_fail(pt, rho):
                    continue
                in_B(pt, d, rho)
                [(name, enclosed)] = calls
                calls.clear()
                R_series(pt, d, rho)
                assert calls == [(name, enclosed)], (d, rho, pt)
                calls.clear()
                checked += 1
    assert checked > 100


def test_region_rank2_B_rasters_never_need_the_fallback(monkeypatch, capsys):
    # 2,2,3 at p = -4 has alpha = 0, where the d = 2 series is still summed
    calls = _recording_enclosures(monkeypatch)
    for group in (["2,1,2"], ["2,2,3", "--p", "-4"]):
        assert main(["region", "--kind", "rank2-B", "--group", *group, "--grid", "100"]) == 0
    capsys.readouterr()
    assert len(calls) > 100
    assert all(abs(value) > radius for _, (value, radius) in calls)


def test_region_rank2_B_falls_back_where_R_vanishes(monkeypatch, capsys):
    # R is exactly 0 at (1, 1) for group 2,2,0, so no enclosure signs it.
    # The fallback reads the centre of the enclosure at the parameters it
    # bounded, each the float of its exact value: u = (3/2, -1/2, 1),
    # l = (5/2, 1/2), s = 2
    calls = _recording_enclosures(monkeypatch)
    assert main(["region", "--kind", "rank2-B", "--group", "2,2,0", "--grid", "6"]) == 0
    assert "1,1,1," in capsys.readouterr().out.splitlines()
    [(args, (value, radius))] = [call for call in calls if not abs(call[1][0]) > call[1][1]]
    r1, r2, x1, x2, d = Fraction(3, 2), Fraction(1, 2), 1, 1, 2
    u = (float(r2 + x2), float(r2 - x2), float(Fraction(d, 2)))
    l, s = (float(r1 + x1), float(r1 - x1)), float(1 + 2 * (r1 - r2) - Fraction(d, 2))
    assert (u, l, s) == ((1.5, -0.5, 1.0), (2.5, 0.5), 2.0)
    assert args == (u, l, s)
    assert -SIGN_DEADBAND <= value and radius < math.inf


def test_in_B_fallback_sums_the_enclosure_parameters(monkeypatch):
    # R is exactly 0 on x1 + x2 = 2 for rho = (3/2, 1/2), d = 2 (a
    # denominator Gamma of R_closed_form_b0 has its pole), so no enclosure
    # signs it. Off the float grid, the float sums rho2 +- float(x2) and
    # rho1 +- float(x1) differ from the rounded exact values the enclosure
    # and its fallback get
    calls = _recording_enclosures(monkeypatch)
    r1, r2 = RHO_SU22
    x1, x2 = 1 + Fraction(1, 97), 1 - Fraction(1, 97)
    assert in_B((x1, x2), 2, RHO_SU22)
    u = (float(r2 + x2), float(r2 - x2), 1.0)
    l = (float(r1 + x1), float(r1 - x1))
    assert u[:2] != (float(r2) + float(x2), float(r2) - float(x2))
    assert l != (float(r1) + float(x1), float(r1) - float(x1))
    [(args, (value, radius))] = calls
    assert args == (u, l, 2.0)
    assert abs(value) <= radius and value >= -SIGN_DEADBAND


def test_region_rank2_B_matches_the_oracles(capsys):
    # the raster end to end: Fraction gates plus the always-summing series
    grid = 21
    for group in ("2,1,2", "2,2,3"):
        _, d, b = (int(v) for v in group.split(","))
        rho = _group_rho(d, b)
        axis = [(rho[0] + 1) * i / (grid - 1) for i in range(grid)]
        want = ["x,y,member,witness"]
        for i, x1 in enumerate(axis):
            for x2 in axis[: i + 1]:
                member = "1" if _in_B_always_summing((x1, x2), d, rho) else "0"
                want.append(f"{float(x1):.12g},{float(x2):.12g},{member},")
        code = main(["region", "--kind", "rank2-B", "--group", group, "--grid", str(grid)])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "\n".join(want) + "\n", group
    # for d >= 3 the three tests are not the positivity set: a usage error
    assert main(["region", "--kind", "rank2-B", "--group", "2,3,0", "--grid", str(grid)]) == 2
    assert capsys.readouterr().out == ""


def _no_per_point_kernel(*args):
    raise AssertionError("per-point kernel on a raster")


def test_in_B_raster_matches_point_tests():
    # an axis with negative values, ints, rho itself, +-rho2 and points a
    # hair off rho1 (on both sides), rho2 and 1
    cases = [(d, _group_rho(d, b)) for d in (1, 2) for b in range(6)] + [(1, (Fraction(7, 5), Fraction(1, 3)))]
    eps = Fraction(1, 10**30)
    for d, rho in cases:
        r1, r2 = rho
        axis = [Fraction(-3, 2), 0, Fraction(1, 3), 1, 2, r1, r2, -r2, r2 + eps, r1 - eps, r1 + eps, 1 + eps]
        with pytest.MonkeyPatch.context() as mp:
            # the gates come from the raster kernel, never the per-point one
            mp.setattr(shimura, "_numerator", _no_per_point_kernel)
            rows = list(map(_cells, in_B_raster(axis, d, rho)))
        assert len(rows) == len(axis)
        for i, row in enumerate(rows):
            assert row == [in_B((axis[i], x2), d, rho) for x2 in axis[: i + 1]], (d, rho, i)


def test_in_B_raster_matches_point_tests_at_the_mirrors_of_rho():
    # the axis is not sorted, so its cells (axis[i], axis[j]), j <= i, hold
    # rho and its mirrors (+-rho1, +-rho2), every x1 with |x2| = rho2, x1 a
    # hair inside and outside +-rho1, and T2 points near x1 = x2 past the
    # midpoint, where R < 0, mirrored to x2 < -rho2
    eps = Fraction(1, 10**30)
    cases = [(d, _group_rho(d, b)) for d in (1, 2) for b in range(6)]
    cases += [(1, (Fraction(7, 5), Fraction(1, 3))), (2, (Fraction(3, 4), Fraction(-1, 4)))]
    negative_mirrors = 0
    for d, rho in cases:
        r1, r2 = rho
        near = [(r1 + r2) / 2 + (r1 - r2) * k / 40 for k in (1, 2, 4)]
        axis = [r2, -r2, *(-c for c in near), *near, 0, Fraction(1, 3), r1 - eps, r1, -r1, -r1 + eps, r1 + eps,
                r2 + eps, -r2 - eps]
        rows = list(map(_cells, in_B_raster(axis, d, rho)))
        cells = {(axis[i], axis[j]): member for i, row in enumerate(rows) for j, member in enumerate(row)}
        for (x1, x2), member in cells.items():
            assert member == in_B((x1, x2), d, rho), (d, rho, x1, x2)
            # R, and with it in_B, is even in x2
            assert (x1, -x2) not in cells or cells[x1, -x2] == member, (d, rho, x1, x2)
        assert all(cells[s1 * r1, s2 * r2] for s1 in (1, -1) for s2 in (1, -1)), (d, rho)
        negative_mirrors += not all(cells[c, -c] for c in near)
    assert negative_mirrors >= 12


# ---------------------------------------------------------------- d = 2 by S_div


def test_R_telescopes_to_S_div_at_d_2():
    # R = -(alpha^2 - x1^2) S_div(t1, t2; m) / ((x1 + x2) s_m(t1)),
    # t_i = x_i - alpha, m = 2 alpha - 1, against mpmath's 3F2 at random
    # exact points with |x1| < alpha + 1 (limits._ScaledSine has the proof)
    mp = pytest.importorskip("mpmath")
    rng = random.Random(36)
    checked = 0
    with mp.workdps(30):
        while checked < 24:
            m = rng.randrange(21)
            alpha = Fraction(m + 1, 2)
            x1 = (alpha + 1) * Fraction(rng.randrange(-999, 1000), 1000)
            x2 = (alpha + 1) * Fraction(rng.randrange(-1500, 1500), 1000)
            if x1 * x1 == x2 * x2 or (x1 - alpha).denominator == 1:
                continue
            a, y1, y2 = (mp.mpf(v.numerator) / v.denominator for v in (alpha, x1, x2))

            def s(t):
                return mp.sin(mp.pi * t) / mp.fprod(t + i for i in range(1, m + 1))

            t1, t2 = y1 - a, y2 - a
            closed = -(a * a - y1 * y1) * (s(t1) - s(t2)) / (t1 - t2) / ((y1 + y2) * s(t1))
            series = mp.hyp3f2(a + y2, a - y2, 1, a + 1 + y1, a + 1 - y1, 1)
            assert abs(closed - series) <= mp.mpf(10) ** -25 * max(1, abs(series)), (m, x1, x2)
            checked += 1


def _d2_edge_axis(rng, alpha):
    """Random exact values of [-(rho1 + 1), rho1 + 1], rho1 = alpha + 1,
    some repeated, with +-alpha, +-rho1, points 10^-30 either side of
    them, and alpha + 10^-400, whose t = 10^-400 rounds to 0.0 (and
    rho1 - 10^-30, whose t rounds to 1.0)."""
    r1, eps, tiny = alpha + 1, Fraction(1, 10**30), Fraction(1, 10**400)
    axis = [(r1 + 1) * Fraction(rng.randrange(-60, 61), 60) for _ in range(14)]
    axis += axis[:3]
    for v in (alpha, r1, alpha + eps, alpha - eps, r1 - eps, r1 + eps, alpha + tiny):
        axis += [v, -v]
    rng.shuffle(axis)
    return axis


def test_in_B_raster_matches_in_B_on_random_d_2_groups():
    rng = random.Random(2)
    pairs = [(b, p) for b in range(21) for p in (-1, 0, 1) if b + p <= 20]
    groups = [(0, -1), (0, 0), (20, 0)] + rng.sample(pairs, 7)
    for b, p in groups:
        rho = shimura.group_params(shimura.GroupData(2, 2, b, p)).rho
        axis = _d2_edge_axis(rng, rho[1])
        rows = list(map(_cells, in_B_raster(axis, 2, rho)))
        for i, row in enumerate(rows):
            assert row == [in_B((axis[i], x2), 2, rho) for x2 in axis[: i + 1]], (b, p, axis[i])


def test_R_enclosure_runs_only_where_the_bound_leaves_the_sign(monkeypatch, capsys):
    # at d = 2 with alpha >= 1/2 a cell past the gates and the exact rules
    # reaches the series only after _ScaledSine.sign returns 0 for it
    events = []
    sign, enclosure = limits._ScaledSine.sign, rank2._R_enclosure

    def recording_sign(self, n1, n2):
        signed = sign(self, n1, n2)
        events.append("signed" if signed else "left")
        return signed

    def recording_enclosure(*args):
        events.append("enclosure")
        return enclosure(*args)

    monkeypatch.setattr(limits._ScaledSine, "sign", recording_sign)
    monkeypatch.setattr(rank2, "_R_enclosure", recording_enclosure)
    # the benchmark's d = 2 rasters: the bound signs every series cell
    for grid in range(98, 103):
        assert main(["region", "--kind", "rank2-B", "--group", "2,2,3", "--grid", str(grid)]) == 0
    assert len(events) > 800 and set(events) == {"signed"}
    # R = 0 on x1 + x2 = 2 for 2,2,0 (alpha = 1/2, m = 0: sin(pi t1) =
    # sin(pi t2) at t1 + t2 = 1), which no bound can sign
    events.clear()
    assert main(["region", "--kind", "rank2-B", "--group", "2,2,0", "--grid", "41"]) == 0
    capsys.readouterr()
    left = [k for k, event in enumerate(events) if event == "left"]
    assert len(left) == 8
    assert [k for k, event in enumerate(events) if event == "enclosure"] == [k + 1 for k in left]


def test_in_W_has_the_sign_of_the_series_for_m_11_to_14():
    # W's test at m is the d = 2 series' sign at rho = (alpha + 1, alpha),
    # alpha = (m + 1)/2, in the open square; the series is summed here by
    # _R_enclosure directly, which in_B no longer calls at these points
    members = 0
    for m in range(11, 15):
        alpha = Fraction(m + 1, 2)
        rho = (alpha + 1, alpha)
        side = [alpha + Fraction(k, 13) for k in range(1, 13)]
        for x1, x2 in ((x1, x2) for i, x1 in enumerate(side) for x2 in side[: i + 1]):
            value, radius = rank2._R_enclosure(*_series_parameters((x1, x2), 2, rho))
            assert abs(value) > radius, (m, x1, x2)
            assert in_W((x1, x2), m) == (value > 0) == in_B((x1, x2), 2, rho), (m, x1, x2)
            members += value > 0
    assert 0 < members < 4 * 78
    # the point the absolute deadband on S_div called a member: there
    # S_div(1/2, 1/4; 12) = -7.7e-10 and R = -0.72656 (mpmath hyp3f2)
    pt, rho = (7, Fraction(27, 4)), (Fraction(15, 2), Fraction(13, 2))
    assert -1e-9 < limits.S_div(Fraction(1, 2), Fraction(1, 4), 12) < 0
    value, radius = rank2._R_enclosure(*_series_parameters(pt, 2, rho))
    assert value < -radius and abs(R_series(pt, 2, rho) + 0.72656) < 1e-5
    assert not in_W(pt, 12) and not in_B(pt, 2, rho)


def test_in_B_exact_T2_point_within_float_rounding_of_rho1():
    # float(x1) == float(rho1) here, but rho1 - x1 = 1e-30 > 0: the lower
    # series parameter is rounded from its exact value, not summed in floats
    eps = Fraction(1, 10**30)
    for d, rho in ((2, (Fraction(3, 2), Fraction(1, 2))), (1, (Fraction(7, 5), Fraction(1, 3)))):
        r1, r2 = rho
        pt = (r1 - eps, r2 + eps)
        assert float(pt[0]) == float(r1)
        assert in_B(pt, d, rho)
        assert _cells(list(in_B_raster([r2 + eps, r1 - eps], d, rho))[1])[0]


def test_in_B_raster_needs_an_exact_axis_and_a_summable_series():
    with pytest.raises(DomainError, match="exact"):
        next(in_B_raster([0.5, Fraction(1)], 2, RHO_SU22))
    with pytest.raises(DomainError, match="d must be a positive integer"):
        next(in_B_raster([Fraction(1)], 0, RHO_SU22))
    with pytest.raises(DomainError, match="not summable"):
        next(in_B_raster([Fraction(1)], 2, (Fraction(1, 2), Fraction(1, 2))))


# ---------------------------------------------------------------- in_B gates


class _PastGates(Exception):
    """Raised by a stand-in for _R_enclosure: in_B got past both gates."""


def _past_gates(*args):
    raise _PastGates


def _in_B_gates_fail(pt, rho):
    """Whether in_B rejects pt at its polynomial gates. With _R_enclosure
    replaced, in_B returns False only from a gate, returns True only from
    the exact rules after both gates, and otherwise raises _PastGates, or
    DomainError at a series pole past both gates. Errors of d and rho are
    raised before the point is looked at."""
    rank2._series_constants(1, (Fraction(rho[0]), Fraction(rho[1])))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rank2, "_R_enclosure", _past_gates)
        try:
            return not in_B(pt, 1, rho)
        except (_PastGates, DomainError):
            return False


# cos and sin of Pythagorean angles: rotating rho by one keeps x1^2 + x2^2
# exactly at rho1^2 + rho2^2
PYTHAGOREAN = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)), (Fraction(8, 17), Fraction(15, 17))]


def _gate_boundary_points(rho):
    """Exact points on the zero sets of both gates, and just off them."""
    r1, r2 = Fraction(rho[0]), Fraction(rho[1])
    on = [(r1, r2), (r2, r1), (-r1, r2), (r2, -r2), (-r2, r2), (r2, 0), (0, -r2)]
    for x in (Fraction(0), r2 / 3, r2 + Fraction(1, 7), r1, r1 + 1):
        on.extend(((x, r2), (x, -r2), (r2, x), (-r2, -x)))
    for c, s in PYTHAGOREAN:
        for sc, ss in ((c, s), (s, c), (c, -s), (-s, c)):
            on.append((r1 * sc - r2 * ss, r1 * ss + r2 * sc))
    eps = Fraction(1, 10**30)
    pts = []
    for x1, x2 in on:
        pts.extend((x1 + u, x2 + v) for u in (0, eps, -eps) for v in (0, eps, -eps))
    return pts


def test_in_B_gates_match_fraction_oracle():
    rhos = [_group_rho(d, b) for d, b in GROUPS_DB]
    # rho as a list and as ints
    rhos += [[Fraction(5, 2), Fraction(1, 2)], (3, 1), (2, 1), [4, 2]]
    ints = [(i, j) for i in range(-4, 6) for j in range(-2, 5)]
    mixed = [(i, Fraction(j, 2)) for i, j in ints] + [(Fraction(i, 3), j) for i, j in ints]
    for rho in rhos:
        for pt in ints + mixed + _gate_boundary_points(rho) + _window_points(tuple(map(Fraction, rho)), 8):
            assert _in_B_gates_fail(pt, rho) == _fraction_gates_fail(pt, rho), (rho, pt)
    # the circle points do lie on the circle
    for c, s in PYTHAGOREAN:
        x1, x2 = RHO_SU22[0] * c - RHO_SU22[1] * s, RHO_SU22[0] * s + RHO_SU22[1] * c
        assert x1 * x1 + x2 * x2 == RHO_SU22[0] ** 2 + RHO_SU22[1] ** 2


rational_st = st.fractions(min_value=-40, max_value=40, max_denominator=10**15)
coord_st = st.one_of(rational_st, st.integers(min_value=-40, max_value=40))


@settings(max_examples=400, deadline=None)
@given(
    x1=coord_st,
    x2=coord_st,
    rho=st.one_of(
        st.sampled_from([_group_rho(d, b) for d, b in GROUPS_DB]),
        # in_B raises for rho1 - rho2 <= 1/4 at d = 1: the series is not summable
        st.tuples(rational_st, rational_st).filter(lambda rho: rho[0] - rho[1] > Fraction(1, 4)),
    ),
)
def test_in_B_gates_match_fraction_oracle_at_random_rationals(x1, x2, rho):
    assert _in_B_gates_fail((x1, x2), rho) == _fraction_gates_fail((x1, x2), rho)


def test_in_B_float_points_beyond_the_deadband_scale():
    # squares that overflow used to turn the float deadband test into
    # -inf < -inf and pass the gates; every point gets the exact gates
    for pt in [(1e200, 0.0), (1e155, 0.1), (-1e200, 0.0), (0.25, 1e160)]:
        assert not in_B(pt, 2, RHO_SU22), pt
    # only the scale of q11 overflows here: |x1| > rho2 > |x2| and q10 >= 0
    rho = (Fraction(2 * 10**90), Fraction(10**90))
    assert not in_B((1.5e90, 1e80), 2, rho)
    assert not _in_B_always_summing((Fraction(1.5e90), Fraction(1e80)), 2, rho)
    assert in_B((5e89, 1e80), 2, rho)


@pytest.mark.parametrize("pt", [(math.inf, 0.0), (math.nan, 0.0), (0.5, -math.inf), (Fraction(1, 2), math.nan)])
def test_in_B_rejects_non_finite_coordinates(pt):
    with pytest.raises(DomainError, match="finite"):
        in_B(pt, 2, RHO_SU22)


@pytest.mark.parametrize("d", [0, -1])
def test_in_B_rejects_d_below_one_at_every_point(d):
    # a T1 point (exact and float), a gate-failing point and rho itself are
    # decided before the series, and must still check d as R_series does
    for pt in [(Fraction(1, 2), Fraction(1, 4)), (0.5, 0.25), (Fraction(2), Fraction(1)), RHO_SU22]:
        with pytest.raises(DomainError, match="d must be a positive integer"):
            in_B(pt, d, RHO_SU22)


def test_in_B_rejects_a_float_d_or_rho_after_an_exact_one():
    # the constants are cached per (d, rho), where d = 2.0 and d = 2, and
    # rho = (1.5, 0.5) and (3/2, 1/2), are equal keys
    pt = (Fraction(1, 2), Fraction(1, 4))
    assert in_B(pt, 2, RHO_SU22)
    with pytest.raises(DomainError, match="d must be a positive integer"):
        in_B(pt, 2.0, RHO_SU22)
    with pytest.raises(DomainError, match="exact"):
        in_B(pt, 2, (1.5, 0.5))
    with pytest.raises(DomainError, match="exact"):
        next(in_B_raster([Fraction(1)], 2, (1.5, 0.5)))


def test_in_B_rejects_a_non_summable_series_at_every_point():
    # s = 1 + 2(rho1 - rho2) - d/2 = 0 for this rho and d = 2. A T1 point
    # (exact and float), a gate-failing point and rho itself are decided
    # before the series, and must still check s > 1 as R_series does
    rho = (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(DomainError, match="not summable"):
        R_series((0.25, 0.125), 2, rho)
    for pt in [(Fraction(1, 4), Fraction(1, 8)), (0.25, 0.125), (Fraction(2), Fraction(0)), rho]:
        with pytest.raises(DomainError, match="not summable"):
            in_B(pt, 2, rho)
    # the bound is exact: s = 1 (rho1 - rho2 = 1/4, d = 1) is not summable,
    # and a gap larger by 10^-12 is
    pt = (Fraction(1, 4), Fraction(1, 8))
    with pytest.raises(DomainError, match="not summable"):
        in_B(pt, 1, (Fraction(3, 4), Fraction(1, 2)))
    assert in_B(pt, 1, (Fraction(3, 4) + Fraction(1, 10**12), Fraction(1, 2)))
    # s is rounded once: at a gap larger by 10^-20 it rounds to 1, and the
    # float sum would divide by s - 1 = 0
    with pytest.raises(DomainError, match="not summable"):
        in_B(pt, 1, (Fraction(3, 4) + Fraction(1, 10**20), Fraction(1, 2)))
    # the message shows the rounded s, so an exact s with more digits than
    # int-to-str conversion allows still gives DomainError
    with pytest.raises(DomainError, match="not summable"):
        in_B(pt, 1, (Fraction(3, 4) + Fraction(1, 10**5000), Fraction(1, 2)))


def test_in_B_past_the_gates_at_a_series_pole():
    # |rho2| > rho1 here, so (3/2, 0) passes both gates with |x1| > rho1:
    # the lower parameter rho1 - x1 is negative, as for R_series
    rho = (Fraction(1), Fraction(-2))
    pt = (Fraction(3, 2), Fraction(0))
    assert not _fraction_gates_fail(pt, rho)
    for p in (pt, (1.5, 0.0), (-pt[0], pt[1])):
        with pytest.raises(DomainError, match="pole"):
            in_B(p, 1, rho)
    with pytest.raises(DomainError, match="pole"):
        R_series((1.5, 0.0), 1, (1.0, -2.0))
    # a T2 point 10^-400 inside rho1: rho1 - x1 > 0 rounds to 0.0
    pt = (Fraction(3, 2) - Fraction(1, 10**400), Fraction(1, 2) + Fraction(1, 10**401))
    assert not _fraction_gates_fail(pt, RHO_SU22)
    with pytest.raises(DomainError, match="underflows"):
        in_B(pt, 2, RHO_SU22)
    # the message names no coordinate: this x1 has more digits than
    # int-to-str conversion allows
    pt = (Fraction(3, 2) - Fraction(1, 10**5000), Fraction(1, 2) + Fraction(1, 10**5001))
    with pytest.raises(DomainError, match="underflows"):
        in_B(pt, 2, RHO_SU22)


def test_in_B_beyond_float_range_is_a_domain_error():
    big = 10**400
    # a T2 point past both gates, where rho2 +- x2 and rho1 +- x1 overflow
    rho, pt = (Fraction(big + 1), Fraction(big)), (big + Fraction(1, 2), big + Fraction(1, 4))
    assert not _fraction_gates_fail(pt, rho)
    with pytest.raises(DomainError, match="beyond float range"):
        in_B(pt, 2, rho)
    # the same rho decides a point of T1 exactly
    assert in_B((Fraction(1, 2), Fraction(1, 4)), 2, rho)
    # s = 1 + 2 (rho1 - rho2) - d/2 itself overflows
    for rho in ((Fraction(big), Fraction(0)), (Fraction(0), Fraction(-big))):
        with pytest.raises(DomainError, match="beyond float range"):
            in_B((Fraction(1, 2), Fraction(1, 4)), 2, rho)
