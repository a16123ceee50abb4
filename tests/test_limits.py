import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcinterp import limits
from bcinterp.exactnum import DomainError, PoleError, _cells
from bcinterp.limits import (
    ContourPolyline,
    S_div,
    c_l_sequence,
    contour_diagonal_crossings,
    contour_to_csv,
    crossing_equation,
    crossing_point,
    gamma_ratio_identity,
    gamma_ratio_partial,
    in_G0_rank2,
    in_W,
    in_W_raster,
    r_limit,
    r_partial,
    s_m,
    s_m_prime,
    trace_contour,
)
from bcinterp.okounkov import Params
from bcinterp.partitions import weight
from bcinterp.rank2 import Rank2Regions
from bcinterp.shimura import in_A_certified, in_G, q_poly


# ---------------------------------------------------------------- gamma ratios


def test_gamma_ratio_identity_values():
    # Gamma(1/2)Gamma(3/2) / (Gamma(-1/2)Gamma(5/2)) = -1/3
    got = gamma_ratio_identity(Fraction(-1, 2), Fraction(5, 2), Fraction(1, 2), Fraction(3, 2))
    assert abs(got - (-1.0 / 3.0)) < 1e-12
    assert abs(gamma_ratio_identity(1.0, 1.0, 1.0, 1.0) - 1.0) == 0.0
    # a factor n + a is 0 at n = 1: the product, and its value, is 0
    assert gamma_ratio_identity(-1, 3, 1, 1) == 0.0
    with pytest.raises(PoleError):
        gamma_ratio_identity(1, -1, 0, 0)


def test_gamma_ratio_identity_needs_balance():
    with pytest.raises(DomainError):
        gamma_ratio_identity(1.0, 1.0, 1.0, 1.5)


def test_gamma_ratio_identity_exact_balance():
    # exactly balanced, yet the float sums differ by about 3.6e-12
    args = (Fraction(294056, 27), Fraction(984971, 28), Fraction(795782, 31), Fraction(478050143, 23436))
    assert args[0] + args[1] == args[2] + args[3]
    assert abs(float(args[0]) + float(args[1]) - float(args[2]) - float(args[3])) > 1e-12
    assert math.isfinite(gamma_ratio_identity(*args))
    # exact inputs off balance by less than the float tolerance still raise
    with pytest.raises(DomainError):
        gamma_ratio_identity(Fraction(1), Fraction(1), Fraction(1), Fraction(1) + Fraction(1, 10**15))
    # a float input keeps the float rule
    assert gamma_ratio_identity(1.0, Fraction(1), 1, 1.0 + 1e-13) > 0


def test_gamma_ratio_partial_converges():
    args = (0.75, 1.75, 1.25, 1.25)
    exact = gamma_ratio_identity(*args)
    err1 = abs(gamma_ratio_partial(*args, terms=10000) - exact)
    err2 = abs(gamma_ratio_partial(*args, terms=40000) - exact)
    assert err1 < 1e-3
    assert err2 < err1


def _limits_suite_gamma_draws(count):
    """count parameter sets drawn as verify --suite limits draws its Gamma
    checks: a, b, c uniform in [0.2, 2], d = a + b - c kept above 0.05."""
    rng = random.Random(0)
    while count:
        a, b, c = (rng.uniform(0.2, 2.0) for _ in range(3))
        d = a + b - c
        if d > 0.05:
            count -= 1
            yield a, b, c, d


def test_gamma_enclosure_holds_the_identity_at_suite_draws():
    for a, b, c, d in _limits_suite_gamma_draws(2000):
        lo, hi = limits._gamma_enclosure(a, b, c, d)
        want = gamma_ratio_identity(a, b, c, d)
        assert lo <= want <= hi, (a, b, c, d)
        # never looser than the old absolute 1e-4, and narrow enough that a
        # relative error of 1e-5 either way falls outside
        assert (hi - lo) / 2 <= 1e-4, (a, b, c, d)
        assert want * (1 - 1e-5) < lo and hi < want * (1 + 1e-5), (a, b, c, d)


def test_gamma_enclosure_holds_the_true_quotient():
    mp = pytest.importorskip("mpmath")
    imbalanced = 0
    for a, b, c, d in _limits_suite_gamma_draws(200):
        imbalanced += math.fsum((a, b, -c, -d)) != 0
        lo, hi = limits._gamma_enclosure(a, b, c, d)
        with mp.workdps(30):
            q = mp.gamma(c) * mp.gamma(d) / (mp.gamma(a) * mp.gamma(b))
            assert lo <= q <= hi, (a, b, c, d)
    assert imbalanced  # some draws miss a + b = c + d by a rounding


def test_gamma_ratio_partial_pole():
    with pytest.raises(PoleError):
        gamma_ratio_partial(1.0, 1.0, 0.0, 2.0, terms=3)
    # the factor n + c vanishes at n = 2, after two finite factors
    for args in ((1, 1, -2, 2, 5), (1.0, 1.0, -2.0, 2.0, 5)):
        with pytest.raises(PoleError, match=r"at n = 2$"):
            gamma_ratio_partial(*args)
    assert gamma_ratio_partial(1, 1, -2, 2, 2) == reference_gamma_ratio_partial(1, 1, -2, 2, 2)


def reference_gamma_ratio_partial(a, b, c, d, terms):
    """The product with an int counter and a zero test per factor."""
    out = 1.0
    a, b, c, d = float(a), float(b), float(c), float(d)
    for n in range(terms):
        den = (n + c) * (n + d)
        if den == 0:
            raise PoleError(f"zero factor in denominator at n = {n}")
        out *= (n + a) * (n + b) / den
    return out


def test_gamma_ratio_partial_is_bit_identical_to_the_reference():
    rng = random.Random(2)
    for _ in range(300):
        a, b, c = (rng.uniform(-4.0, 4.0) for _ in range(3))
        d = a + b - c
        for terms in (0, 1, 7, 1000):
            try:
                want = reference_gamma_ratio_partial(a, b, c, d, terms)
            except PoleError:
                continue
            assert gamma_ratio_partial(a, b, c, d, terms).hex() == want.hex()


# ---------------------------------------------------------------- row limits


def test_r_partial_closed_form_alpha_half():
    # at t = 1, alpha = 1/2 the product telescopes to -(2l+1)/(2l-1)
    assert r_partial(0, Fraction(1), Fraction(1, 2)) == 1
    for l in range(1, 11):
        got = r_partial(l, Fraction(1), Fraction(1, 2))
        assert got == Fraction(-(2 * l + 1), 2 * l - 1)


def test_r_partial_pole_and_floats():
    with pytest.raises(PoleError):
        r_partial(2, Fraction(1), Fraction(0))
    assert isinstance(r_partial(3, 0.5, 0.5), float)


def test_r_limit_values():
    # Gamma(1/2)^2 / (Gamma(3/4) Gamma(1/4)) = 1/sqrt(2)
    assert abs(r_limit(0.25, 0.5) - 2.0 ** -0.5) < 1e-12
    assert r_limit(Fraction(5, 2), Fraction(1, 2)) == 0.0  # denominator Gamma pole
    with pytest.raises(PoleError):
        r_limit(0.25, 0.0)


def test_r_partial_tends_to_r_limit():
    t, alpha = 0.3, 1.5
    lim = r_limit(t, alpha)
    err1 = abs(r_partial(200, t, alpha) - lim)
    err2 = abs(r_partial(800, t, alpha) - lim)
    assert err1 < 1e-3
    assert err2 < err1


def test_r_limit_is_scaled_s_m():
    # r(t + alpha) = -(Gamma(alpha)^2 / pi) s_m(t) for alpha = (m+1)/2
    for m in range(4):
        alpha = (m + 1) / 2.0
        scale = math.gamma(alpha) ** 2 / math.pi
        for k in range(1, 20):
            t = -0.45 + 0.9 * k / 19.0
            if abs(t) < 1e-9:
                continue
            want = -scale * s_m(t, m)
            assert abs(r_limit(t + alpha, alpha) - want) <= 1e-10 * (1 + abs(want))


# ---------------------------------------------------------------- s_m and S


def test_s_m_values_and_zeros():
    assert s_m(0.5, 0) == 1.0
    assert abs(s_m(0.5, 1) - 2.0 / 3.0) < 1e-15
    assert s_m(3.0, 2) == 0.0
    assert s_m(0, 5) == 0.0
    with pytest.raises(PoleError):
        s_m(-1.0, 2)
    with pytest.raises(DomainError):
        s_m(0.5, -1)


def test_s_m_and_s_m_prime_have_poles_at_minus_one_to_minus_m():
    for f in (s_m, s_m_prime):
        for t in (-1, -3.0):
            with pytest.raises(PoleError, match="is a zero of the denominator$"):
                f(t, 3)


def test_s_m_prime_at_one():
    for m in range(5):
        assert abs(s_m_prime(1.0, m) + math.pi / math.factorial(m + 1)) < 1e-12


def test_s_m_prime_matches_difference_quotient():
    h = 1e-5
    for m in (0, 2):
        for t in (0.2, 0.7, 1.3):
            num = (s_m(t + h, m) - s_m(t - h, m)) / (2 * h)
            assert abs(s_m_prime(t, m) - num) < 1e-8


def test_s_m_prime_at_m_100_matches_mpmath():
    # g = (t+1)...(t+100) is about 1e158 here, so g*g would overflow; the
    # derivative itself is of order 1e-159
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for t in (0.1, 0.5, 1.1):
            want = mp.diff(lambda u: mp.sin(mp.pi * u) / mp.fprod(u + i for i in range(1, 101)), mp.mpf(t))
            assert abs(s_m_prime(t, 100) - want) <= 1e-12 * abs(want)


def test_s_m_and_s_m_prime_reject_an_overflowing_denominator():
    for f in (s_m, s_m_prime):
        with pytest.raises(DomainError, match="overflows"):
            f(1.2, 170)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
    y=st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
)
def test_S_div_symmetric(x, y):
    assert S_div(x, y, 1) == S_div(y, x, 1)


def test_S_div_diagonal_continuation():
    assert S_div(1.0, 1.0, 0) == s_m_prime(1.0, 0)
    assert abs(S_div(0.0, 0.0, 2) - math.pi / 2.0) < 1e-15
    # just off the diagonal the quotient is close to the derivative
    assert abs(S_div(0.4 + 5e-5, 0.4 - 5e-5, 1) - s_m_prime(0.4, 1)) < 1e-7


# ---------------------------------------------------------------- regions


def test_in_W_examples():
    assert in_W((Fraction(1, 2), Fraction(1, 2)), 0)
    assert in_W((0.8, 0.6), 0)
    assert not in_W((1.5, 0.55), 0)  # S < 0 near the far corner
    assert not in_W((0.4, 0.3), 0)  # below the square
    assert not in_W((1.6, 0.6), 0)  # past x1 = alpha + 1
    assert in_W((Fraction(5, 4), Fraction(9, 8)), 1)


def w_edge_axis(alpha):
    """An ascending axis with negative values, ints (a tie of 1 and
    Fraction(1) among them), alpha, alpha + 1 and alpha +- 10^-30."""
    eps = Fraction(1, 10**30)
    values = [Fraction(-3, 2), 0, 1, Fraction(1), Fraction(4, 3), 2, 3, alpha - eps, alpha, alpha + eps,
              alpha + Fraction(1, 7), alpha + Fraction(1, 2), alpha + 1 - eps, alpha + 1, alpha + 1 + eps]
    return sorted(values)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 12, 171])
def test_in_W_raster_matches_point_tests(m):
    # the CLI window [0, alpha + 2] at several grids, and the edge axis
    alpha = Fraction(m + 1, 2)
    axes = [[(alpha + 2) * i / (grid - 1) for i in range(grid)] for grid in (2, 3, 7, 21, 41)]
    for axis in axes + [w_edge_axis(alpha)]:
        rows = list(map(_cells, in_W_raster(axis, m)))
        assert len(rows) == len(axis)
        for i, row in enumerate(rows):
            assert row == [in_W((axis[i], x2), m) for x2 in axis[: i + 1]], (m, i)
    assert any(any(row) for row in rows) and not all(all(row) for row in rows)


def _scaled_sine_reference(mp, m):
    """s~ = m! s_m and its derivative in mpmath, at an mpf t."""
    def s(t):
        return mp.sin(mp.pi * t) / mp.fprod(1 + t / i for i in range(1, m + 1))

    return s, lambda t: mp.diff(s, t)


def test_scaled_sine_intervals_hold_the_exact_values():
    # every node interval holds s~ at the exact t, and every diagonal bound
    # s~'(t) at the exact t: t at 0 and 1, 10^-30 from them, 10^-400 (which
    # rounds to 0.0), and random exact t, for m up to 500
    mp = pytest.importorskip("mpmath")
    rng = random.Random(5)
    den = 10**420
    for m in (0, 1, 2, 5, 11, 12, 20, 170, 171, 500):
        nums = [0, den, den // 10**30, den - den // 10**30, den // 10**400, den // 2, den // 3]
        nums += [den * rng.randrange(1, 997) // 997 for _ in range(8)]
        nodes = limits._ScaledSine(m, den, nums)
        s, prime = _scaled_sine_reference(mp, m)
        with mp.workdps(60):
            for n in nums:
                t = mp.mpf(n) / den
                assert nodes.lo[n] <= s(t) <= nodes.hi[n], (m, n)
                d, e = nodes._prime(nodes.t[n])
                assert abs(d - prime(t)) <= e, (m, n)
            # a node outside [0, 1] is left out
            assert not limits._ScaledSine(m, den, (-1, den + 1)).t


def test_scaled_sine_signs_match_mpmath():
    # sign() against 60-digit divided differences; 0 only where the exact
    # value is within 1e-13 of 0 (here: the zero of s~' at t = 1/2 for m = 0)
    mp = pytest.importorskip("mpmath")
    rng = random.Random(6)
    for m in (0, 1, 3, 12, 40):
        den = 840
        nums = sorted({rng.randrange(den + 1) for _ in range(25)} | {0, den // 2, den})
        nodes = limits._ScaledSine(m, den, nums)
        s, prime = _scaled_sine_reference(mp, m)
        with mp.workdps(60):
            for n1, n2 in itertools.product(nums, repeat=2):
                t1, t2 = mp.mpf(n1) / den, mp.mpf(n2) / den
                exact = prime(t1) if n1 == n2 else (s(t1) - s(t2)) / (t1 - t2)
                signed = nodes.sign(n1, n2)
                if signed:
                    assert signed == mp.sign(exact), (m, n1, n2)
                else:
                    assert abs(exact) < 1e-13, (m, n1, n2)


def test_in_W_raster_signs_m_factorial_S_div_for_m_11_to_14():
    # the absolute deadband on S_div, whose size is about 1/(m+1)!, called
    # square cells members at S_div in [-1e-9, 0); the scaled test signs
    # them as 60-digit mpmath does, and keeps only exact zeros on the float
    # rule
    mp = pytest.importorskip("mpmath")
    rescued = 0
    for m in range(11, 15):
        alpha = Fraction(m + 1, 2)
        s, prime = _scaled_sine_reference(mp, m)
        for grid in (41, 100):
            axis = [(alpha + 2) * i / (grid - 1) for i in range(grid)]
            for i, row in enumerate(map(_cells, in_W_raster(axis, m))):
                for x2, member in zip(axis, row):
                    x1 = axis[i]
                    if not alpha <= x2 <= x1 <= alpha + 1:
                        assert not member
                        continue
                    with mp.workdps(60):
                        t1, t2 = (mp.mpf(v.numerator) / v.denominator for v in (x1 - alpha, x2 - alpha))
                        exact = prime(t1) if t1 == t2 else (s(t1) - s(t2)) / (t1 - t2)
                    if abs(exact) > 1e-40:
                        assert member == (exact > 0), (m, grid, x1, x2)
                        rescued += -1e-9 <= S_div(t1, t2, m) < 0
    assert rescued > 100


def test_in_W_raster_needs_an_ascending_exact_axis():
    with pytest.raises(DomainError, match="exact"):
        next(in_W_raster([Fraction(1), 1.5], 0))
    with pytest.raises(DomainError, match="ascending"):
        next(in_W_raster([Fraction(3, 2), Fraction(1)], 0))
    with pytest.raises(DomainError, match="nonnegative integer"):
        next(in_W_raster([Fraction(1)], -1))


def test_in_G0_rank2_examples():
    assert in_G0_rank2((0.2, 0.1), 0)
    assert in_G0_rank2((1.2, 0.8), 0)
    assert not in_G0_rank2((1.4, 1.2), 0)
    assert not in_G0_rank2((Fraction(7, 5), Fraction(6, 5)), 0)
    assert not in_G0_rank2((0.6, 0.1), 0)  # between the triangle and the square


def test_in_G0_rank2_matches_column_test():
    # the closed-form region equals the phi-positivity set on the chamber
    # box, at exact points and at float points, also 1e-12 off the grid,
    # where both decide at the exact value of the point
    for m in (0, 1):
        alpha = Fraction(m + 1, 2)
        p = Params(2, Fraction(1), alpha)
        top = alpha + 1
        for i in range(13):
            for j in range(i + 1):
                pt = (top * i / 12, top * j / 12)
                assert in_G0_rank2(pt, m) == in_G(pt, p).member, pt
                for e1, e2 in ((0, 0), (0, 1e-12), (-1e-12, 0), (-1e-12, 1e-12), (1e-12, -1e-12)):
                    fpt = (float(pt[0]) + e1, float(pt[1]) + e2)
                    if 0 <= fpt[1] <= fpt[0] <= top:
                        assert in_G0_rank2(fpt, m) == in_G(fpt, p).member, fpt
    # phi_1 < 0 by about 1e-12 here
    p = Params(2, Fraction(1), Fraction(1, 2))
    assert in_G((1.5, 0.5 + 1e-12), p).witness == 1
    assert not in_G0_rank2((1.5, 0.5 + 1e-12), 0)


# ---------------------------------------------------------------- c_l sequence


def test_c_l_sequence_requires_open_square():
    with pytest.raises(DomainError):
        c_l_sequence((0.4, 0.3), 0, 10)
    with pytest.raises(DomainError):
        c_l_sequence((1.0, 0.5), 0, 10)
    with pytest.raises(DomainError):
        c_l_sequence((1.0, 0.8), 0, -1)


def test_c_l_sequence_decreases_and_matches_row_signs():
    for m, pt in ((0, (1.3, 0.7)), (0, (0.9, 0.8)), (1, (1.7, 1.2)), (2, (2.0, 1.6))):
        alpha = Fraction(m + 1, 2)
        p = Params(2, Fraction(1), alpha)
        seq, limit = c_l_sequence(pt, m, 60)
        for a, b in zip(seq, seq[1:]):
            assert b <= a + 1e-12
        assert seq[-1] >= limit - 1e-9
        for l in range(26):
            row = q_poly((l,), (pt[0], pt[1]), p)
            if abs(seq[l]) > 1e-12:
                assert (seq[l] > 0) == (row > 0), (m, pt, l)


def test_c_l_limit_value_and_rate():
    pt = (1.3, 0.7)
    seq, limit = c_l_sequence(pt, 0, 400)
    want = S_div(0.8, 0.2, 0) / ((1.3 + 0.7) * s_m(0.2, 0))
    assert abs(limit - want) < 1e-15
    gap100 = seq[100] - limit
    gap400 = seq[400] - limit
    assert gap100 > gap400 > 0
    # the gap decays like 1/l
    assert 0.5 < (gap100 * 100) / (gap400 * 400) < 2.0


# ---------------------------------------------------------------- crossing


def test_crossing_point_m0_is_half():
    assert abs(crossing_point(0) - 0.5) < 1e-12


def test_crossing_equation_residual_small():
    for m in (0, 1, 3, 7):
        c = crossing_point(m)
        assert abs(crossing_equation(c, m)) < 1e-9


def test_crossing_points_strictly_decrease():
    values = [crossing_point(m) for m in range(21)]
    for a, b in zip(values, values[1:]):
        assert b < a


def test_crossing_point_validation():
    with pytest.raises(DomainError):
        crossing_point(-1)


# ---------------------------------------------------------------- contour


def test_trace_contour_basic_geometry():
    comps = trace_contour(0, 64)
    assert comps and all(isinstance(c, ContourPolyline) for c in comps)
    h = 1.2 / 64
    for comp in comps:
        for (xa, ya), (xb, yb) in zip(comp.points, comp.points[1:]):
            assert 0.0 <= xa <= 1.2 and 0.0 <= ya <= 1.2
            assert math.hypot(xb - xa, yb - ya) <= h * 1.5
    crossings = contour_diagonal_crossings(comps)
    assert any(abs(c - crossing_point(0)) <= 2.0 / 64 for c in crossings)


def test_trace_contour_zero_level_is_tight():
    for comp in trace_contour(1, 48):
        for x, y in comp.points[:: max(1, len(comp.points) // 8)]:
            assert abs(S_div(x, y, 1)) < 0.2


def test_trace_contour_validation():
    with pytest.raises(DomainError):
        trace_contour(0, 8)


def test_contour_csv_format():
    comps = trace_contour(0, 32)
    text = contour_to_csv(comps)
    lines = text.split("\n")
    assert lines[0] == "x,y"
    assert text.endswith("\n")
    blanks = sum(1 for ln in lines if ln == "")
    assert blanks == len(comps) - 1 + 1  # separators plus the final newline
    for ln in lines[1:]:
        if ln:
            x, y = ln.split(",")
            float(x), float(y)


# ---------------------------------------------------------------- certification bridge


def test_certified_witnesses_track_the_limit_region():
    """Points rejected by the limit region get finite-weight certificates:
    weight <= 2 off the square, and the row matching the first c_l sign flip
    inside it (away from the boundary curve, where the needed row grows
    like 1/|c|)."""
    for m in (0, 1):
        alpha = Fraction(m + 1, 2)
        af = float(alpha)
        p = Params(2, Fraction(1), alpha)
        reg = Rank2Regions(alpha + 1, alpha)
        top = af + 1.5
        grid = 24
        accepted_square = []
        for i in range(grid):
            for j in range(i + 1):
                pt = (top * i / (grid - 1), top * j / (grid - 1))
                accepted = in_W(pt, m) or reg.in_T1(pt, tol=1e-12)
                in_sq = af <= pt[1] <= pt[0] <= af + 1.0
                if accepted:
                    if in_sq:
                        accepted_square.append(pt)
                    continue
                if not in_sq:
                    v = in_A_certified(pt, p, 2)
                    assert not v.member and weight(v.witness) <= 2, (m, pt)
                    continue
                seq, limit = c_l_sequence(pt, m, 30)
                if abs(limit) < 0.05:
                    continue
                assert limit < 0
                flip = next(l for l, c in enumerate(seq) if c < 0)
                v = in_A_certified(pt, p, 30)
                assert not v.member and v.witness == (flip,), (m, pt)
        for pt in accepted_square[:5]:
            assert in_A_certified(pt, p, 20).member, (m, pt)


def _march_cell_per_case(x0, x1, y0, y1, f00, f10, f11, f01, node):
    """_march_cell as it was before its table: one closure per edge and an
    if-chain over the 16 masks."""

    def bottom():
        return (x0 + (x1 - x0) * f00 / (f00 - f10), y0)

    def right():
        return (x1, y0 + (y1 - y0) * f10 / (f10 - f11))

    def top():
        return (x0 + (x1 - x0) * f01 / (f01 - f11), y1)

    def left():
        return (x0, y0 + (y1 - y0) * f00 / (f00 - f01))

    mask = (f00 <= 0) | (f10 <= 0) << 1 | (f11 <= 0) << 2 | (f01 <= 0) << 3
    if mask in (0, 15):
        return []
    if mask in (1, 14):
        return [(left(), bottom())]
    if mask in (2, 13):
        return [(bottom(), right())]
    if mask in (3, 12):
        return [(left(), right())]
    if mask in (4, 11):
        return [(right(), top())]
    if mask in (6, 9):
        return [(bottom(), top())]
    if mask in (7, 8):
        return [(top(), left())]
    fmid = node((x0 + x1) / 2.0, (y0 + y1) / 2.0)
    if mask == 5:
        if fmid <= 0:
            return [(left(), top()), (bottom(), right())]
        return [(left(), bottom()), (right(), top())]
    if fmid <= 0:
        return [(left(), bottom()), (right(), top())]
    return [(left(), top()), (bottom(), right())]


def _join_segments_per_step(segments):
    """_join_segments as it was before each endpoint's key was computed once:
    every step of a walk recomputes _key."""
    _key = limits._key
    adj = {}
    for idx, (a, b) in enumerate(segments):
        adj.setdefault(_key(a), []).append(idx)
        adj.setdefault(_key(b), []).append(idx)
    used = [False] * len(segments)

    def walk(start_idx, start_point):
        chain = [start_point]
        idx = start_idx
        point = start_point
        while True:
            used[idx] = True
            a, b = segments[idx]
            point = b if _key(a) == _key(point) else a
            chain.append(point)
            nxt = [j for j in adj.get(_key(point), ()) if not used[j]]
            if not nxt:
                return chain
            idx = nxt[0]

    open_ends = sorted((k, idxs[0]) for k, idxs in adj.items() if len(idxs) == 1)
    out = []
    for k, idx in open_ends:
        if used[idx]:
            continue
        a, b = segments[idx]
        out.append(walk(idx, a if _key(a) == k else b))
    for idx in range(len(segments)):
        if used[idx]:
            continue
        out.append(walk(idx, segments[idx][0]))
    out.sort(key=lambda ch: _key(ch[0]))
    return out


def _trace_contour_all_nodes(m, grid, node=None):
    """trace_contour as a cell-by-cell loop over all (grid+1)^2 node values,
    node(x, y) (by default _div_diff on one s_m table), joined by
    _join_segments_per_step."""
    h = limits._CONTOUR_BOX / grid
    axis = [i * h for i in range(grid + 1)]
    if node is None:
        s_at = limits._s_table(axis, m)
        node = lambda x, y: limits._div_diff(x, y, m, s_at)  # noqa: E731
    nodes = [[node(x, y) for x in axis] for y in axis]
    centre = lambda x, y: S_div(x, y, m)  # noqa: E731
    segments = []
    for j in range(grid):
        y0, y1 = j * h, (j + 1) * h
        for i in range(grid):
            x0, x1 = i * h, (i + 1) * h
            f00, f10 = nodes[j][i], nodes[j][i + 1]
            f01, f11 = nodes[j + 1][i], nodes[j + 1][i + 1]
            if (f00 <= 0) == (f10 <= 0) == (f11 <= 0) == (f01 <= 0):
                continue
            segments.extend(limits._march_cell(x0, x1, y0, y1, f00, f10, f11, f01, centre))
    return [ContourPolyline(tuple(chain)) for chain in _join_segments_per_step(segments)]


def test_trace_contour_matches_S_div_at_every_node():
    # the diagonal nodes i = j take the s_m_prime branch in every grid
    for m in range(5):
        for grid in (16, 37, 96, 120):
            want = _trace_contour_all_nodes(m, grid, lambda x, y: S_div(x, y, m))
            assert trace_contour(m, grid) == want, (m, grid)


# 300, 312, 321 and 348 are the benchmark's contour grids
_ORACLE_GRIDS = (16, 17, 24, 36, 48, 96, 300, 312, 321, 348)


def test_trace_contour_csv_matches_all_nodes_tracer():
    # t = 1.0 lies on the axis of grids 36, 300 and 348, where s_m has ties
    assert 1.0 in [i * (limits._CONTOUR_BOX / 36) for i in range(37)]
    for m in range(6):
        for grid in _ORACLE_GRIDS:
            want = contour_to_csv(_trace_contour_all_nodes(m, grid))
            assert contour_to_csv(trace_contour(m, grid)) == want, (m, grid)


@pytest.mark.parametrize("grid", [36, 348])
def test_inside_rows_sign_every_node(grid):
    h = limits._contour_step(grid)
    axis = [i * h for i in range(grid + 1)]
    for m in range(6):
        s_at = limits._s_table(axis, m)
        if m == 0:  # the tied table values take the s_i == s_j branch
            assert len({s_at(t) for t in axis}) < len(axis)
        rows = list(limits._inside_rows(axis, m, s_at))
        assert len(rows) == grid + 1
        for j, (y, row) in enumerate(zip(axis, rows)):
            want = sum((limits._div_diff(x, y, m, s_at) <= 0) << i for i, x in enumerate(axis))
            assert row == want, (m, grid, j)


def test_join_segments_matches_per_step_keys():
    # closed loops, open chains and a shared vertex, in a scrambled order
    square = [((0.0, 0.0), (1.0, 0.0)), ((1.0, 1.0), (1.0, 0.0)), ((1.0, 1.0), (0.0, 1.0)), ((0.0, 0.0), (0.0, 1.0))]
    chain = [((2.0, 0.5), (3.0, 0.5)), ((4.0, 0.25), (3.0, 0.5)), ((2.0, 0.5), (2.0, -1.0))]
    segments = [chain[1], square[2], chain[0], square[0], square[3], chain[2], square[1]]
    assert limits._join_segments(segments) == _join_segments_per_step(segments)


def test_trace_contour_grid_bound():
    top = limits._CONTOUR_MAX_GRID
    assert limits._CONTOUR_BOX / top >= 2 * limits._DIAG_SWITCH
    for grid in (top + 1, 10**12, 16.0):
        with pytest.raises(DomainError):
            trace_contour(0, grid)


def test_march_cell_reads_the_centre_only_at_saddles():
    # corner k (f00, f10, f11, f01) is inside when bit k of mask is set
    for mask in range(16):
        f00, f10, f11, f01 = [-1.0 if mask >> k & 1 else 1.0 for k in range(4)]
        read = []
        limits._march_cell(0.0, 1.0, 0.0, 1.0, f00, f10, f11, f01, lambda x, y: read.append((x, y)) or 1.0)
        assert read == ([(0.5, 0.5)] if mask in (5, 10) else []), mask


def test_march_cell_table_matches_the_per_case_cell():
    # every mask, both saddle branches and random corner values: the same
    # output tuples, float for float
    rng = random.Random(7)
    for trial in range(400):
        x0, y0 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        x1, y1 = x0 + rng.uniform(1e-6, 2), y0 + rng.uniform(1e-6, 2)
        mask = trial % 16
        fs = [(-1 if mask >> k & 1 else 1) * rng.uniform(1e-9, 5) for k in range(4)]
        if trial % 5 == 0:  # a corner exactly on the level set is inside
            fs[trial // 16 % 4] = 0.0
        for centre in (-1.0, 0.0, 1.0):
            args = (x0, x1, y0, y1, *fs, lambda x, y: centre)
            assert limits._march_cell(*args) == _march_cell_per_case(*args), (mask, fs, centre)


def test_trace_contour_calls_S_div_only_at_saddle_cells(monkeypatch):
    # the four benchmark contours and two others: none of them has a saddle
    # cell, so S_div is never called; before, every crossed cell called it
    calls = []

    def counting(x, y, m):
        calls.append((x, y))
        return S_div(x, y, m)

    monkeypatch.setattr(limits, "S_div", counting)
    for m, grid in ((0, 348), (1, 321), (2, 312), (3, 300), (1, 96), (4, 37)):
        h = limits._CONTOUR_BOX / grid
        axis = [i * h for i in range(grid + 1)]
        s_at = limits._s_table(axis, m)
        inside = [[limits._div_diff(x, y, m, s_at) <= 0 for x in axis] for y in axis]
        saddles = [
            ((axis[i] + axis[i + 1]) / 2.0, (axis[j] + axis[j + 1]) / 2.0)
            for j in range(grid)
            for i in range(grid)
            if inside[j][i] == inside[j + 1][i + 1] != inside[j][i + 1] == inside[j + 1][i]
        ]
        calls.clear()
        trace_contour(m, grid)
        assert calls == saddles, (m, grid)
