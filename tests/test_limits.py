import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcinterp import limits
from bcinterp.exactnum import DomainError, PoleError
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


def test_gamma_ratio_identity_needs_balance():
    with pytest.raises(DomainError):
        gamma_ratio_identity(1.0, 1.0, 1.0, 1.5)


def test_gamma_ratio_partial_converges():
    args = (0.75, 1.75, 1.25, 1.25)
    exact = gamma_ratio_identity(*args)
    err1 = abs(gamma_ratio_partial(*args, terms=10000) - exact)
    err2 = abs(gamma_ratio_partial(*args, terms=40000) - exact)
    assert err1 < 1e-3
    assert err2 < err1


def test_gamma_ratio_partial_pole():
    with pytest.raises(PoleError):
        gamma_ratio_partial(1.0, 1.0, 0.0, 2.0, terms=3)


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


def test_s_m_prime_at_one():
    for m in range(5):
        assert abs(s_m_prime(1.0, m) + math.pi / math.factorial(m + 1)) < 1e-12


def test_s_m_prime_matches_difference_quotient():
    h = 1e-5
    for m in (0, 2):
        for t in (0.2, 0.7, 1.3):
            num = (s_m(t + h, m) - s_m(t - h, m)) / (2 * h)
            assert abs(s_m_prime(t, m) - num) < 1e-8


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


def test_in_G0_rank2_examples():
    assert in_G0_rank2((0.2, 0.1), 0)
    assert in_G0_rank2((1.2, 0.8), 0)
    assert not in_G0_rank2((1.4, 1.2), 0)
    assert not in_G0_rank2((Fraction(7, 5), Fraction(6, 5)), 0)
    assert not in_G0_rank2((0.6, 0.1), 0)  # between the triangle and the square


def test_in_G0_rank2_matches_column_test():
    # the closed-form region equals the phi-positivity set on the chamber box
    for m in (0, 1):
        alpha = Fraction(m + 1, 2)
        p = Params(2, Fraction(1), alpha)
        top = alpha + 1
        for i in range(13):
            for j in range(i + 1):
                pt = (top * i / 12, top * j / 12)
                assert in_G0_rank2(pt, m) == in_G(pt, p).member, pt


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


def _trace_contour_reference(m, grid):
    """trace_contour with the node table built by S_div at every node."""
    h = limits._CONTOUR_BOX / grid
    nodes = [[S_div(i * h, j * h, m) for i in range(grid + 1)] for j in range(grid + 1)]
    segments = []
    for j in range(grid):
        y0, y1 = j * h, (j + 1) * h
        for i in range(grid):
            x0, x1 = i * h, (i + 1) * h
            f00, f10 = nodes[j][i], nodes[j][i + 1]
            f01, f11 = nodes[j + 1][i], nodes[j + 1][i + 1]
            if (f00 <= 0) == (f10 <= 0) == (f11 <= 0) == (f01 <= 0):
                continue
            fmid = S_div((x0 + x1) / 2.0, (y0 + y1) / 2.0, m)
            segments.extend(limits._march_cell(x0, x1, y0, y1, f00, f10, f11, f01, fmid))
    return [ContourPolyline(tuple(chain)) for chain in limits._join_segments(segments)]


def test_trace_contour_matches_S_div_at_every_node():
    # the diagonal nodes i = j take the s_m_prime branch in every grid
    for m in range(5):
        for grid in (16, 37, 96, 120):
            assert trace_contour(m, grid) == _trace_contour_reference(m, grid), (m, grid)
