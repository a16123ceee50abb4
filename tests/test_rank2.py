import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcinterp import rank2
from bcinterp.cli import main
from bcinterp.exactnum import SIGN_DEADBAND, DomainError, PoleError, poch_pm
from bcinterp.okounkov import Params
from bcinterp.rank2 import (
    HYP_MAX_TERMS,
    HypSeriesSpec,
    Rank2Regions,
    R_closed_form_b0,
    R_midpoint_telescoped,
    R_series,
    hyp_sum,
    in_B,
    q_rank2,
    q_rank2_partial_d2,
)
from bcinterp.shimura import q_poly

RHO_SU22 = (Fraction(3, 2), Fraction(1, 2))


# ---------------------------------------------------------------- hyp_sum


def test_truncated_sum_is_exact():
    # Chu-Vandermonde: 2F1(-2, 1/2; 1) = (1/2)_2 / (1)_2
    spec = HypSeriesSpec((Fraction(-2), Fraction(1, 2)), (Fraction(1),), truncation=2)
    got = hyp_sum(spec)
    assert got == Fraction(3, 8)
    assert isinstance(got, Fraction)


def test_terminating_upper_parameter_stops_series():
    spec = HypSeriesSpec((-2.0, 0.5), (1.0,))
    assert abs(hyp_sum(spec) - 0.375) < 1e-15
    # the whole tail dies with the zero term
    assert hyp_sum(HypSeriesSpec((-1.0,), ())) == 0.0


def test_terminating_beats_lower_pole():
    # upper kills the series at k=1, before the lower parameter reaches zero
    spec = HypSeriesSpec((Fraction(-1), Fraction(5)), (Fraction(-2),), truncation=4)
    assert hyp_sum(spec) == Fraction(7, 2)


def test_gauss_value_at_unit_argument():
    # 2F1(1/2, 1/2; 7/2) = Gamma(7/2) Gamma(5/2) / Gamma(3)^2 = 45 pi / 128
    spec = HypSeriesSpec((0.5, 0.5), (3.5,))
    assert abs(hyp_sum(spec) - 45.0 * math.pi / 128.0) < 1e-9


def test_divergent_specs_rejected():
    with pytest.raises(DomainError):
        hyp_sum(HypSeriesSpec((1.0, 1.0, 1.0), (1.0,)))
    with pytest.raises(DomainError):
        hyp_sum(HypSeriesSpec((1.0, 2.0), (3.0,)))  # zero parameter excess
    with pytest.raises(DomainError):
        HypSeriesSpec((1.0,), (2.0,), truncation=-1)


def test_lower_pole_raises():
    spec = HypSeriesSpec((Fraction(1, 2), Fraction(1, 3)), (Fraction(-2),), truncation=5)
    with pytest.raises(PoleError):
        hyp_sum(spec)


def test_float_parameters_give_float():
    got = hyp_sum(HypSeriesSpec((0.5,), (1.5,), truncation=3))
    assert isinstance(got, float)
    assert HYP_MAX_TERMS == 100000


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


def test_R_series_matches_reference_values():
    mp = pytest.importorskip("mpmath")
    mp_ctx = mp.mp
    mp_ctx.dps = 25
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
        ref = mp.hyper(
            [r2 + x2, r2 - x2, d / 2.0],
            [r1 + x1, r1 - x1],
            1,
        )
        assert abs(R_series(pt, d, rho) - float(ref)) <= 5e-12 * (1 + abs(float(ref)))
        value, radius = rank2._R_enclosure(*rank2._R_parameters(pt, d, rho))
        assert abs(mp_ctx.mpf(value) - ref) <= radius, (pt, d, rho)


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
        partials = [hyp_sum(HypSeriesSpec(upper, lower, truncation=m)) for m in range(11)]
        assert partials[0] == 1
        for a, b in zip(partials, partials[1:]):
            assert b < a
        for v in partials:
            assert float(v) >= limit - 1e-9


def test_partial_d2_is_prefactor_times_partial_sum():
    rho = (Fraction(7, 4), Fraction(3, 4))
    pt = (Fraction(5, 4), Fraction(1))
    for m in range(4):
        series = hyp_sum(
            HypSeriesSpec(
                (rho[1] + pt[1], rho[1] - pt[1], Fraction(1)),
                (rho[0] + pt[0], rho[0] - pt[0]),
                truncation=m,
            )
        )
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


def _in_B_always_summing(pt, d, rho):
    """in_B without the term-sign rule: the same polynomial gates and pole
    whisker, then the boundary series at every point that passes them."""
    x1, x2 = pt
    r1, r2 = rho
    if isinstance(x1, Fraction) and isinstance(x2, Fraction):
        if _fraction_gates_fail(pt, rho):
            return False
    else:
        q10 = r1 * r1 + r2 * r2 - x1 * x1 - x2 * x2
        q11 = (r2 * r2 - x1 * x1) * (r2 * r2 - x2 * x2)
        scale10 = float(r1 * r1 + r2 * r2) + x1 * x1 + x2 * x2
        fac1 = float(r2 * r2) + x1 * x1
        fac2 = float(r2 * r2) + x2 * x2
        if q10 < -SIGN_DEADBAND * (1.0 + scale10) or q11 < -SIGN_DEADBAND * (1.0 + fac1 * fac2):
            return False
    if float(r1) - float(x1) < 1e-6:
        return True
    value = R_series((float(x1), float(x2)), d, (float(r1), float(r2)), rel_tol=1e-8)
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
    for d, b in GROUPS_DB:
        rho = _group_rho(d, b)
        for pt in _window_points(rho):
            fpt = (float(pt[0]), float(pt[1]))
            assert in_B(pt, d, rho) == _in_B_always_summing(pt, d, rho), (d, b, pt)
            assert in_B(fpt, d, rho) == _in_B_always_summing(fpt, d, rho), (d, b, fpt)


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


def test_in_B_sums_the_series_only_in_T2(monkeypatch):
    calls = []
    enclosure = rank2._R_enclosure

    def counting_R_enclosure(*args):
        calls.append(args)
        return enclosure(*args)

    monkeypatch.setattr(rank2, "_R_enclosure", counting_R_enclosure)
    for d, b in GROUPS_DB:
        rho = _group_rho(d, b)
        for pt in _window_points(rho):
            if abs(pt[1]) <= rho[1]:
                for p in (pt, (float(pt[0]), float(pt[1]))):
                    in_B(p, d, rho)
                    assert not calls, (d, b, p)
        # a T2 point that passes both gates and is away from the pole
        t2 = (rho[1] + Fraction(1, 8), rho[1] + Fraction(1, 8))
        for p in (t2, (float(t2[0]), float(t2[1])), (t2[0], -t2[1])):
            assert in_B(p, d, rho)
            assert len(calls) == 1, (d, b, p)
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
            value, radius = rank2._R_enclosure(*rank2._R_parameters(fpt, d, frho))
            assert abs(R_series(fpt, d, frho) - value) <= radius, (d, b, fpt)
            checked += 1
    assert checked > 150


@pytest.mark.parametrize("pt, d, rho", [((1.66, 1.58), 4, (2.5, 0.5)), ((1.0, 0.98), 2, (1.5, 0.5))])
def test_R_enclosure_where_the_first_tail_bound_fails(pt, d, rho):
    # the cubics fail at K = 32 here; bounds from sigma and sigma' alone
    # would miss R
    value, radius = rank2._R_enclosure(*rank2._R_parameters(pt, d, rho))
    assert abs(R_series(pt, d, rho) - value) <= radius


@pytest.mark.parametrize("u, l", [((2.0, -1.0, 1.0), (3.0, 0.5)), ((40.5, -32.0, 0.5), (45.25, 3.75))])
def test_R_enclosure_at_a_terminating_series(u, l):
    # the terms die after t_(-u1); the exact finite sum is the value
    exact = hyp_sum(HypSeriesSpec(tuple(map(Fraction, u)), tuple(map(Fraction, l)), truncation=int(-u[1])))
    value, radius = rank2._R_enclosure(u, l, 1.0 + sum(l) - sum(u))
    assert abs(Fraction(value) - exact) <= Fraction(radius) < 1e-7


def test_R_enclosure_gives_up_on_an_underflowed_term():
    # t_2 underflows to 0 with no zero factor: nothing bounds the tail
    u, l = (2.0, -1.5, 0.5), (1e170, 1e170)
    assert rank2._R_enclosure(u, l, 1.0 + sum(l) - sum(u))[1] == math.inf


def test_in_B_near_the_pole_decides_from_the_series():
    # float points that pass the gates within a hair of rho1 used to be
    # members by a 1e-6 whisker; the series is negative at this one
    rho = (Fraction(5, 4), Fraction(3, 4))
    pt = (1.25 - 1e-12, 0.75 + 1e-12)
    assert R_series(pt, 1, (1.25, 0.75), rel_tol=1e-8) < -0.3
    assert not in_B(pt, 1, rho)
    # a float point past rho1 inside the gates' deadband gets the exact
    # gates, which it fails; rho and its mirror are members
    assert not in_B((1.5 + 1e-12, 0.5), 2, RHO_SU22)
    assert in_B((1.5, 0.5), 2, RHO_SU22) and in_B((1.5, -0.5), 2, RHO_SU22)


def test_in_B_exact_T1_point_within_float_rounding_of_rho1():
    # float(x1) == float(rho1) here, so the float series parameter rho1 - x1
    # is 0; the exact point has |x2| <= rho2, every term is >= 0 and R >= 1
    rho = (Fraction(4, 3), Fraction(1, 3))
    pt = (Fraction(4, 3) - Fraction(1, 10**20), Fraction(1, 3))
    assert float(pt[0]) == float(rho[0])
    with pytest.raises(DomainError):
        R_series(pt, 2, rho)
    assert in_B(pt, 2, rho)
    assert in_B((pt[0], -pt[1]), 2, rho)


def _counting_R_series(monkeypatch):
    calls = []

    def counting(pt, *args, **kwargs):
        calls.append(pt)
        return R_series(pt, *args, **kwargs)

    monkeypatch.setattr(rank2, "R_series", counting)
    return calls


def test_region_rank2_B_rasters_never_need_the_fallback(monkeypatch, capsys):
    calls = _counting_R_series(monkeypatch)
    for group in ("2,1,2", "2,2,3"):
        assert main(["region", "--kind", "rank2-B", "--group", group, "--grid", "100"]) == 0
    capsys.readouterr()
    assert calls == []


def test_region_rank2_B_falls_back_where_R_vanishes(monkeypatch, capsys):
    # R is exactly 0 at (1, 1) for group 2,2,0, so no enclosure signs it
    calls = _counting_R_series(monkeypatch)
    assert main(["region", "--kind", "rank2-B", "--group", "2,2,0", "--grid", "6"]) == 0
    assert "1,1,1," in capsys.readouterr().out.splitlines()
    assert calls == [(1.0, 1.0)]


def test_region_rank2_B_matches_the_oracles(capsys):
    # the raster end to end: Fraction gates plus the always-summing series
    grid = 21
    for group in ("2,1,2", "2,2,3", "2,3,0"):
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


# ---------------------------------------------------------------- in_B gates


class _PastGates(Exception):
    """Raised by a stand-in for _R_parameters: in_B got past both gates."""


def _past_gates(*args):
    raise _PastGates


def _in_B_gates_fail(pt, rho):
    """Whether in_B rejects pt at its polynomial gates. With _R_parameters
    replaced, in_B returns False only from a gate, returns True only from
    the exact rule at rho after both gates, and otherwise raises _PastGates."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rank2, "_R_parameters", _past_gates)
        try:
            return not in_B(pt, 1, rho)
        except _PastGates:
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
    # squares that overflow used to turn the deadband test into
    # -inf < -inf and pass the gates; those points get the exact gates
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
