import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcinterp.exactnum import DomainError, _cells, _over_common
from bcinterp.limits import in_W, in_W_raster
from bcinterp.okounkov import Params, column_poly, k_constant, okounkov_eval
from bcinterp.partitions import enumerate_Lambda
from bcinterp.shimura import (
    GroupData,
    Verdict,
    group_params,
    in_A_certified,
    in_G,
    in_U0_knapp_speh,
    in_U0_raster,
    in_square,
    in_square_raster,
    phi_j,
    q_poly,
    shimura_eigenvalue,
)

SU22 = GroupData(2, 2, 0)
P22 = group_params(SU22)

coords_st = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def rational_points(n, count, seed):
    rng = random.Random(seed)
    return [
        tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))) for _ in range(n))
        for _ in range(count)
    ]


# ---------------------------------------------------------------- dictionary


def test_group_params_u_m_2():
    # U(m,2): n=2, d=2, b=m-2 gives rho = ((m+1)/2, (m-1)/2)
    for m in (2, 3, 4, 7):
        p = group_params(GroupData(2, 2, m - 2))
        assert p.tau == 1
        assert p.rho == (Fraction(m + 1, 2), Fraction(m - 1, 2))


def test_group_params_twist():
    p = group_params(GroupData(2, 2, 0, p=1))
    assert p.alpha == 1
    assert group_params(GroupData(3, 4, 2)).tau == 2


def test_group_data_validation():
    with pytest.raises(DomainError):
        GroupData(0, 2, 0)
    with pytest.raises(DomainError):
        GroupData(2, -1, 0)
    with pytest.raises(DomainError):
        GroupData(2, 2, -1)


# ---------------------------------------------------------------- eigenvalues


def test_eigenvalue_normalization():
    for pt in rational_points(2, 4, seed=1):
        assert shimura_eigenvalue((), pt, SU22) == 1


def test_eigenvalue_vanishes_below_own_node():
    for mu in ((1,), (1, 1), (2,)):
        assert shimura_eigenvalue(mu, P22.rho, SU22) == 0
    assert shimura_eigenvalue((1, 1), P22.node((1,)), SU22) == 0


def test_eigenvalue_is_scaled_interpolation_value():
    g = GroupData(2, 4, 1)
    p = group_params(g)
    for mu in enumerate_Lambda(2, 3):
        for pt in rational_points(2, 3, seed=5):
            expect = k_constant(mu, p.tau) * okounkov_eval(mu, pt, p)
            assert shimura_eigenvalue(mu, pt, g) == expect


# ---------------------------------------------------------------- signed values


def test_q_poly_sign_convention():
    for pt in rational_points(2, 5, seed=9):
        assert q_poly((1,), pt, P22) == -okounkov_eval((1,), pt, P22)
        assert q_poly((1, 1), pt, P22) == okounkov_eval((1, 1), pt, P22)


def test_q_poly_positive_on_origin():
    origin = (Fraction(0), Fraction(0))
    for lam in enumerate_Lambda(2, 4):
        assert q_poly(lam, origin, P22) > 0


@settings(max_examples=50, deadline=None)
@given(j=st.sampled_from([1, 2]), x1=coords_st, x2=coords_st)
def test_phi_j_is_q_of_column(j, x1, x2):
    want = (-1) ** j * column_poly(j, (x1, x2), P22)
    assert phi_j(j, (x1, x2), P22) == q_poly((1,) * j, (x1, x2), P22) == want


def test_phi_j_rank3():
    p = group_params(GroupData(3, 2, 1))
    for j in (1, 2, 3):
        for pt in rational_points(3, 4, seed=j):
            assert phi_j(j, pt, p) == q_poly((1,) * j, pt, p) == (-1) ** j * column_poly(j, pt, p)


def test_phi_j_rejects_bad_height():
    with pytest.raises(DomainError):
        phi_j(0, (Fraction(1), Fraction(1)), P22)
    with pytest.raises(DomainError):
        phi_j(3, (Fraction(1), Fraction(1)), P22)


# ---------------------------------------------------------------- membership


def test_in_G_accepts_interior_point():
    v = in_G((Fraction(1, 2), Fraction(1, 4)), P22)
    assert v.member
    assert v.witness is None
    assert v.degree_checked == 2
    assert v.witness_str() is None


def test_in_G_first_failing_column():
    # phi_1(1.6, 0.2) = -1/10 here, so the witness is j=1 (phi_2 fails too)
    v = in_G((1.6, 0.2), P22)
    assert not v.member
    assert v.witness == 1
    assert v.to_json() == {"member": False, "witness": "1", "degree_checked": 2}
    exact = in_G((Fraction(8, 5), Fraction(1, 5)), P22)
    assert not exact.member and exact.witness == 1


def test_in_G_boundary_is_member():
    assert in_G(P22.rho, P22).member
    assert in_G((1.5, 0.5), P22).member


def test_in_A_certified_small_square():
    v = in_A_certified((Fraction(1, 2), Fraction(1, 4)), P22, 4)
    assert v.member and v.degree_checked == 4
    bad = in_A_certified((1.6, 0.2), P22, 4)
    assert not bad.member
    assert bad.witness == (1,)
    assert bad.witness_str() == "1"
    with pytest.raises(DomainError):
        in_A_certified((1.6, 0.2), P22, 0)


def test_in_A_subset_of_in_G_on_grid():
    p = group_params(GroupData(2, 2, 2))
    top = p.rho[0] + 1
    for i in range(9):
        for k in range(i + 1):
            pt = (top * i / 8, top * k / 8)
            if in_A_certified(pt, p, 4).member:
                assert in_G(pt, p).member


def test_in_square():
    assert in_square((Fraction(1, 2), Fraction(1, 4)), P22)
    assert in_square((Fraction(1, 2), Fraction(1, 2)), P22)
    assert not in_square((Fraction(1, 4), Fraction(1, 2)), P22)  # increasing
    assert not in_square((Fraction(3, 2), Fraction(1, 2)), P22)  # above rho_2
    assert not in_square((Fraction(1, 2), Fraction(-1, 4)), P22)


def test_in_U0_base_triangle_and_clamp():
    assert in_U0_knapp_speh((Fraction(3, 10), Fraction(1, 10)), 0)
    # the b=0 box is [0,1/2]^2, so the printed triangle corner is cut off
    assert not in_U0_knapp_speh((0.9, 0.05), 0)
    assert not in_U0_knapp_speh((Fraction(4, 5), Fraction(2, 5)), 1)


def test_in_U0_shifted_triangles_and_segments():
    assert in_U0_knapp_speh((Fraction(3, 2), Fraction(1, 2)), 5)
    assert not in_U0_knapp_speh((Fraction(2), Fraction(1, 2)), 5)
    assert in_U0_knapp_speh((Fraction(5, 2), Fraction(1, 2)), 5)
    # the j=1 segment for b=3 extends past the j=1 triangle
    assert in_U0_knapp_speh((Fraction(7, 4), Fraction(3, 4)), 3)
    assert not in_U0_knapp_speh((Fraction(7, 4), Fraction(5, 8)), 3)
    with pytest.raises(DomainError):
        in_U0_knapp_speh((Fraction(0), Fraction(0)), -1)


def test_in_U0_segment_is_exact_at_exact_points():
    # b=3: the j=1 segment x1 - x2 = 1 runs past the j=1 triangle
    assert in_U0_knapp_speh((Fraction(7, 4), Fraction(3, 4)), 3)
    off = (Fraction(7, 4) + Fraction(1, 10**12), Fraction(3, 4))
    assert not in_U0_knapp_speh(off, 3)
    # a float point is decided at the binary rational it holds: off the
    # segment by 1e-12, or by 2^-52 for (2.3, 1.3) with b = 4, is off it,
    # and a binary-exact point on the segment is on it
    assert not in_U0_knapp_speh((float(off[0]), float(off[1])), 3)
    assert Fraction(2.3) - Fraction(1.3) != 1 and not in_U0_knapp_speh((2.3, 1.3), 4)
    assert in_U0_knapp_speh((1.75, 0.75), 3) and in_U0_knapp_speh((2.5, 1.5), 4)


def edge_axis(alpha):
    """An ascending axis with negative values, ints (a tie of 0 and
    Fraction(0) among them), alpha, alpha + 1, alpha +- 10^-30 and points
    an integer apart, so that the U0 segments x1 - x2 = j meet nodes."""
    eps = Fraction(1, 10**30)
    values = [Fraction(-3, 2), -1, 0, Fraction(0), eps, Fraction(1, 3), Fraction(1, 2), 1, Fraction(4, 3), 2, 3,
              alpha - 2, alpha - 1, alpha - eps, alpha, alpha + eps, alpha + 1 - eps, alpha + 1, alpha + 1 + eps]
    return sorted(values)


def cli_axis(top, grid):
    return [top * i / (grid - 1) for i in range(grid)]


def assert_rows_match(rows, axis, test):
    """Row i of the raster rows, expanded from its runs, is the point tests
    of (axis[i], x2) for x2 in axis[:i + 1]."""
    rows = list(map(_cells, rows))
    assert len(rows) == len(axis)
    for i, row in enumerate(rows):
        assert row == [test((axis[i], x2)) for x2 in axis[: i + 1]], (i, axis[i])


@pytest.mark.parametrize("b", range(8))
def test_in_U0_raster_matches_point_tests(b):
    # the CLI windows of d = 1..4; grid 41 of 2,2,3 and 2,1,4 (top 4) and
    # grid 33 of 2,2,7 (top 6) put segments x1 - x2 = j on nodes
    test = lambda pt: in_U0_knapp_speh(pt, b)
    for d in range(1, 5):
        top = group_params(GroupData(2, d, b)).rho[0] + 1
        for grid in (2, 7, 33, 41):
            assert_rows_match(in_U0_raster(cli_axis(top, grid), b), cli_axis(top, grid), test)
    axis = edge_axis(Fraction(b + 1, 2))
    assert_rows_match(in_U0_raster(axis, b), axis, test)


def in_U0_per_condition(pt, b):
    """in_U0_knapp_speh as it was before it shared its row rule with
    in_U0_raster: the box, the base triangle, then per j a shifted
    triangle or a segment."""
    x1, x2 = map(Fraction, pt)
    if not 0 <= x2 <= x1 <= Fraction(b + 1, 2):
        return False
    if x1 + x2 <= 1:
        return True
    k = (b - 1) // 2 if b >= 3 else 0
    return any(x1 - x2 >= j and x1 + x2 <= j + 1 or x1 - x2 == j for j in range(1, k + 1))


@pytest.mark.parametrize("b", range(8))
def test_in_U0_row_rule_matches_the_per_condition_test(b):
    # every ordered pair of the edge axis and of the grid-41 CLI axes, so
    # points off the chamber, on the segments and on triangle edges, and
    # the same points as floats
    axes = [edge_axis(Fraction(b + 1, 2))]
    axes += [cli_axis(group_params(GroupData(2, d, b)).rho[0] + 1, 41) for d in (1, 2, 4)]
    for axis in axes:
        for pt in itertools.product(axis, repeat=2):
            want = in_U0_per_condition(pt, b)
            assert in_U0_knapp_speh(pt, b) == want, pt
            floats = tuple(map(float, pt))
            assert in_U0_knapp_speh(floats, b) == in_U0_per_condition(floats, b), floats


def test_in_U0_raster_hits_segment_nodes():
    # b = 3, d = 2: the window is [0, 4] and grid 41 steps by 1/10, so the
    # j = 1 segment past its triangle is on the grid: in the row x1 = 17/10
    # the triangle ends at x2 = 3/10 and the segment holds x2 = 7/10 alone
    axis = cli_axis(Fraction(4), 41)
    row = _cells(list(in_U0_raster(axis, 3))[17])
    assert [j for j, member in enumerate(row) if member] == [0, 1, 2, 3, 7]


@pytest.mark.parametrize("g", [GroupData(2, 1, 0), GroupData(2, 2, 3), GroupData(2, 4, 1, 1), GroupData(2, 3, 2, -3),
                               GroupData(2, 6, 0, -3), GroupData(2, 6, 5, 2)])
def test_in_square_raster_matches_point_tests(g):
    p = group_params(g)
    test = lambda pt: in_square(pt, p)
    for grid in (2, 7, 21):
        axis = cli_axis(p.rho[0] + 1, grid)
        assert_rows_match(in_square_raster(axis, p), axis, test)
    axis = edge_axis(p.alpha)
    assert_rows_match(in_square_raster(axis, p), axis, test)


def odd_denominator_axis(edges, q):
    """An ascending axis over the odd denominator q: -1, 0 and, for each
    edge c, the points k/q from one below floor(c q) to two above it, so c
    itself where c q is an integer and otherwise its two neighbours, with
    one more point on either side."""
    values = {Fraction(-1), Fraction(0)}
    for c in edges:
        n = c.numerator * q // c.denominator
        values.update(Fraction(k, q) for k in range(n - 1, n + 3))
    axis = sorted(values)
    assert _over_common(axis)[0] % 2 == 1
    return axis


@pytest.mark.parametrize("q", [3, 7, 5**43])
def test_row_range_rasters_at_their_integer_bounds(q):
    # the rasters bound a row by floor or ceil of an edge times the axis
    # denominator Q. With Q odd, alpha = (m+1)/2 (m even) and rho2 = (b+1)/2
    # (b even) fall between two axis points, and an integer edge is on the
    # axis with points 1/Q (about 10^-30 for 5^43) on either side; the
    # edge-axis tests hold each edge itself and 10^-30 off it
    for m in range(4):
        alpha = Fraction(m + 1, 2)
        axis = odd_denominator_axis([alpha, alpha + 1], q)
        assert_rows_match(in_W_raster(axis, m), axis, lambda pt: in_W(pt, m))
    for b in (0, 2, 4, 6):
        axis = odd_denominator_axis([Fraction(b + 1, 2), *range(1, b // 2 + 1)], q)  # rho2 and the shifts j
        assert_rows_match(in_U0_raster(axis, b), axis, lambda pt: in_U0_knapp_speh(pt, b))
    for g in (GroupData(2, 1, 0), GroupData(2, 2, 3, 1), GroupData(2, 3, 2, -2)):
        p = group_params(g)
        axis = odd_denominator_axis([p.alpha], q)
        assert_rows_match(in_square_raster(axis, p), axis, lambda pt: in_square(pt, p))


def test_row_rasters_need_an_ascending_exact_axis():
    for rows in (lambda axis: in_U0_raster(axis, 3), lambda axis: in_square_raster(axis, P22)):
        with pytest.raises(DomainError, match="exact"):
            next(rows([Fraction(0), 0.5]))
        with pytest.raises(DomainError, match="ascending"):
            next(rows([Fraction(1), Fraction(1, 2)]))
    with pytest.raises(DomainError, match="rank 2"):
        next(in_square_raster([Fraction(1)], group_params(GroupData(3, 1, 1))))
    with pytest.raises(DomainError, match="b >= 0"):
        next(in_U0_raster([Fraction(1)], -1))


def test_u0_inside_certified_set():
    # spot check the embedding on the b=3 family
    g = GroupData(2, 2, 3)
    p = group_params(g)
    for pt in [
        (Fraction(1, 2), Fraction(1, 4)),
        (Fraction(3, 2), Fraction(1, 2)),
        (Fraction(7, 4), Fraction(3, 4)),
    ]:
        assert in_U0_knapp_speh(pt, 3)
        assert in_A_certified(pt, p, 4).member


def test_verdict_json_roundtrip():
    v = Verdict(True, None, 6)
    assert v.to_json() == {"member": True, "witness": None, "degree_checked": 6}
    w = Verdict(False, (2, 1), 6)
    assert w.witness_str() == "2,1"
