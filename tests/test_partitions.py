from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcinterp.exactnum import ArgumentError, DomainError, PoleError, is_exact
from bcinterp.okounkov import Params, _compiled_terms
from bcinterp.partitions import _psi_pair
from bcinterp.partitions import (
    ReverseTableau,
    arm,
    cells,
    conjugate,
    contains,
    enumerate_Lambda,
    format_partition,
    leg,
    normalize,
    parse_partition,
    psi_skew,
    psi_tableau,
    reverse_tableaux,
    weight,
)

partitions_st = st.lists(st.integers(min_value=0, max_value=6), max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


# ---------------------------------------------------------------- basics


def test_normalize_strips_trailing_zeros():
    assert normalize([3, 1, 0, 0]) == (3, 1)
    assert normalize(()) == ()


def test_normalize_rejects_increases():
    with pytest.raises(DomainError):
        normalize([1, 2])


def test_parse_and_format_round_trip():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("") == ()
    assert format_partition((2, 1)) == "2,1"
    assert format_partition(()) == ""


def test_parse_rejects_garbage():
    with pytest.raises(DomainError, match="not a partition"):
        parse_partition("1,2")
    with pytest.raises(DomainError):
        parse_partition("a,b")


def test_containment():
    assert contains((3, 2), (2, 2))
    assert contains((3, 2), ())
    assert not contains((3, 2), (1, 1, 1))
    assert not contains((2,), (3,))


def test_conjugate_involution():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(conjugate((4, 2, 1))) == (4, 2, 1)


@given(partitions_st, partitions_st)
def test_containment_matches_conjugate_containment(lam, mu):
    assert contains(lam, mu) == contains(conjugate(lam), conjugate(mu))


def test_cell_statistics():
    lam = (4, 2, 1)
    assert arm(lam, (1, 1)) == 3
    assert leg(lam, (1, 1)) == 2
    assert arm(lam, (2, 2)) == 0
    assert leg(lam, (2, 1)) == 1


def test_cells_row_major():
    assert list(cells((2, 1))) == [(1, 1), (1, 2), (2, 1)]


def test_cell_outside_diagram_rejected():
    with pytest.raises(DomainError):
        arm((2, 1), (2, 2))


@given(partitions_st)
def test_arm_leg_swap_under_conjugation(lam):
    for i, j in cells(lam):
        assert arm(lam, (i, j)) == leg(conjugate(lam), (j, i))


# ---------------------------------------------------------------- enumeration


def test_enumerate_order_is_frozen():
    assert enumerate_Lambda(2, 2) == [(), (1,), (2,), (1, 1)]
    assert enumerate_Lambda(1, 3) == [(), (1,), (2,), (3,)]


def test_enumerate_respects_length_bound():
    for lam in enumerate_Lambda(2, 5):
        assert len(lam) <= 2
        assert weight(lam) <= 5


def test_enumerate_graded():
    got = enumerate_Lambda(3, 4)
    weights = [weight(lam) for lam in got]
    assert weights == sorted(weights)
    assert len(got) == len(set(got))
    assert (2, 1, 1) in got and (1, 1, 1, 1) not in got


# ---------------------------------------------------------------- tableaux


def test_empty_shape_has_one_tableau():
    tabs = list(reverse_tableaux((), 2))
    assert len(tabs) == 1
    assert tabs[0].rows == ()


def test_too_many_rows_gives_none():
    assert list(reverse_tableaux((1, 1, 1), 2)) == []


def test_single_row_count():
    # weakly decreasing words over {1,2} of length 3
    assert len(list(reverse_tableaux((3,), 2))) == 4


def test_column_strict():
    tabs = list(reverse_tableaux((2, 2), 2))
    assert len(tabs) == 1
    t = tabs[0]
    assert t.entry(1, 1) > t.entry(2, 1)
    assert t.entry(1, 2) > t.entry(2, 2)


def test_chain_shapes_nest():
    for t in reverse_tableaux((2, 1), 3):
        shapes = t.chain(3)
        assert shapes[0] == (2, 1)
        assert shapes[-1] == ()
        for big, small in zip(shapes, shapes[1:]):
            assert contains(big, small)


def test_tableau_count_2_1_three_vars():
    assert len(list(reverse_tableaux((2, 1), 3))) == 8


def reference_reverse_tableaux(lam, n):
    """Every reverse tableau of shape lam over {1..n} as its tuple rows, in
    reading-word order, filled cell by cell with the bounds checked at each
    cell: the oracle for reverse_tableaux."""
    rows = [[0] * part for part in lam]
    order = cells(lam)
    out = []

    def fill(idx):
        if idx == len(order):
            out.append(tuple(map(tuple, rows)))
            return
        i, j = order[idx]
        hi = min(n, rows[i - 1][j - 2] if j > 1 else n, rows[i - 2][j - 1] - 1 if i > 1 else n)
        lo = max(1, sum(1 for part in lam if part >= j) - i + 1)
        for v in range(lo, hi + 1):
            rows[i - 1][j - 1] = v
            fill(idx + 1)

    fill(0)
    return out


def test_reverse_tableaux_match_the_cell_by_cell_reference():
    # the same tableaux in the same order, with normal shapes and tuple rows
    # equal to what the checked constructor makes of them
    for n, max_weight in ((1, 6), (2, 8), (3, 6), (4, 5)):
        for lam in enumerate_Lambda(n + 1, max_weight):
            tabs = list(reverse_tableaux(lam, n))
            want = reference_reverse_tableaux(lam, n) if len(lam) <= n else []
            assert [t.rows for t in tabs] == want, (lam, n)
            for t in tabs:
                assert t.shape == lam and type(t.shape) is tuple
                assert all(type(row) is tuple for row in t.rows)
                assert t == ReverseTableau(lam, t.rows) and t.shape == ReverseTableau(lam, t.rows).shape


def test_a_filling_must_match_its_shape():
    with pytest.raises(DomainError, match="^filling does not match the shape$"):
        ReverseTableau((2, 1), ((2, 1),))


@pytest.mark.parametrize(
    "shape, rows",
    [
        ((2,), ((1, 2),)),  # increasing along a row
        ((1,), ((0,),)),  # an entry below 1: its chain never reaches the empty shape
        ((1, 1), ((1,), (1,))),  # equal down a column
        ((2, 2), ((2, 1), (1, 1))),  # equal down the second column only
        ((2, 1), ((2, 2), (3,))),  # increasing down a column
        ((1,), ((1.0,),)),
        ((1,), ((Fraction(1),),)),
        ((1,), (("1",),)),
    ],
)
def test_a_filling_must_be_a_reverse_tableau(shape, rows):
    with pytest.raises(ArgumentError, match="^not a reverse tableau: "):
        ReverseTableau(shape, rows)


def test_a_checked_tableau_keeps_its_chain_and_weight():
    t = ReverseTableau((2, 1), ((2, 1), (1,)))
    assert t.chain() == [(2, 1), (1,), ()]
    assert t.chain(3) == [(2, 1), (1,), (), ()]
    assert psi_tableau(t, Fraction(1, 2)) == psi_skew((2, 1), (1,), Fraction(1, 2))
    assert ReverseTableau((), ()).chain() == [()] and psi_tableau(ReverseTableau((), ()), 3) == 1


# ---------------------------------------------------------------- weights


def test_psi_single_box():
    assert psi_skew((1,), (), Fraction(1)) == 1


def test_psi_row_strip_value():
    # one-box horizontal strip onto a one-row shape
    tau = Fraction(1, 2)
    assert psi_skew((2,), (1,), tau) == 2 * tau / (1 + tau)
    assert psi_skew((2,), (1,), Fraction(1)) == 1


def test_psi_at_tau_one_is_always_one():
    for lam, mu in (((2,), (1,)), ((2, 1), (1, 1)), ((3, 1), (2,)), ((2, 2), (2, 1))):
        assert psi_skew(lam, mu, Fraction(1)) == 1


def test_psi_vertical_strip():
    # adding a box in a new row contributes no arm-difference cells
    assert psi_skew((1, 1), (1,), Fraction(1, 3)) == 1


def test_psi_tableau_is_product_over_chain():
    tau = Fraction(1, 2)
    for t in reverse_tableaux((2, 1), 2):
        got = psi_tableau(t, tau)
        prod = Fraction(1)
        shapes = t.chain()
        for big, small in zip(shapes, shapes[1:]):
            prod *= psi_skew(big, small, tau)
        assert got == prod


def test_psi_skew_requires_containment():
    with pytest.raises(DomainError):
        psi_skew((1,), (2,), Fraction(1))


def reference_psi_skew(lam, mu, tau):
    """The branching weight in Fraction arithmetic, cell by cell through arm
    and leg: the test oracle for the integer psi_skew."""
    num = tau ** 0
    den = tau ** 0
    for s in cells(mu):
        a_mu, l_mu = arm(mu, s), leg(mu, s)
        a_lam, l_lam = arm(lam, s), leg(lam, s)
        if a_lam > a_mu and l_lam == l_mu:
            mu_num, mu_den = tau * l_mu + a_mu + tau, tau * l_mu + a_mu + 1
            lam_num, lam_den = tau * l_lam + a_lam + tau, tau * l_lam + a_lam + 1
            if mu_den == 0 or lam_num == 0:
                raise PoleError(f"branching weight has a pole at cell {s}")
            num = num * (mu_num * lam_den)
            den = den * (mu_den * lam_num)
    return num / den


@pytest.mark.parametrize("tau", [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), 0.7])
def test_psi_matches_the_fraction_reference_at_rank_up_to_4(tau):
    if not is_exact(tau):
        # no Params holds a float tau, and the branching weights take none
        with pytest.raises(DomainError):
            psi_tableau(next(reverse_tableaux((2, 1), 2)), tau)
        return
    steps = {}  # (outer, inner) -> reference psi_skew, each pair once
    for n, max_weight in ((2, 8), (3, 6), (4, 5)):
        for lam in enumerate_Lambda(n, max_weight):
            for t in reverse_tableaux(lam, n):
                shapes = [normalize(sum(1 for e in row if e > i) for row in t.rows) for i in range(t.max_entry() + 1)]
                assert t.chain() == shapes
                want = tau ** 0
                for big, small in zip(shapes, shapes[1:]):
                    if (big, small) not in steps:
                        steps[big, small] = reference_psi_skew(big, small, tau)
                        assert psi_skew(big, small, tau) == steps[big, small]
                    want = want * steps[big, small]
                got = psi_tableau(t, tau)
                assert got == want and type(got) is type(want)


def test_psi_rejects_a_float_tau():
    with pytest.raises(DomainError, match="exact"):
        psi_skew((2,), (1,), 0.7)
    # also where no cell counts, so the weight would be 1 at any tau
    with pytest.raises(DomainError, match="exact"):
        psi_skew((1, 1), (1,), 0.5)


def test_psi_skew_pole_still_raises():
    with pytest.raises(PoleError):
        psi_skew((2,), (1,), Fraction(-1))
    with pytest.raises(PoleError):
        reference_psi_skew((2,), (1,), Fraction(-1))


def test_psi_memo_is_shared_across_params_with_one_tau():
    lam = (3, 2, 1)
    p, q = Params(3, Fraction(3, 2), Fraction(1, 2)), Params(3, Fraction(3, 2), Fraction(5, 2))
    _compiled_terms.cache_clear()
    _psi_pair.cache_clear()
    first = [psi for psi, _, _ in _compiled_terms(lam, p).fold]
    misses = _psi_pair.cache_info().misses
    second = [psi for psi, _, _ in _compiled_terms(lam, q).fold]
    info = _psi_pair.cache_info()
    assert first == second
    assert info.misses == misses and info.hits > 0
