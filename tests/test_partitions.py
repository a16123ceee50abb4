from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcinterp.exactnum import DomainError
from bcinterp.partitions import (
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
