"""Value semantics of the package's plain classes: construction, equality,
hashing and immutability where callers rely on them."""

import copy
import pickle
from fractions import Fraction

import pytest

from bcinterp import (
    ContourPolyline,
    DomainError,
    GroupData,
    Params,
    Rank2Regions,
    SymEvenPoly,
    Verdict,
    in_G_raster,
    okounkov_eval,
)
from bcinterp.exactnum import _cells
from bcinterp.okounkov import _compiled_terms


def test_equal_params_share_one_compile_cache_entry():
    lam = (3, 2, 1, 1)
    _compiled_terms.cache_clear()
    okounkov_eval(lam, (Fraction(7, 2), Fraction(5, 3), Fraction(1, 2), Fraction(1, 5)), Params(4, Fraction(1, 3), Fraction(2, 7)))
    okounkov_eval(lam, (Fraction(1, 2), 2, 3, 4), Params(4, Fraction(1, 3), Fraction(2, 7)))
    info = _compiled_terms.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_params_and_group_data_compare_and_hash_by_value():
    p, q = Params(2, Fraction(1, 2), 1), Params(2, Fraction(1, 2), Fraction(1))
    assert p == q and hash(p) == hash(q) and p is not q
    assert p != Params(2, Fraction(1, 2), Fraction(3, 2))
    assert p != (2, Fraction(1, 2), Fraction(1))
    g, h = GroupData(2, 2, 0, p=1), GroupData(2, 2, 0, 1)
    assert g == h and hash(g) == hash(h) and g is not h
    assert g != GroupData(2, 2, 0)
    assert len({p, q}) == 1 and len({g, h}) == 1
    assert copy.deepcopy(p) == p and copy.copy(g) == g


def test_params_rho_is_built_once_and_is_not_a_field():
    p = Params(3, Fraction(1, 2), Fraction(-1, 3))
    assert p.rho is p.rho and p.rho == (Fraction(2, 3), Fraction(1, 6), Fraction(-1, 3))
    assert repr(p) == "Params(n=3, tau=Fraction(1, 2), alpha=Fraction(-1, 3))"
    assert p.__reduce__() == (Params, (3, Fraction(1, 2), Fraction(-1, 3)))
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p) and q.rho == p.rho
    with pytest.raises(AttributeError):
        p.rho = ()


@pytest.mark.parametrize(
    "obj, field",
    [(Params(2, Fraction(1, 2), 1), "tau"), (Params(2, 1, 1), "n"), (GroupData(2, 2, 0), "p"), (GroupData(2, 2, 0), "d")],
)
def test_params_and_group_data_are_immutable(obj, field):
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, 5)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) == before


def test_verdict_compares_by_value_and_is_unhashable():
    assert Verdict(False, (2, 1), 6) == Verdict(False, (2, 1), 6)
    assert Verdict(False, (2, 1), 6) != Verdict(False, (2,), 6)
    assert Verdict(True, None, 2) != Verdict(True, None, 3)
    assert repr(Verdict(False, 1, 2)) == "Verdict(member=False, witness=1, degree_checked=2)"
    with pytest.raises(TypeError):
        hash(Verdict(True, None, 2))


def test_verdict_is_immutable_and_shared_within_a_raster():
    v = Verdict(False, (2, 1), 6)
    with pytest.raises(AttributeError):
        v.member = True
    with pytest.raises(AttributeError):
        del v.witness
    assert (v.member, v.witness) == (False, (2, 1))
    assert copy.copy(v) == v and copy.deepcopy(v) == v
    p = Params(2, Fraction(1), Fraction(1, 2))
    cells = [v for row in in_G_raster([Fraction(k, 4) for k in range(12)], p) for v in _cells(row)]
    distinct = {id(v) for v in cells}
    assert len(cells) == 78 and len(distinct) == len({(v.member, v.witness) for v in cells}) == 3


def test_keyword_and_default_construction():
    g = GroupData(2, 2, 0, p=1)
    assert (g.n, g.d, g.b, g.p) == (2, 2, 0, 1)
    assert GroupData(3, 1, 2).p == 0
    p = Params(n=3, tau=Fraction(1, 2), alpha=2)
    assert (p.n, p.tau, p.alpha) == (3, Fraction(1, 2), Fraction(2))
    poly = SymEvenPoly(2)
    assert poly.n == 2 and poly.coeffs == {} and poly.degree() == 0
    reg = Rank2Regions(rho2=Fraction(1, 2), rho1=3)
    assert (reg.rho1, reg.rho2) == (Fraction(3), Fraction(1, 2))
    assert ContourPolyline([(0, 1), (1, 0)]) == ContourPolyline(((0.0, 1.0), (1.0, 0.0)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Params(0, 1, 1),
        lambda: GroupData(0, 2, 0),
        lambda: GroupData(2, -1, 0),
        lambda: GroupData(2, 2, -1, p=1),
        lambda: SymEvenPoly(2, {(1,): 1}),
    ],
)
def test_construction_validates(build):
    with pytest.raises(DomainError):
        build()
