"""Dictionary from Hermitian symmetric space data to interpolation
parameters, operator eigenvalues, and membership tests for the positivity
sets decided by signed polynomial values.

Convention for signs: q_poly(lam) = (-1)^{|lam|} P_lam and phi_j is its
column case lam = 1^j, so both are nonnegative on the sets they cut out.
Every value and sign is taken at the exact value of the point (a float as
its binary rational); a nan or inf coordinate raises ArgumentError.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache

from .exactnum import ArgumentError, Frozen, _ascending_axis, _check_int, _exact_point, _span_runs
from .okounkov import (
    Params,
    _block_certs,
    _check_column,
    _compiled_terms,
    _degree_one,
    _degree_one_fails,
    _node_row,
    _numerator,
    _scaled_axis,
    _sign_blocks,
    _weights,
    k_constant,
    okounkov_eval,
)
from .partitions import enumerate_Lambda, normalize, weight

__all__ = [
    "GroupData",
    "Verdict",
    "group_params",
    "shimura_eigenvalue",
    "q_poly",
    "phi_j",
    "in_G",
    "in_A_certified",
    "in_G_raster",
    "in_A_raster",
    "in_square",
    "in_U0_knapp_speh",
    "in_square_raster",
    "in_U0_raster",
]

class GroupData(Frozen):
    """Root data of a rank-n Hermitian symmetric space: medium-root
    multiplicity d, half short-root multiplicity b, line-bundle twist p.
    Immutable and compared and hashed by value; the hash is computed once,
    in __init__."""

    _fields = ("n", "d", "b", "p")
    __slots__ = (*_fields, "_hash")

    def __init__(self, n: int, d: int, b: int, p: int = 0):
        if not isinstance(n, int) or n < 1:
            raise ArgumentError(f"rank must be >= 1, an integer, got {n!r}")
        _check_int("d", d)
        _check_int("b", b)
        if not isinstance(p, int):
            raise ArgumentError(f"p must be an integer, got {p!r}")
        self._freeze(n, d, b, p, hash((n, d, b, p)))

    def __hash__(self):
        return self._hash


class Verdict(Frozen):
    """Outcome of a membership test: immutable, so that raster cells share
    it, and compared by value (and so unhashable).

    witness is the first failing partition (tuple) or column index (int);
    None on membership. degree_checked records how far the certification
    went: the weight bound for set-A style tests, the rank for column tests.
    """

    _fields = __slots__ = ("member", "witness", "degree_checked")

    def __init__(self, member: bool, witness, degree_checked: int):
        self._freeze(member, witness, degree_checked)

    def witness_str(self):
        """The witness as text: a partition as its parts joined by commas
        (witnesses come normalized from enumerate_Lambda), a column index
        as the number; None on membership."""
        if self.witness is None:
            return None
        if isinstance(self.witness, tuple):
            return ",".join(map(str, self.witness))
        return str(self.witness)

    def to_json(self) -> dict:
        return {
            "member": self.member,
            "witness": self.witness_str(),
            "degree_checked": self.degree_checked,
        }


def group_params(g: GroupData) -> Params:
    """(tau, alpha) = (d/2, (b+1+p)/2)."""
    return Params(g.n, Fraction(g.d, 2), Fraction(g.b + 1 + g.p, 2))


def shimura_eigenvalue(mu, pt, g: GroupData):
    """Eigenvalue polynomial value: k_constant(mu, tau) * P_mu(pt)."""
    p = group_params(g)
    return k_constant(mu, p.tau) * okounkov_eval(mu, pt, p)


def q_poly(lam, pt, p: Params):
    """Signed value (-1)^{|lam|} P_lam(pt)."""
    lam = normalize(lam)
    sign = -1 if weight(lam) % 2 else 1
    return sign * okounkov_eval(lam, pt, p)


def phi_j(j: int, pt, p: Params):
    """Column test polynomial: sum over j-subsets of prod (rho^2 - x^2),
    that is q_poly(1^j, ...)."""
    _check_column(j, p.n)
    return q_poly((1,) * j, pt, p)


@lru_cache(maxsize=None)
def _signed_columns(p: Params):
    """(j, sign of phi_j, compiled terms of P_(1^j)) for j = 1..n; the
    j = 1 entry is the same object as the (1,) of in_A_certified."""
    return tuple((j, (-1) ** j, _compiled_terms((1,) * j, p)) for j in range(1, p.n + 1))


@lru_cache(maxsize=None)
def _signed_band(p: Params, k: int):
    """(lam, sign of q_lam, compiled terms of P_lam) for the lam of weight
    k, in enumeration order."""
    return tuple((lam, (-1) ** k, _compiled_terms(lam, p))
                 for lam in enumerate_Lambda(p.n, k) if weight(lam) == k)


def _signed_sums(p: Params, max_weight: int):
    """The entries of _signed_band for the nonempty lam of Lambda^max_weight
    in enumeration order. A band is compiled when the iteration first
    reaches it, so a point that fails at lam = (1) compiles one sum."""
    return itertools.chain.from_iterable(_signed_band(p, k) for k in range(1, max_weight + 1))


def _first_negative(pt, n: int, signed):
    """The first key of signed, a tuple of (key, sign, compiled terms of a
    sum E), with sign * E < 0 at pt; None when there is none.

    Every point is decided at its exact value, a float coordinate taken as
    the binary rational it holds, by the sign of the integer numerator of E
    (okounkov._numerator). A length other than n, nan or inf raises ArgumentError.
    """
    scaled = _scaled_axis(_exact_point(pt, n))
    for key, sign, comp in signed:
        if sign * _numerator(comp, *scaled) < 0:
            return key
    return None


def in_G(pt, p: Params) -> Verdict:
    """Column-positivity membership: all phi_j >= 0, witness first failure."""
    j = _first_negative(pt, p.n, _signed_columns(p))
    return Verdict(j is None, j, p.n)


def in_A_certified(pt, p: Params, max_weight: int) -> Verdict:
    """Bounded certification of full positivity: q_lam >= 0 for every lam
    with |lam| <= max_weight. Membership means only "no witness up to the
    bound"; the set itself is an infinite intersection.
    """
    _check_int("max_weight", max_weight, 1)
    lam = _first_negative(pt, p.n, _signed_sums(p, max_weight))
    return Verdict(lam is None, lam, max_weight)


def _check_rank2(p: Params) -> None:
    """ArgumentError unless p is of rank 2, the rank of every raster."""
    if p.n != 2:
        raise ArgumentError(f"a raster needs rank 2, got n = {p.n}")


def _band_tables(band, degree, q2: int, a2s, squares, below):
    """One band of signed sums made ready for _raster over its axis:
    (ranks, tables). ranks[i] is the block of axis position i among the
    constants of the band (okounkov._sign_blocks). A table holds a sum's
    failing Verdict, its sign and compiled terms, its certificates certs
    (okounkov._block_certs) and its cache of x2 node rows by axis
    position, or None for a sum of degree one (okounkov._degree_one)."""
    low, ranks = _sign_blocks([comp for _, _, comp in band], q2, a2s)
    return ranks, [(Verdict(False, key, degree), sign, comp, _block_certs(sign, comp, low, q2, squares, below),
                    None if _degree_one(comp) else [None] * len(a2s))
                   for key, sign, comp in band]


def _raster(axis, p: Params, bands, degree):
    """Build, for i = 0, 1, ..., row i of the rank-2 sign test at
    (axis[i], axis[j]), j <= i, for exact axis values, over the signed sums
    of bands, an iterable of tuples (key, sign, compiled terms) taken in
    order, that _first_negative makes. A row is yielded as its maximal runs
    (stop, Verdict) (the run form of exactnum._cells), never as one Verdict
    per cell; in_G_raster and in_A_raster yield these rows as they are.

    The raster shares one denominator Q. A row's cells are int bitmasks
    over the axis positions: pending (no sum has failed there yet; row i
    starts with positions 0..i), certified and failed. The squared
    numerators A^2 are sorted once, for bisection, and below[k] is the mask
    of the positions that hold the k smallest. A band is compiled, and its
    certificates made, only when a pending cell reaches it, so the raster
    raises only where some cell's point test raises. Per row and sum, x1
    is folded into one weight vector w (okounkov._weights of its _node_row)
    times the sign, and only the pending cells that the sum's certificate
    for the block of x1 leaves (okounkov._block_certs) are decided: a sum
    of degree one by one bisection of the squares (okounkov._degree_one_fails),
    any other by one integer dot product per cell of w with the cell's x2
    node row, built at most once per axis position, when a cell first
    needs it. Each run of set bits of a failed mask is a run of the sum's
    Verdict, and the gaps between those runs are membership runs. Cells
    with the same outcome share one Verdict: one for membership and one per
    sum.
    """
    _check_rank2(p)
    q2, a2s = _scaled_axis(axis)
    member = Verdict(True, None, degree)
    order = sorted(range(len(a2s)), key=a2s.__getitem__)
    squares = [a2s[j] for j in order]
    below = [0, *itertools.accumulate((1 << j for j in order), operator.or_)]
    bands, levels = iter(bands), []
    mul = operator.mul
    for i, a2 in enumerate(a2s):
        pending, fails, level = (2 << i) - 1, [], 0
        while pending:
            if level == len(levels):
                band = next(bands, None)
                if band is None:
                    break
                levels.append(_band_tables(band, degree, q2, a2s, squares, below))
            ranks, tables = levels[level]
            level += 1
            r1 = ranks[i]
            for verdict, sign, comp, certs, tail in tables:
                todo = pending & ~certs[r1]
                if not todo:
                    continue
                w = [sign * v for v in _weights(comp, (_node_row(comp, 0, q2, a2),))]
                if tail is None:
                    failed = _degree_one_fails(w, comp, q2, squares, below, todo)
                else:
                    failed, left = 0, todo
                    while left:
                        bit = left & -left
                        k = bit.bit_length() - 1
                        row = tail[k]
                        if row is None:
                            row = tail[k] = _node_row(comp, 1, q2, a2s[k])
                        if sum(map(mul, w, row)) < 0:
                            failed |= bit
                        left ^= bit
                if failed:
                    fails.append((verdict, failed))
                    pending ^= failed
                    if not pending:
                        break
        spans = []  # (lo, hi, verdict) for each run of set bits of a failed mask
        for verdict, failed in fails:
            while failed:
                lo = (failed & -failed).bit_length() - 1
                run = failed >> lo
                hi = lo + (run ^ (run + 1)).bit_length() - 1
                spans.append((lo, hi, verdict))
                failed = failed >> hi << hi
        yield _span_runs(i + 1, spans, member)


def in_G_raster(axis, p: Params):
    """in_G on the rank-2 raster of an exact axis: yields, for each i, row i
    in run form (exactnum._cells), the runs (stop, Verdict) of
    [in_G((axis[i], axis[j]), p) for j <= i] (_raster)."""
    yield from _raster(axis, p, (_signed_columns(p),), p.n)


def in_A_raster(axis, p: Params, max_weight: int):
    """in_A_certified on the rank-2 raster of an exact axis: yields, for
    each i, row i in run form (exactnum._cells, _raster), the runs (stop,
    Verdict) of [in_A_certified((axis[i], axis[j]), p, max_weight) for j <= i]."""
    _check_int("max_weight", max_weight, 1)
    yield from _raster(axis, p, (_signed_band(p, k) for k in range(1, max_weight + 1)), max_weight)


def in_square(pt, p: Params) -> bool:
    """The closed box [0, rho_n]^n intersected with the decreasing chamber;
    rho_n = tau * 0 + alpha is read as p.alpha."""
    pt = _exact_point(pt, p.n)
    rho_n = p.alpha
    for a, b in zip(pt, pt[1:]):
        if a < b:
            return False
    return all(0 <= x <= rho_n for x in pt)


def _u0_row(x1, b: int, one=1):
    """The row of U0 at 0 <= x1 <= rho2, as (bound, segments): its members
    are the x2 in [0, x1] with x2 <= bound or x2 in segments. The base
    triangle x1 + x2 <= 1 is x2 <= 1 - x1, the shifted triangle j is
    x2 <= min(x1 - j, j + 1 - x1), and the segment j is x2 = x1 - j >= 0,
    for j = 1..floor((b-1)/2). Every value is in units of one: x1 and the
    results are numerators over one = Q where a raster's axis is."""
    shifts = [j * one for j in range(1, (b - 1) // 2 + 1)]  # empty for b < 3
    bound = max([one - x1] + [min(x1 - j, j + one - x1) for j in shifts])
    return bound, [x1 - j for j in shifts if j <= x1]


def in_U0_knapp_speh(pt, b: int) -> bool:
    """The explicit complementary-series region for the rank-2 family with
    half short-root multiplicity b: a base triangle plus, for
    j = 1..floor((b-1)/2), shifted triangles and segments inside the box
    [0, rho2]^2, all taken in the decreasing chamber (_u0_row).

    The base triangle x1+x2 <= 1 is intersected with the box as well; for
    b = 0 the printed region otherwise sticks out of the column-positive
    set it must embed into (see the decision log).

    Every comparison is exact, a segment x1 - x2 = j included; a float
    coordinate is taken as the binary rational it holds.
    """
    _check_int("b", b)
    x1, x2 = _exact_point(pt, 2)
    if not 0 <= x2 <= x1 <= Fraction(b + 1, 2):
        return False
    bound, segments = _u0_row(x1, b)
    return x2 <= bound or x2 in segments


# The row-range rasters below take an ascending exact axis, so x2 <= x1 in
# every cell, and each remaining constraint bounds x2 on one side along a
# row: a row's members are one index range of the axis, found by exact
# bisection, plus (for U0) a few isolated segment points. Each row is yielded
# in run form (exactnum._cells), made from these ranges by exactnum._span_runs.


def in_square_raster(axis, p: Params):
    """in_square on the rank-2 raster of an ascending exact axis: yields,
    for each i, row i in run form, the runs (stop, bool) of
    [in_square((axis[i], axis[j]), p) for j <= i]. A row with
    0 <= x1 <= alpha holds the cells with x2 >= 0; any other row is empty."""
    _check_rank2(p)
    q, nums = _ascending_axis(axis)
    lo = bisect_left(nums, 0)
    hi = bisect_right(nums, p.alpha.numerator * q // p.alpha.denominator)  # x1 <= alpha
    for i in range(len(nums)):
        yield _span_runs(i + 1, [(lo, i + 1, True)] if lo <= i < hi else [], False)


def in_U0_raster(axis, b: int):
    """in_U0_knapp_speh on the raster of an ascending exact axis: yields,
    for each i, row i in run form, the runs (stop, bool) of
    [in_U0_knapp_speh((axis[i], axis[j]), b) for j <= i].
    In a row with 0 <= x1 <= rho2 the members are the cells with
    0 <= x2 <= the row's bound, plus the cells on its segments (_u0_row)."""
    _check_int("b", b)
    q, nums = _ascending_axis(axis)
    lo = bisect_left(nums, 0)
    top = bisect_right(nums, (b + 1) * q // 2)  # x1 <= rho2
    for i, x1 in enumerate(nums):
        n = i + 1
        if not lo <= i < top:
            yield [(n, False)]
            continue
        bound, segments = _u0_row(x1, b, q)
        spans = [(lo, bisect_right(nums, bound, 0, n), True)]
        spans += [(bisect_left(nums, x2, 0, n), bisect_right(nums, x2, 0, n), True) for x2 in segments]
        yield _span_runs(n, spans, False)
