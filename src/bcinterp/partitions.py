"""Partitions, Young-diagram cell statistics, reverse tableaux, and the
branching weights that drive the tableau sum in `okounkov`.

Cells are 1-based (row, column) pairs. Partitions are canonically tuples
with trailing zeros stripped; every public function normalizes first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exactnum import ArgumentError, DomainError, PoleError, _check_int, as_exact

Cell = tuple[int, int]

__all__ = [
    "normalize",
    "weight",
    "parse_partition",
    "format_partition",
    "contains",
    "conjugate",
    "arm",
    "leg",
    "cells",
    "enumerate_Lambda",
    "ReverseTableau",
    "reverse_tableaux",
    "psi_skew",
    "psi_tableau",
]


def normalize(parts) -> tuple[int, ...]:
    """Canonical partition: integer tuple, trailing zeros removed.

    Raises ArgumentError unless parts are integers, nonnegative, and weakly
    decreasing.
    """
    try:
        items = iter(parts)
    except TypeError:  # 5, None, 2.5
        raise ArgumentError(f"not a partition: {parts!r}") from None
    out = []
    for p in items:
        try:
            q = int(p)
        except (TypeError, ValueError, OverflowError):  # None, 'a', nan, inf
            q = None
        if q is None or q != p:
            raise ArgumentError(f"not a partition: non-integer part {p!r}")
        out.append(q)
    for a, b in zip(out, out[1:]):
        if a < b:
            raise ArgumentError(f"not a partition: {out}")
    if out and out[-1] < 0:
        raise ArgumentError(f"not a partition: {out}")
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _at_most(lam, n: int) -> tuple[int, ...]:
    """lam normalized; ArgumentError if it has more than n parts."""
    lam = normalize(lam)
    if len(lam) > n:
        raise ArgumentError(f"partition {format_partition(lam)!r} has more than n = {n} parts")
    return lam


def weight(lam) -> int:
    return sum(normalize(lam))


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse "2,1" style part lists; the empty string is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ArgumentError(f"not a partition: {text!r}") from exc
    return normalize(parts)


def format_partition(lam) -> str:
    return ",".join(str(p) for p in normalize(lam))


def contains(lam, mu) -> bool:
    """Diagram containment mu subset-of lam."""
    lam = normalize(lam)
    mu = normalize(mu)
    if len(mu) > len(lam):
        return False
    return all(m <= l for l, m in zip(lam, mu))


def conjugate(lam) -> tuple[int, ...]:
    return _conjugate(normalize(lam))


def _conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """conjugate of a normalized partition."""
    out = []
    for i in range(len(lam), 0, -1):
        # columns lam_{i+1} < j <= lam_i have length i
        out.extend([i] * (lam[i - 1] - len(out)))
    return tuple(out)


def _require_cell(lam: tuple[int, ...], s: Cell) -> None:
    i, j = s
    if i < 1 or j < 1 or i > len(lam) or j > lam[i - 1]:
        raise DomainError(f"cell {s} outside the diagram of {list(lam)}")


def arm(lam, s: Cell) -> int:
    """Cells strictly right of s in its row: lam_i - j."""
    lam = normalize(lam)
    _require_cell(lam, s)
    i, j = s
    return lam[i - 1] - j


def leg(lam, s: Cell) -> int:
    """Cells strictly below s in its column."""
    lam = normalize(lam)
    _require_cell(lam, s)
    i, j = s
    return sum(1 for k in range(i, len(lam)) if lam[k] >= j)


def cells(lam):
    """Row-major list of the cells of lam."""
    lam = normalize(lam)
    return [(i, j) for i in range(1, len(lam) + 1) for j in range(1, lam[i - 1] + 1)]


def _exact_weight(target: int, max_parts: int, max_part: int):
    if target == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(target, max_part), 0, -1):
        for rest in _exact_weight(target - first, max_parts - 1, first):
            yield (first,) + rest


def enumerate_Lambda(n: int, d: int) -> list[tuple[int, ...]]:
    """All partitions with at most n parts and weight at most d.

    Ordered by weight, then reverse-lexicographically within a weight. Every
    triangular solve in the package leans on this order, so do not reorder.
    """
    _check_int("n", n, 1)
    _check_int("d", d)
    out: list[tuple[int, ...]] = []
    for w in range(d + 1):
        level = sorted(_exact_weight(w, n, w if w else 1), reverse=True)
        out.extend(level)
    return out


class ReverseTableau:
    """A filling of a partition shape with entries in {1..n}: weakly
    decreasing along rows, strictly decreasing down columns.

    The constructor checks both orders and that every entry is an integer
    >= 1 (ArgumentError); reverse_tableaux builds its tableaux unchecked.
    """

    __slots__ = ("shape", "rows")

    def __init__(self, shape, rows):
        self.shape = normalize(shape)
        self.rows = tuple(tuple(r) for r in rows)
        if tuple(len(r) for r in self.rows) != self.shape:
            raise DomainError("filling does not match the shape")
        above = ()
        for row in self.rows:
            for j, v in enumerate(row):
                if not isinstance(v, int) or v < 1 or (j and v > row[j - 1]) or (above and v >= above[j]):
                    raise ArgumentError(f"not a reverse tableau: {[list(r) for r in self.rows]}")
            above = row

    @classmethod
    def _trusted(cls, shape: tuple[int, ...], rows: tuple[tuple[int, ...], ...]):
        """A tableau from a normal shape and matching tuple rows, unchecked."""
        tab = object.__new__(cls)
        tab.shape, tab.rows = shape, rows
        return tab

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def max_entry(self) -> int:
        return max(map(max, self.rows), default=0)

    def chain(self, upto: int | None = None) -> list[tuple[int, ...]]:
        """Shapes lam^(i) = cells with entry > i, for i = 0..upto.

        lam^(0) is the full shape; lam^(upto) is empty once upto covers the
        largest entry. The shapes come from the walk over the strips
        (_strips) that the compile of the tableau sum also takes.
        """
        if upto is None:
            upto = self.max_entry()
        return _chain(_strips(self.rows, upto), upto)

    def __eq__(self, other):
        return isinstance(other, ReverseTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"ReverseTableau({self.rows})"


def reverse_tableaux(lam, n: int):
    """Yield every reverse tableau of shape lam with entries in {1..n}.

    Yields in lexicographic order of the row-major reading word. The branch
    bounds are exact, so no partial filling is ever abandoned. Rows are
    filled one at a time, each stepping through its fillings in place, as
    tuples that the tableaux below them share, so a yielded tableau is
    neither re-normalized nor copied.
    """
    lam = normalize(lam)
    _check_int("n", n)
    if not lam:
        yield ReverseTableau((), ())
        return
    if len(lam) > n:
        return
    conj = _conjugate(lam)

    def row_fillings(i: int, above):
        # row i (1-based) in lexicographic order. Entries below must fit
        # strictly beneath, so cell (i, j) is at least low[j] = conj_j - i + 1,
        # which weakly decreases in j: the least row is low itself, and the
        # next raises the last entry that its left neighbour and the row
        # above allow, and puts low back after it
        low = [max(c - i + 1, 1) for c in conj[: lam[i - 1]]]
        cap = [min(n, v - 1) for v in above] if above else [n] * len(low)
        row = low[:]
        while True:
            yield tuple(row)
            j = len(row) - 1
            while j >= 0 and row[j] >= (min(cap[j], row[j - 1]) if j else cap[0]):
                j -= 1
            if j < 0:
                return
            row[j] += 1
            row[j + 1:] = low[j + 1:]

    def fill(rows):
        i = len(rows) + 1
        if i > len(lam):
            yield ReverseTableau._trusted(lam, rows)
            return
        for row in row_fillings(i, rows[-1] if rows else None):
            yield from fill(rows + (row,))

    yield from fill(())


def _strips(rows, top: int) -> list[list[int]]:
    """One walk over the rows of a reverse tableau, entry by entry:
    cuts[i][t] = lam^(t)_i, the number of entries > t in row i, for
    t = 0..top. Entries weakly decrease along a row, so the cells of entry
    t in row i are one run, the columns cuts[i][t] <= j < cuts[i][t - 1]
    (from 0), and lam^(t) drops that run from the end of each row of
    lam^(t - 1)."""
    cuts = []
    for row in rows:
        k = len(row)
        cut = [k]
        for t in range(1, top + 1):
            k -= row.count(t)
            cut.append(k)
        cuts.append(cut)
    return cuts


def _chain(cuts, top: int) -> list[tuple[int, ...]]:
    """The shapes lam^(t), t = 0..top, of a tableau's _strips. Entries
    strictly decrease down columns, so the empty rows of lam^(t) are its
    last ones."""
    return [tuple(cut[t] for cut in cuts if cut[t]) for t in range(top + 1)]


def _chain_psi(chain, tn: int, td: int) -> tuple[int, int]:
    """psi_T at tau = tn / td as (num, den) in lowest terms, up to a common
    sign: the _psi_pair of each step of the chain that adds cells,
    multiplied as integers and reduced once."""
    num = den = 1
    for outer, inner in zip(chain, chain[1:]):
        if outer != inner:
            step_num, step_den = _psi_pair(outer, inner, tn, td)
            num *= step_num
            den *= step_den
    g = math.gcd(num, den)
    return num // g, den // g


@lru_cache(maxsize=None)
def _psi_pair(lam: tuple[int, ...], mu: tuple[int, ...], tn, td):
    """psi_skew(lam, mu, tn / td) as (num, den), memoized, for normalized
    lam containing mu. The cells (i, j) of mu that count have lam_i > mu_i
    and equal j-th columns (equal legs). With tau = tn / td a b-factor is
    (tn l + td a + tn) / (tn l + td a + td)."""
    lam_cols = _conjugate(lam)
    mu_cols = _conjugate(mu)
    num = den = 1
    for i, (outer, inner) in enumerate(zip(lam, mu), start=1):
        if outer == inner:
            continue
        for j in range(1, inner + 1):
            l = mu_cols[j - 1] - i
            if lam_cols[j - 1] - i == l:
                b_mu, b_lam = tn * l + td * (inner - j), tn * l + td * (outer - j)
                if b_mu + td == 0 or b_lam + tn == 0:
                    raise PoleError(f"branching weight has a pole at cell {(i, j)}")
                num = num * ((b_mu + tn) * (b_lam + td))
                den = den * ((b_mu + td) * (b_lam + tn))
    return num, den


def psi_skew(lam, mu, tau):
    """Branching weight psi of the pair mu inside lam.

    Product over cells s of mu whose lam-arm strictly exceeds the mu-arm
    while the legs agree, of b_mu(s) / b_lam(s) with
    b_nu(s) = (tau l(s) + a(s) + tau) / (tau l(s) + a(s) + 1), computed in
    integers as a Fraction. tau must be exact, as in Params; a float tau
    raises DomainError.
    """
    lam = normalize(lam)
    mu = normalize(mu)
    if not contains(lam, mu):
        raise DomainError(f"{list(mu)} is not contained in {list(lam)}")
    tau = as_exact(tau)
    return Fraction(*_psi_pair(lam, mu, tau.numerator, tau.denominator))


def psi_tableau(tab: ReverseTableau, tau):
    """Total weight psi_T: product of psi_skew along the shape chain,
    multiplied out in integers (_chain_psi). tau must be exact."""
    tau = as_exact(tau)
    return Fraction(*_chain_psi(tab.chain(), tau.numerator, tau.denominator))
