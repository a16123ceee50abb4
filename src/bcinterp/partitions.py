"""Partitions, Young-diagram cell statistics, reverse tableaux, and the
branching weights that drive the tableau sum in `interpolation`.

Cells are 1-based (row, column) pairs. Partitions are canonically tuples
with trailing zeros stripped; every public function normalizes first.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import DomainError, PoleError, is_exact

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

    Raises DomainError unless parts are integers, nonnegative, and weakly
    decreasing.
    """
    out = []
    for p in parts:
        q = int(p)
        if q != p:
            raise DomainError(f"not a partition: non-integer part {p!r}")
        out.append(q)
    for a, b in zip(out, out[1:]):
        if a < b:
            raise DomainError(f"not a partition: {out}")
    if out and out[-1] < 0:
        raise DomainError(f"not a partition: {out}")
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


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
        raise DomainError(f"not a partition: {text!r}") from exc
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
    lam = normalize(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


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
    if n < 1:
        raise DomainError(f"need at least one part slot, got n={n}")
    if d < 0:
        raise DomainError(f"negative weight bound {d}")
    out: list[tuple[int, ...]] = []
    for w in range(d + 1):
        level = sorted(_exact_weight(w, n, w if w else 1), reverse=True)
        out.extend(level)
    return out


class ReverseTableau:
    """A filling of a partition shape with entries in {1..n}: weakly
    decreasing along rows, strictly decreasing down columns."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape, rows):
        self.shape = normalize(shape)
        self.rows = tuple(tuple(r) for r in rows)
        if tuple(len(r) for r in self.rows) != self.shape:
            raise DomainError("filling does not match the shape")

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def max_entry(self) -> int:
        return max((e for row in self.rows for e in row), default=0)

    def chain(self, upto: int | None = None) -> list[tuple[int, ...]]:
        """Shapes lam^(i) = cells with entry > i, for i = 0..upto.

        lam^(0) is the full shape; lam^(upto) is empty once upto covers the
        largest entry. Entries weakly decrease along rows, so each shape is
        a prefix count per row.
        """
        if upto is None:
            upto = self.max_entry()
        out = []
        for i in range(upto + 1):
            out.append(normalize(sum(1 for e in row if e > i) for row in self.rows))
        return out

    def __eq__(self, other):
        return isinstance(other, ReverseTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"ReverseTableau({self.rows})"


def reverse_tableaux(lam, n: int):
    """Yield every reverse tableau of shape lam with entries in {1..n}.

    Yields in lexicographic order of the row-major reading word. The branch
    bounds are exact, so no partial filling is ever abandoned.
    """
    lam = normalize(lam)
    if n < 0:
        raise DomainError(f"entry bound must be nonnegative, got {n}")
    if not lam:
        yield ReverseTableau((), ())
        return
    if len(lam) > n:
        return
    conj = conjugate(lam)
    order = cells(lam)
    rows = [[0] * p for p in lam]

    def fill(idx: int):
        if idx == len(order):
            yield ReverseTableau(lam, rows)
            return
        i, j = order[idx]
        hi = n
        if j > 1:
            hi = min(hi, rows[i - 1][j - 2])
        if i > 1:
            hi = min(hi, rows[i - 2][j - 1] - 1)
        lo = conj[j - 1] - i + 1  # entries below must fit strictly beneath
        for v in range(max(lo, 1), hi + 1):
            rows[i - 1][j - 1] = v
            yield from fill(idx + 1)

    yield from fill(0)


def _b_factor(lam: tuple[int, ...], s: Cell, tau):
    a = arm(lam, s)
    l = leg(lam, s)
    return tau * l + a + tau, tau * l + a + 1


def psi_skew(lam, mu, tau):
    """Branching weight psi of the pair mu inside lam.

    Product over cells s of mu whose lam-arm strictly exceeds the mu-arm
    while the legs agree, of b_mu(s) / b_lam(s) with
    b_nu(s) = (tau l(s) + a(s) + tau) / (tau l(s) + a(s) + 1).
    """
    lam = normalize(lam)
    mu = normalize(mu)
    if not contains(lam, mu):
        raise DomainError(f"{list(mu)} is not contained in {list(lam)}")
    num = tau ** 0
    den = tau ** 0
    for s in cells(mu):
        a_mu = arm(mu, s)
        l_mu = leg(mu, s)
        a_lam = arm(lam, s)
        l_lam = leg(lam, s)
        if a_lam > a_mu and l_lam == l_mu:
            mu_num, mu_den = _b_factor(mu, s, tau)
            lam_num, lam_den = _b_factor(lam, s, tau)
            if mu_den == 0 or lam_num == 0:
                raise PoleError(f"branching weight has a pole at cell {s}")
            num = num * (mu_num * lam_den)
            den = den * (mu_den * lam_num)
    if is_exact(num) and is_exact(den):
        return Fraction(num) / Fraction(den)
    return num / den


def psi_tableau(tab: ReverseTableau, tau):
    """Total weight psi_T: product of psi_skew along the shape chain."""
    chain = tab.chain()
    out = tau ** 0
    for outer, inner in zip(chain, chain[1:]):
        out = out * psi_skew(outer, inner, tau)
    return out
