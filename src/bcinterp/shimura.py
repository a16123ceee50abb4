"""Dictionary from Hermitian symmetric space data to interpolation
parameters, operator eigenvalues, and membership tests for the positivity
sets decided by signed polynomial values.

Convention for signs: q_poly(lam) = (-1)^{|lam|} P_lam, and phi_j is the
column case written with the (rho^2 - x^2) factor order, so both are
nonnegative on the sets they cut out.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exactnum import SIGN_DEADBAND, DomainError, is_exact
from .okounkov import (
    Params,
    _column_terms,
    _compiled_terms,
    _float_companion,
    _float_sum,
    column_poly,
    k_constant,
    okounkov_eval,
)
from .partitions import enumerate_Lambda, format_partition, normalize, weight

__all__ = [
    "GroupData",
    "Verdict",
    "group_params",
    "shimura_eigenvalue",
    "q_poly",
    "phi_j",
    "in_G",
    "in_A_certified",
    "in_square",
    "in_U0_knapp_speh",
    "SIGN_DEADBAND",
]

# Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0**-53
# The float filter is trusted only where every partial product of M stays at
# or above this, 22 binades inside the normal range (see _filter_table).
_FILTER_TINY = 2.0**-1000


class GroupData:
    """Root data of a rank-n Hermitian symmetric space: medium-root
    multiplicity d, half short-root multiplicity b, line-bundle twist p.
    Immutable and compared and hashed by value."""

    __slots__ = ("n", "d", "b", "p")

    def __init__(self, n: int, d: int, b: int, p: int = 0):
        if n < 1:
            raise DomainError(f"rank must be >= 1, got {n}")
        if d < 0 or b < 0:
            raise DomainError(f"multiplicities must be nonnegative, got d={d}, b={b}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError(f"GroupData is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GroupData is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return GroupData, (self.n, self.d, self.b, self.p)

    def __eq__(self, other):
        if other.__class__ is not GroupData:
            return NotImplemented
        return (self.n, self.d, self.b, self.p) == (other.n, other.d, other.b, other.p)

    def __hash__(self):
        return hash((self.n, self.d, self.b, self.p))

    def __repr__(self):
        return f"GroupData(n={self.n!r}, d={self.d!r}, b={self.b!r}, p={self.p!r})"


class Verdict:
    """Outcome of a membership test, compared by value (and so unhashable).

    witness is the first failing partition (tuple) or column index (int);
    None on membership. degree_checked records how far the certification
    went: the weight bound for set-A style tests, the rank for column tests.
    """

    __slots__ = ("member", "witness", "degree_checked")

    def __init__(self, member: bool, witness, degree_checked: int):
        self.member = member
        self.witness = witness
        self.degree_checked = degree_checked

    def __eq__(self, other):
        if other.__class__ is not Verdict:
            return NotImplemented
        return (self.member, self.witness, self.degree_checked) == (
            other.member, other.witness, other.degree_checked)

    def __repr__(self):
        return (f"Verdict(member={self.member!r}, witness={self.witness!r}, "
                f"degree_checked={self.degree_checked!r})")

    def witness_str(self):
        if self.witness is None:
            return None
        if isinstance(self.witness, tuple):
            return format_partition(self.witness)
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
    """Column test polynomial: sum over j-subsets of prod (rho^2 - x^2).

    Equals q_poly(1^j, ...) identically.
    """
    value = column_poly(j, pt, p)
    # 0 - value, not -value: a float zero stays +0.0
    return 0 - value if j % 2 else value


def _filter_table(terms):
    """The float filter's data for compiled terms (K cells, T terms):
    (float companion, gamma, floor), or None when a constant lies beyond
    float range.

    gamma = (16 (K + T) + 16) u is the relative error bound derived in
    _certified_negative. floor is the smallest float square a nonzero
    coordinate may have for the filter to be trusted: with every nonzero
    |psi| >= psi_lo, every nonzero c^2 >= floor and every nonzero coordinate
    square >= floor, each factor |sq| + c^2 of M that is not an exact zero
    is >= floor, so every partial product of M is >= psi_lo floor^K
    = _FILTER_TINY. floor is never below _FILTER_TINY, so the rounded
    coordinates, squares and constants are normal floats. floor is inf when
    no coordinate can satisfy this.
    """
    try:
        fterms = _float_companion(terms)
    except OverflowError:
        return None
    cells = len(terms[0][1])
    gamma = (16 * (cells + len(terms)) + 16) * _UNIT_ROUNDOFF
    pairs = list(zip(terms, fterms))
    psi_lo = min((abs(fpsi) for (psi, _), (fpsi, _) in pairs if psi), default=1.0)
    c_lo = min(
        (fc for (_, facs), (_, ffacs) in pairs for (_, c), (_, fc) in zip(facs, ffacs) if c),
        default=1.0,
    )
    floor = math.inf
    if psi_lo >= _FILTER_TINY:
        floor = max((_FILTER_TINY / psi_lo) ** (1.0 / cells), _FILTER_TINY)
        if c_lo < floor:
            floor = math.inf
    return fterms, gamma, floor


@lru_cache(maxsize=None)
def _filter_tables(p: Params) -> dict:
    """Filter tables of p, built on first use and keyed by the partition
    lam (q_lam) or by the column height j (phi_j)."""
    return {}


@lru_cache(maxsize=None)
def _signed_Lambda(n: int, max_weight: int):
    """(lam, sign of q_lam) for the nonempty lam of Lambda^max_weight, in
    enumeration order."""
    return tuple((lam, -1 if weight(lam) % 2 else 1) for lam in enumerate_Lambda(n, max_weight) if lam)


def _float_view(pt):
    """The float squares the decisions at pt work from: (exact, sq, ylo).

    A point whose coordinates are all exact gets the squares of the
    correctly rounded coordinates and ylo, the smallest of them over the
    nonzero coordinates (1.0 when there is none). Any other point is a float
    point, with sq = [x * x] and ylo None; a nan or inf coordinate raises
    DomainError. A point with an exact coordinate beyond float range, float
    coordinates or not, gets (True, None, None): it is decided exactly at
    its rational value.
    """
    exact = True
    for x in pt:
        if not is_exact(x):
            exact = False
            if not math.isfinite(x):
                raise DomainError(f"point coordinates must be finite, got {pt!r}")
    try:
        xs = [float(x) for x in pt]
    except OverflowError:
        return True, None, None
    sq = [x * x for x in xs]
    if not exact:
        return False, sq, None
    return True, sq, min((y for x, y in zip(pt, sq) if x), default=1.0)


def _certified_negative(table, sign, view, exact_value) -> bool:
    """Whether sign * E < 0, where E = sum_T psi_T prod (x_i^2 - c^2) is the
    tableau sum described by table at the point described by view.

    Float points take the float sum S and its absolute sum A from the float
    table and keep the deadband rule sign * S < -SIGN_DEADBAND (1 + A). The
    values are bit-identical to the Fraction-with-float arithmetic of
    okounkov_eval and column_poly, which rounds psi and c^2 to float before
    using them. Where A is not finite (a square or a product overflowed) the
    rule cannot decide, and exact_value() decides at the exact rational
    value of the point.

    Exact points are decided by a filter (Shewchuk, "Adaptive Precision
    Floating-Point Arithmetic and Fast Robust Geometric Predicates", 1997):
    with S and M = sum_T |psi_T| prod (x^2 + c^2) computed in floats,
    |S - E| <= gamma M = thr, so S > thr or S < -thr gives the sign of E.
    Otherwise, or when M is not finite, a coordinate is beyond float range,
    or the floor guard fails, exact_value() (the exact Fraction value of
    sign * E) decides.

    The bound. u = 2^-53 and g_k = k u / (1 - k u); K cells, T terms. The
    floor guard (see _filter_table) keeps every rounded input normal and
    every partial product of M at or above 2^-1000; a finite M means that no
    operation overflowed, since |S|-side values never exceed their M-side
    counterparts after rounding.
      inputs: fl(x) = x(1+d), y = fl(fl(x)^2) = x^2 (1+t), |t| <= g_3;
        fl(c^2) = c^2 (1+d), fl(psi) = psi (1+d); |d| <= u.
      factors: fl(y - fl(c^2)) = (x^2 - c^2) + e with
        |e| <= g_3 x^2 + u c^2 + u (1+g_3)(x^2 + c^2) <= g_4 (x^2 + c^2);
        a subtraction never adds underflow error.
      products: K multiplications after psi, so a term is off by at most
        g_(5K+1) |psi| prod (x^2 + c^2). A product that underflows adds at
        most 2^-1075, which the remaining factors (each <= its M factor)
        carry to at most 2^-1075 M_T / 2^-1000 < u M_T, where M_T is the
        term's share of M: K more g_1 M_T.
      sum: T - 1 additions add g_(T-1) sum |term|.
      M: computed with the same rounded inputs, so the exact magnitude is
        <= (1 + g_(5K+T)) M.
    Together |S - E| <= (6K + T + 2) u (1 + O((K + T) u)) M, and
    gamma = (16 (K + T) + 16) u is more than twice that, which also covers
    the rounding of gamma * M itself.
    """
    exact, sq, ylo = view
    if table is not None:
        fterms, gamma, floor = table
        if not exact:
            total, absum, _ = _float_sum(fterms, sq)
            if math.isfinite(absum):
                return sign * total < -SIGN_DEADBAND * (1.0 + absum)
        elif sq is not None and ylo >= floor:
            total, _, mag = _float_sum(fterms, sq)
            thr = gamma * mag
            if total > thr:
                return sign < 0
            if total < -thr:
                return sign > 0
    return exact_value() < 0


def _exact_point(pt):
    """pt with every float coordinate replaced by its exact rational value."""
    return tuple(x if is_exact(x) else Fraction(x) for x in pt)


def _check_length(pt, p: Params) -> None:
    if len(pt) != p.n:
        raise DomainError(f"point has length {len(pt)}, expected {p.n}")


def in_G(pt, p: Params) -> Verdict:
    """Column-positivity membership: all phi_j >= 0, witness first failure."""
    _check_length(pt, p)
    view = _float_view(pt)
    tables = _filter_tables(p)
    for j in range(1, p.n + 1):
        if j not in tables:
            tables[j] = _filter_table(_column_terms(j, p))
        if _certified_negative(tables[j], (-1) ** j, view, lambda: phi_j(j, _exact_point(pt), p)):
            return Verdict(False, j, p.n)
    return Verdict(True, None, p.n)


def in_A_certified(pt, p: Params, max_weight: int) -> Verdict:
    """Bounded certification of full positivity: q_lam >= 0 for every lam
    with |lam| <= max_weight. Membership means only "no witness up to the
    bound"; the set itself is an infinite intersection.
    """
    if max_weight < 1:
        raise DomainError(f"need max_weight >= 1, got {max_weight}")
    _check_length(pt, p)
    view = _float_view(pt)
    tables = _filter_tables(p)
    for lam, sign in _signed_Lambda(p.n, max_weight):
        if lam not in tables:
            tables[lam] = _filter_table(_compiled_terms(lam, p))
        if _certified_negative(tables[lam], sign, view, lambda: sign * okounkov_eval(lam, _exact_point(pt), p)):
            return Verdict(False, lam, max_weight)
    return Verdict(True, None, max_weight)


def in_square(pt, p: Params) -> bool:
    """The closed box [0, rho_n]^n intersected with the decreasing chamber."""
    rho_n = p.rho[p.n - 1]
    for a, b in zip(pt, pt[1:]):
        if a < b:
            return False
    return all(0 <= x <= rho_n for x in pt)


def in_U0_knapp_speh(pt, b: int) -> bool:
    """The explicit complementary-series region for the rank-2 family with
    half short-root multiplicity b: a base triangle plus, for
    j = 1..floor((b-1)/2), shifted triangles and segments inside the box
    [0, rho2]^2, all taken in the decreasing chamber.

    The base triangle x1+x2 <= 1 is intersected with the box as well; for
    b = 0 the printed region otherwise sticks out of the column-positive
    set it must embed into (see the decision log).

    A segment x1 - x2 = j is tested exactly at exact points and with the
    SIGN_DEADBAND whisker at float points.
    """
    if b < 0:
        raise DomainError(f"need b >= 0, got {b}")
    x1, x2 = pt
    rho2 = Fraction(b + 1, 2)
    in_box = 0 <= x2 <= x1 <= rho2
    if not in_box:
        return False
    if x1 + x2 <= 1:
        return True
    k = (b - 1) // 2 if b >= 3 else 0
    exact = is_exact(x1) and is_exact(x2)
    for j in range(1, k + 1):
        if x1 - x2 >= j and x1 + x2 <= j + 1:
            return True
        if x1 - x2 == j if exact else abs(x1 - x2 - j) <= SIGN_DEADBAND:
            return True
    return False
