"""BC-type interpolation polynomials: the reverse-tableau evaluation formula,
closed forms for special shapes, the vanishing characterization, and exact
interpolation back from values on the shifted lattice.

The reverse-tableau terms of P_lam, compiled once per (lam, p) into integer
form, are the one engine; the column tests phi_j are the case lam = 1^j.
The integer kernel tabulates each term's factors per coordinate over an
axis of values (_node_row) and combines the tables by one dot product per
point (_weights). A single point, taken at its exact value (a float as its
binary rational), is the case of one-element axes (_numerator): it gives
okounkov_eval and the signs behind shimura.in_G and in_A_certified, whose
rasters build the tables over their whole axis, skip the points where
the weak signs of the factors already fix the sign of every term
(_block_certs), and decide a sum of degree one in the last coordinate by
one bisection per row (_degree_one_fails). okounkov_expand and
interpolate_from_values (a triangular back-substitution in the P basis)
multiply the terms out from the same prefix trees (_expand).

Everything downstream funnels through the compiled terms, so this module
carries the cross-formula oracles: the tau=1 determinant, the column subset
sum and its generating function, the rectangle closed form and the two
k-constant derivations must all agree with the tableau sum exactly.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce

from .exactnum import (ArgumentError, DomainError, Frozen, _check_int, _check_length, _exact_point, _exact_str,
                       _over_common, as_exact)
from .partitions import (
    _at_most,
    _chain,
    _chain_psi,
    _strips,
    conjugate,
    contains,
    enumerate_Lambda,
    format_partition,
    normalize,
    reverse_tableaux,
    weight,
)

__all__ = [
    "Params",
    "SymEvenPoly",
    "okounkov_eval",
    "okounkov_expand",
    "rank1_poly",
    "det_formula_tau1",
    "column_poly",
    "column_poly_gf",
    "rectangle_poly",
    "k_constant",
    "k_constant_alt",
    "verify_characterization",
    "interpolate_from_values",
    "EXPAND_WEIGHT_GUARD",
]

EXPAND_WEIGHT_GUARD = 8
# verify_characterization draws up to _SAMPLES heavier mu, of weight <= |lam| + _EXTRA_WEIGHT
_EXTRA_WEIGHT, _SAMPLES = 2, 24


class Params(Frozen):
    """Interpolation parameters: rank n plus exact rationals (tau, alpha).

    Immutable and compared and hashed by value: a Params keys the compile
    cache _compiled_terms on every evaluation, so its hash is computed once,
    here.
    """

    _fields = ("n", "tau", "alpha")
    # rho, the shift vector rho_i = tau (n - i) + alpha, is built here once;
    # like _hash it is not a field, so it takes no part in ==, repr or pickling
    __slots__ = (*_fields, "_hash", "rho")

    def __init__(self, n: int, tau, alpha):
        if not isinstance(n, int) or n < 1:
            raise ArgumentError(f"rank must be >= 1, an integer, got {n!r}")
        tau, alpha = as_exact(tau), as_exact(alpha)
        rho = tuple(tau * (n - i) + alpha for i in range(1, n + 1))
        self._freeze(n, tau, alpha, hash((n, tau, alpha)), rho)

    def __hash__(self):
        return self._hash

    def node(self, mu) -> tuple[Fraction, ...]:
        """The lattice point mu + rho (mu padded with zeros to length n)."""
        mu = _at_most(mu, self.n)
        padded = mu + (0,) * (self.n - len(mu))
        return tuple(m + r for m, r in zip(padded, self.rho))


def _orbit_size(e) -> int:
    """Number of distinct permutations of the exponent vector e."""
    size = math.factorial(len(e))
    for k in Counter(e).values():
        size //= math.factorial(k)
    return size


class SymEvenPoly:
    """Even symmetric polynomial stored on exponents of y_i = x_i^2.

    The coefficient map is kept closed under permutations of the exponent
    vector, so permutation/sign symmetry in x is structural rather than
    checked at evaluation time.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        clean: dict[tuple[int, ...], Fraction] = {}
        for e, c in (coeffs or {}).items():
            e = tuple(int(v) for v in e)
            if len(e) != self.n or any(v < 0 for v in e):
                raise DomainError(f"bad exponent vector {e} for n={self.n}")
            c = as_exact(c)
            if c != 0:
                clean[e] = c
        orbits: dict[tuple[int, ...], list] = {}
        for e, c in clean.items():
            orbits.setdefault(tuple(sorted(e)), []).append((e, c))
        closed: dict[tuple[int, ...], Fraction] = {}
        for key, present in orbits.items():
            e, c = present[0]
            for f, cf in present:
                if cf != c:
                    raise DomainError(f"asymmetric coefficients at exponents {e} / {f}")
            if len(present) == _orbit_size(key):
                closed.update(present)
            else:
                closed.update(dict.fromkeys(itertools.permutations(key), c))
        self.coeffs = closed

    @classmethod
    def _trusted(cls, n: int, coeffs: dict):
        """The polynomial of a map that already holds what __init__ makes:
        exponent tuples of length n, nonzero Fraction values, closed under
        permutations. A tableau sum is symmetric by construction, so the
        expansions build this map directly and skip __init__'s checks."""
        poly = cls.__new__(cls)
        poly.n, poly.coeffs = n, coeffs
        return poly

    def coefficient(self, e) -> Fraction:
        return self.coeffs.get(tuple(int(v) for v in e), Fraction(0))

    def degree(self) -> int:
        """Total degree in the y variables (half the x-degree)."""
        return max((sum(e) for e in self.coeffs), default=0)

    def evaluate(self, pt):
        _check_length(pt, self.n)
        sq = [x * x for x in pt]
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for y, k in zip(sq, e):
                if k:
                    term = term * y ** k
            total = total + term
        return total

    def to_json(self) -> dict:
        reps = sorted({tuple(sorted(e, reverse=True)) for e in self.coeffs}, reverse=True)
        return {
            "n": self.n,
            "terms": [{"exp": list(e), "coeff": _exact_str(self.coeffs[e])} for e in reps],
        }


class _Compiled:
    """P_lam for one (lam, p), compiled in one pass from the reverse
    tableaux into the only form the kernel reads: the terms
    psi_T prod_s (x_idx^2 - c^2) of the tableau sum in n coordinates, where
    cell s gives idx = T(s) - 1 and c = a'(s) + tau (n - T(s) - l'(s)) +
    alpha, scaled to integers and split by coordinate, with the same number
    `cells` of factors in every term. den is the lcm P of the psi
    denominators. With D = lcm(den tau, den alpha) every c D is an integer,
    so lsc is one scale L = D^2 for every sum of the Params, and consts[idx]
    holds the distinct C = (c D)^2 = c^2 L of coordinate idx. The products
    of a term's factors in one coordinate form a prefix tree: node 0 is the
    empty product, and chains[idx] holds (parent node, position in
    consts[idx]) for nodes 1, 2, .... fold holds per term (Psi = psi P, its
    nodes in all coordinates but the last as positions in their rows laid
    end to end, its node in the last coordinate).

    The pass walks each tableau's strips (partitions._strips), row by row
    and in a row entry by entry: the cells of entry t in row i (from 0)
    are the run of columns lam^(t)_i <= j < lam^(t-1)_i, whose factors go
    to coordinate t - 1 with c D = j D + tau D (n - t - i) + alpha D, in
    reading order; the shapes lam^(t) of the same walk are the chain whose
    branching weights give psi_T (partitions._chain_psi).
    """

    __slots__ = ("cells", "den", "lsc", "consts", "chains", "fold")

    def __init__(self, lam: tuple[int, ...], p: Params):
        n, tau, alpha = p.n, p.tau, p.alpha
        tn, td = tau.numerator, tau.denominator
        d = math.lcm(td, alpha.denominator)
        tau_d, alpha_d = tn * (d // td), alpha.numerator * (d // alpha.denominator)
        pos = [{} for _ in range(n)]  # per coordinate: C -> position
        trees = [{} for _ in range(n)]  # per coordinate: (parent, position) -> node
        ends = []
        for tab in reverse_tableaux(lam, n):
            cuts = _strips(tab.rows, n)
            split = [[] for _ in range(n)]
            for i, cut in enumerate(cuts):
                # row i's runs in reading order, largest entry first; entries
                # strictly decrease down a column, so T(s) <= n - i
                for t in range(n - i, 0, -1):
                    start, stop = cut[t], cut[t - 1]
                    if start < stop:
                        base = tau_d * (n - t - i) + alpha_d
                        cpos, ks = pos[t - 1], split[t - 1]
                        for cd in range(start * d + base, stop * d + base, d):
                            ks.append(cpos.setdefault(cd * cd, len(cpos)))
            nodes = []
            for tree, ks in zip(trees, split):
                node = 0
                for k in sorted(ks):
                    node = tree.setdefault((node, k), len(tree) + 1)
                nodes.append(node)
            ends.append((*_chain_psi(_chain(cuts, n), tn, td), nodes))
        self.cells = sum(lam)
        self.den = den = math.lcm(*[psi_den for _, psi_den, _ in ends])
        self.lsc = d * d
        offsets = [0, *itertools.accumulate(len(tree) + 1 for tree in trees)]
        self.fold = tuple(
            (psi * (den // psi_den), tuple(map(operator.add, offsets, nodes[:-1])), nodes[-1])
            for psi, psi_den, nodes in ends
        )
        self.consts = tuple(map(tuple, pos))
        self.chains = tuple(map(tuple, trees))


# P_lam compiled once per (lam, p): a Params compares and hashes by value
_compiled_terms = lru_cache(maxsize=None)(_Compiled)


def _scaled_axis(axis):
    """(Q^2, [A_i^2]) for exact values x_i = A_i / Q over one common
    denominator Q (_over_common)."""
    q, nums = _over_common(axis)
    return q * q, [a * a for a in nums]


def _node_row(comp: _Compiled, idx: int, q2: int, a2: int):
    """Step one of the exact kernel. With L = lcm(den tau, den alpha)^2,
    the one scale of the Params, at x = A/Q every factor x_idx^2 - c^2
    is (A_idx^2 L - C Q^2) / (Q^2 L), so E = N / (P (Q^2 L)^K), K =
    comp.cells, with N = sum_T Psi_T prod_idx F_T,idx(A_idx) and F_T,idx
    the product of the term's factors in coordinate idx. This gives the
    products at every node of coordinate idx at one value A^2, one
    multiplication a node; a raster tabulates it over its axis."""
    al = a2 * comp.lsc
    vals = [al - c * q2 for c in comp.consts[idx]]
    row = [1]
    for parent, k in comp.chains[idx]:
        row.append(row[parent] * vals[k])
    return row


def _sign_blocks(comps, q2: int, a2s):
    """The blocks of an axis between the constants of the sums comps (one
    Params, so one scale L): (low, ranks). Sorted, the distinct C of every
    coordinate of every sum cut the values into blocks; a value A/Q lies in
    block r = #{C : C Q^2 < A^2 L}, ranks[i] for a2s[i] = A_i^2. low maps the
    C of rank k to the bits 0..k, the blocks where its factor is <= 0."""
    pool = sorted({c for comp in comps for consts in comp.consts for c in consts})
    lsc, scaled = comps[0].lsc, [c * q2 for c in pool]
    return ({c: (2 << k) - 1 for k, c in enumerate(pool)},
            [bisect.bisect_left(scaled, a2 * lsc) for a2 in a2s])


def _node_parities(comp: _Compiled, idx: int, low):
    """The sign companion of _node_row over _sign_blocks: a bitmask per
    node of coordinate idx whose bit r is the parity of the node's factors
    that are <= 0 on block r. On block r a factor A^2 L - C Q^2 is > 0 if C
    ranks below r and <= 0 otherwise, so the node's product is >= 0 where
    its bit is clear and <= 0 where it is set."""
    bits = [low[c] for c in comp.consts[idx]]
    row = [0]
    for parent, k in comp.chains[idx]:
        row.append(row[parent] ^ bits[k])
    return row


def _block_certs(sign: int, comp: _Compiled, low, q2: int, squares, below):
    """certs[r1] for r1 = 0..len(low): the bitmask of the axis positions x2
    at which every term sign Psi F0(x1) F1(x2) of a rank-2 sum is >= 0 while
    x1 is in block r1 of _sign_blocks. squares are the axis's scaled
    squares A^2 in ascending order, and below[k] is the bitmask of the axis
    positions that hold the k smallest.

    Each factor A^2 L - C Q^2 is > 0 or <= 0 throughout a block, so on
    block r1 a head node's product has the weak sign of its parity bit r1
    (_node_parities over low). In x2 the factor is <= 0 exactly where the
    integer A^2 <= floor(C Q^2 / L), the positions below[bisect_right(
    squares, C Q^2 // L)], so the tail's parities are taken per axis
    position. A term's weak sign is then that of sign Psi (-1)^(p0 + p1),
    p0 and p1 its head's and tail's parities: it is >= 0 at the x2 where
    the tail's bit equals bit r1 of h, the head's parities flipped if
    sign Psi < 0. If every term is >= 0 at (x1, x2), so is sign N, and the
    sum cannot fail there."""
    cuts = {c: below[bisect.bisect_right(squares, c * q2 // comp.lsc)] for c in comp.consts[1]}
    heads, tails = _node_parities(comp, 0, low), _node_parities(comp, 1, cuts)
    pairs = {(~heads[k] if sign * psi < 0 else heads[k], tails[s]) for psi, (k,), s in comp.fold}
    return [reduce(operator.and_, (m if h >> r1 & 1 else ~m for h, m in pairs), below[-1])
            for r1 in range(len(low) + 1)]


def _degree_one(comp: _Compiled) -> bool:
    """Whether the sum has degree one in the square of its last coordinate,
    its prefix tree there being one node: lam = (1) and (1,1) in rank 2,
    so every column test."""
    return len(comp.chains[-1]) == 1


def _degree_one_fails(w, comp: _Compiled, q2: int, squares, below, todo: int) -> int:
    """The cells of todo, a bitmask of axis positions, at which sign N < 0
    for a rank-2 sum of degree one (_degree_one), given its x1 weights
    w = (w0, w1) times the sign; squares and below as in _block_certs.

    The x2 node row at x2 = A/Q is (1, A^2 L - C Q^2), C the one x2
    constant, so sign N = w0 + w1 (A^2 L - C Q^2), and it is < 0 exactly
    when w1 A^2 L < t = w1 C Q^2 - w0. Divide by s = w1 L: L > 0, so the
    inequality keeps its direction for w1 > 0 and turns for w1 < 0, and A^2
    is an integer, so A^2 < t / s iff A^2 < ceil(t / s) and A^2 > t / s iff
    A^2 > floor(t / s). The failing cells are then those holding the
    smallest squares (w1 > 0, a cut by bisect_left) or all but those
    (w1 < 0, by bisect_right), and a cut never splits equal squares; for
    w1 = 0 they are all of todo if w0 < 0 and none otherwise."""
    w0, w1 = w
    t, s = w1 * comp.consts[1][0] * q2 - w0, w1 * comp.lsc
    if s > 0:
        return todo & below[bisect.bisect_left(squares, -(-t // s))]
    if s < 0:
        return todo & ~below[bisect.bisect_right(squares, t // s)]
    return todo if w0 < 0 else 0


def _weights(comp: _Compiled, heads):
    """Step two: given one _node_row row for each coordinate but the
    last, the sums of Psi_T prod F_T,idx over the terms, collected by the
    term's node in the last coordinate. N is their dot product with the
    last coordinate's row."""
    flat = heads[0] if len(heads) == 1 else [v for row in heads for v in row]
    w = [0] * (len(comp.chains[-1]) + 1)
    for psi, ks, s in comp.fold:
        for k in ks:
            psi *= flat[k]
        w[s] += psi
    return w


def _numerator(comp: _Compiled, q2: int, a2) -> int:
    """N at one point with scaled squares a2 over Q^2 = q2: the kernel
    over one-element axes."""
    rows = [_node_row(comp, idx, q2, v) for idx, v in enumerate(a2)]
    tail = rows.pop()
    return sum(map(operator.mul, _weights(comp, rows), tail))


def okounkov_eval(lam, pt, p: Params) -> Fraction:
    """P_lam at pt by the reverse-tableau sum, exactly, a float coordinate
    taken as the binary rational it holds; ArgumentError at nan or inf."""
    lam = _at_most(lam, p.n)
    q2, a2 = _scaled_axis(_exact_point(pt, p.n))
    comp = _compiled_terms(lam, p)
    return Fraction(_numerator(comp, q2, a2), comp.den * (q2 * comp.lsc) ** comp.cells)


def rank1_poly(l: int, x, alpha):
    """One-variable interpolation polynomial: prod_{i=0}^{l-1} (x^2 - (i+alpha)^2),
    exactly; x and alpha must be exact."""
    _check_int("l", l)
    x, alpha = as_exact(x), as_exact(alpha)
    return math.prod((x * x - (i + alpha) ** 2 for i in range(l)), start=Fraction(1))


# The reference formulas below are the oracles of the tableau sum, and so
# share none of its kernel: each takes its inputs over one common
# denominator D (_over_common), where every factor x^2 - c^2 is an integer
# over D^2, computes in integers and makes one Fraction at the end.


def _det_exact(m) -> int:
    """Determinant of a square integer matrix, overwritten in place, by
    Bareiss's fraction-free elimination: after step k every entry below and
    right of the pivot is a (k+2)-minor, and the division by the previous
    pivot is exact. A zero pivot swaps in a lower row; none left means 0.
    The empty matrix has determinant 1."""
    sign, prev, size = 1, 1, len(m)
    for k in range(size - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, size) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        top, piv = m[k], m[k][k]
        for row in m[k + 1:]:
            lead = row[k]
            for c in range(k + 1, size):
                row[c] = (piv * row[c] - lead * top[c]) // prev
        prev = piv
    return sign * m[-1][-1] if m else 1


def det_formula_tau1(lam, pt, alpha):
    """Alternant quotient det[p_{(lam+delta)_j}(x_i)] / prod_{i<j}(x_i^2 - x_j^2).

    The tau=1 closed form, exact; requires exact coordinates and alpha and
    pairwise-distinct squared coordinates. Over D, x_i = X_i / D and
    alpha = a / D, entry (i, j) is prod_{k<kappa_j} (X_i^2 - (kD + a)^2) over
    D^(2 kappa_j) and the Vandermonde an integer over D^(n(n-1)).
    """
    n = len(pt)
    lam = _at_most(lam, n)
    padded = lam + (0,) * (n - len(lam))
    kappa = [padded[j] + (n - 1 - j) for j in range(n)]
    den, (a, *nums) = _over_common((alpha, *pt))
    sq = [v * v for v in nums]
    van = math.prod(sq[i] - sq[j] for i in range(n) for j in range(i + 1, n))
    if van == 0:
        raise DomainError("coinciding squared coordinates make the alternant quotient singular")
    consts = [(k * den + a) ** 2 for k in range(max(kappa, default=0))]
    rows = []
    for v in sq:
        prefix = [1]
        for c in consts:
            prefix.append(prefix[-1] * (v - c))
        rows.append([prefix[k] for k in kappa])
    return Fraction(_det_exact(rows) * den ** (n * (n - 1)), van * den ** (2 * sum(kappa)))


def _check_column(j: int, n: int) -> None:
    """The rule for a column height: an int in 1..n."""
    if not isinstance(j, int) or not 1 <= j <= n:
        raise ArgumentError(f"column height {j} outside 1..{n}")


def _column_squares(j: int, pt, p: Params):
    """(D, [X_i^2], [R_i^2]) for pt and rho over one common denominator D,
    after the checks shared by the two column formulas."""
    _check_column(j, p.n)
    _check_length(pt, p.n)
    den, nums = _over_common((*pt, *p.rho))
    sq = [v * v for v in nums]
    return den, sq[:p.n], sq[p.n:]


def column_poly(j: int, pt, p: Params):
    """Column shape 1^j by the explicit subset sum over i_1 < ... < i_j of
    prod_k (x_{i_k}^2 - rho_{i_k + j - k}^2); pt must be exact."""
    den, xsq, rsq = _column_squares(j, pt, p)
    total = sum(
        math.prod(xsq[i] - rsq[i + j - k] for k, i in enumerate(subset, start=1))
        for subset in itertools.combinations(range(p.n), j)
    )
    return Fraction(total, den ** (2 * j))


def column_poly_gf(j: int, pt, p: Params):
    """Column shape 1^j as the t^j coefficient of
    prod_i (1 + t x_i^2) / prod_{i=j}^{n} (1 + t rho_i^2); pt must be exact.
    In s = t / D^2 every factor is 1 + s X^2 with X an integer, so the
    series is built in integers and its s^j coefficient is divided by D^(2j)."""
    den, xsq, rsq = _column_squares(j, pt, p)
    series = [1] + [0] * j
    for v in xsq:  # times (1 + s v)
        for k in range(j, 0, -1):
            series[k] += v * series[k - 1]
    for v in rsq[j - 1:]:  # over (1 + s v)
        for k in range(1, j + 1):
            series[k] -= v * series[k - 1]
    return Fraction(series[j], den ** (2 * j))


def rectangle_poly(l: int, pt, p: Params):
    """Full rectangle l^n: prod_{i=0}^{l-1} prod_j (x_j^2 - (i+alpha)^2);
    pt must be exact."""
    _check_int("l", l)
    _check_length(pt, p.n)
    den, (a, *nums) = _over_common((p.alpha, *pt))
    total = math.prod(v * v - (i * den + a) ** 2 for i in range(l) for v in nums)
    return Fraction(total, den ** (2 * l * p.n))


def k_constant(mu, tau):
    """The hook-style constant: prod over cells of (tau leg + arm + 1), tau exact, in integers."""
    mu = normalize(mu)
    tn, td = as_exact(tau).as_integer_ratio()
    cols = conjugate(mu)  # leg of cell (i, j), from 0: cols[j] - i - 1
    return Fraction(math.prod(tn * (cols[j] - i - 1) + td * (part - j) for i, part in enumerate(mu)
                              for j in range(part)), td ** sum(mu))


def _half_poch(big_n: int, k: int) -> int:
    """2^k (N/2)_k = prod_{i<k} (N + 2i), an integer."""
    return math.prod(range(big_n, big_n + 2 * k, 2))


def k_constant_alt(mu, d, n: int):
    """The same constant assembled from the generalized Pochhammer symbol
    (a)_mu = prod_i (a - (d/2) i)_{mu_i}, a = (d/2)(n-1) + 1, the pairwise
    product beta_mu, and the Jack value at the all-ones point.

    Matches k_constant(mu, d/2) exactly; d must be a positive integer. Each
    Pochhammer symbol is some (N/2)_k = _half_poch(N, k) / 2^k: the 2^k cancel
    in the quotients of beta_mu and of the Jack value, and (a)_mu leaves 2^|mu|.
    """
    mu = _at_most(mu, n)
    _check_int("d", d, 1)
    padded = mu + (0,) * (n - len(mu))
    num = math.prod(_half_poch(d * (n - 1 - i) + 2, part) for i, part in enumerate(padded))
    den = 2 ** sum(padded)
    for i, j in itertools.combinations(range(n), 2):
        diff, gap = padded[i] - padded[j], j - i
        up = _half_poch(d * (gap + 1), diff)
        # the Jack factor up / (d gap/2)_diff over beta's (diff + d gap/2) / (d gap/2) * up / (d (gap-1)/2 + 1)_diff
        num *= up * d * gap * _half_poch(d * (gap - 1) + 2, diff)
        den *= _half_poch(d * gap, diff) * (2 * diff + d * gap) * up
    return Fraction(num, den)


def _guarded_weight(lam, what: str) -> int:
    """|lam|, after the rule of the expansion and verification paths: at
    most EXPAND_WEIGHT_GUARD."""
    w = weight(lam)
    if w > EXPAND_WEIGHT_GUARD:
        raise ArgumentError(f"{what} guarded to weight <= {EXPAND_WEIGHT_GUARD}, got {w}")
    return w


def verify_characterization(lam, p: Params, seed: int = 0) -> dict:
    """Check the vanishing characterization of P_lam on the shifted lattice.

    Reports (a) exact zeros at mu + rho for every mu in Lambda^{|lam|} except
    lam itself, (b) a nonzero value at lam + rho, and (c) extra vanishing at
    sampled heavier mu that do not contain lam. Failures populate the report;
    nothing raises.
    """
    lam = _at_most(lam, p.n)
    w = _guarded_weight(lam, "verification")
    zero_failures = []
    zero_checked = 0
    for mu in enumerate_Lambda(p.n, w):
        if mu == lam:
            continue
        zero_checked += 1
        if okounkov_eval(lam, p.node(mu), p) != 0:
            zero_failures.append(format_partition(mu))
    self_value = okounkov_eval(lam, p.node(lam), p)
    pool = [
        mu
        for mu in enumerate_Lambda(p.n, w + _EXTRA_WEIGHT)
        if weight(mu) > w and not contains(mu, lam)
    ]
    import random  # here, not at module level: only the verify path draws samples
    rng = random.Random(seed)
    chosen = pool if len(pool) <= _SAMPLES else sorted(rng.sample(pool, _SAMPLES))
    extra_failures = []
    for mu in chosen:
        if okounkov_eval(lam, p.node(mu), p) != 0:
            extra_failures.append(format_partition(mu))
    ok = not zero_failures and not extra_failures and self_value != 0
    return {
        "lambda": format_partition(lam),
        "n": p.n,
        "tau": str(p.tau),
        "alpha": str(p.alpha),
        "zero_checked": zero_checked,
        "zero_failures": zero_failures,
        "self_value": str(self_value),
        "self_nonzero": self_value != 0,
        "extra_checked": len(chosen),
        "extra_failures": extra_failures,
        "ok": ok,
    }


def _expand(comp: _Compiled) -> tuple[dict, int]:
    """The compiled sum multiplied out in y_idx = x_idx^2: (integer
    numerators by exponent vector, their denominator P L^K). A factor is
    (L y - C) / L, so each tree node is an integer coefficient list, its
    parent's times (L y - C), and a term is Psi times its nodes' lists."""
    lsc, polys = comp.lsc, []
    for consts, chain in zip(comp.consts, comp.chains):
        rows = [[1]]
        for parent, k in chain:
            f, c = rows[parent], consts[k]
            rows.append([lsc * a - c * b for a, b in zip([0, *f], [*f, 0])])
        polys.append(rows)
    tail = polys.pop()
    flat = [row for rows in polys for row in rows]
    out: dict[tuple[int, ...], int] = {}
    for psi, ks, s in comp.fold:
        for choice in itertools.product(*(enumerate(flat[k]) for k in ks), enumerate(tail[s])):
            e = tuple(m for m, _ in choice)
            out[e] = out.get(e, 0) + psi * math.prod(c for _, c in choice)
    return out, comp.den * lsc ** comp.cells


def interpolate_from_values(values, d: int, p: Params) -> SymEvenPoly:
    """Reconstruct the unique even symmetric polynomial of y-degree <= d from
    its values on the shifted lattice points mu + rho, mu in Lambda^d.

    Runs the triangular back-substitution in the P basis (a vanishing
    diagonal detects a non-generic tau) and expands the result
    sum_mu coeff_P[mu] P_mu from the compiled tableau terms (_expand).
    """
    lams = enumerate_Lambda(p.n, d)
    vals = {}
    for key, v in values.items():
        vals[normalize(key)] = as_exact(v)
    missing = [mu for mu in lams if mu not in vals]
    if missing:
        raise DomainError(f"values missing at {len(missing)} lattice points, first {list(missing[0])}")
    nodes = {mu: p.node(mu) for mu in lams}

    coeff_P: dict[tuple[int, ...], Fraction] = {}
    for mu in lams:
        diag = okounkov_eval(mu, nodes[mu], p)
        if diag == 0:
            raise DomainError(
                f"interpolation diagonal vanishes at {list(mu)}: tau={p.tau} is not generic"
            )
        acc = vals[mu]
        for nu in coeff_P:
            if coeff_P[nu] != 0 and contains(mu, nu):
                acc = acc - coeff_P[nu] * okounkov_eval(nu, nodes[mu], p)
        coeff_P[mu] = acc / diag

    coeffs: dict[tuple[int, ...], Fraction] = {}
    for mu, c in coeff_P.items():
        if c != 0:
            nums, den = _expand(_compiled_terms(mu, p))
            c /= den
            for e, v in nums.items():
                coeffs[e] = coeffs.get(e, 0) + c * v
    return SymEvenPoly._trusted(p.n, {e: v for e, v in coeffs.items() if v})


def okounkov_expand(lam, p: Params) -> SymEvenPoly:
    """Full coefficient map of P_lam, multiplied out from its compiled
    tableau terms (_expand). Guarded to |lam| <= 8."""
    lam = _at_most(lam, p.n)
    _guarded_weight(lam, "expansion")
    nums, den = _expand(_compiled_terms(lam, p))
    return SymEvenPoly._trusted(p.n, {e: Fraction(v, den) for e, v in nums.items() if v})
