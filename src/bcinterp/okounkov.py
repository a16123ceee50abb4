"""BC-type interpolation polynomials: the reverse-tableau evaluation formula,
closed forms for special shapes, the vanishing characterization, and exact
interpolation back from values on the shifted lattice.

The compiled reverse-tableau terms of P_lam are the one engine: okounkov_eval
sums them at a point, and okounkov_expand multiplies them out into monomials.
interpolate_from_values runs the triangular back-substitution in the P basis
and expands the resulting combination of P_mu the same way.

Everything downstream (eigenvalues, region tests) funnels through
okounkov_eval, so this module carries the cross-formula oracles: the tau=1
determinant, the column/rectangle closed forms, and the two k-constant
derivations must all agree with the tableau sum exactly.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .exactnum import DomainError, as_exact, gen_pochhammer, is_exact, poch_rising
from .partitions import (
    arm,
    cells,
    contains,
    enumerate_Lambda,
    format_partition,
    leg,
    normalize,
    psi_tableau,
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


class Params:
    """Interpolation parameters: rank n plus exact rationals (tau, alpha).

    Immutable and compared and hashed by value: a Params keys the compile
    caches (_compiled_terms, _column_terms, shimura._filter_tables).
    """

    __slots__ = ("n", "tau", "alpha")

    def __init__(self, n: int, tau, alpha):
        if n < 1:
            raise DomainError(f"rank must be >= 1, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tau", as_exact(tau))
        object.__setattr__(self, "alpha", as_exact(alpha))

    def __setattr__(self, name, value):
        raise AttributeError(f"Params is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Params is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return Params, (self.n, self.tau, self.alpha)

    def __eq__(self, other):
        if other.__class__ is not Params:
            return NotImplemented
        return (self.n, self.tau, self.alpha) == (other.n, other.tau, other.alpha)

    def __hash__(self):
        return hash((self.n, self.tau, self.alpha))

    def __repr__(self):
        return f"Params(n={self.n!r}, tau={self.tau!r}, alpha={self.alpha!r})"

    @property
    def rho(self) -> tuple[Fraction, ...]:
        """The shift vector rho_i = tau (n - i) + alpha."""
        return tuple(self.tau * (self.n - i) + self.alpha for i in range(1, self.n + 1))

    def node(self, mu) -> tuple[Fraction, ...]:
        """The lattice point mu + rho (mu padded with zeros to length n)."""
        mu = normalize(mu)
        if len(mu) > self.n:
            raise DomainError(f"partition {list(mu)} has more than n={self.n} parts")
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

    def coefficient(self, e) -> Fraction:
        return self.coeffs.get(tuple(int(v) for v in e), Fraction(0))

    def degree(self) -> int:
        """Total degree in the y variables (half the x-degree)."""
        return max((sum(e) for e in self.coeffs), default=0)

    def evaluate(self, pt):
        if len(pt) != self.n:
            raise DomainError(f"point has length {len(pt)}, expected {self.n}")
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
            "terms": [{"exp": list(e), "coeff": str(self.coeffs[e])} for e in reps],
        }


@lru_cache(maxsize=None)
def _compiled_terms(lam: tuple[int, ...], p: Params):
    """Point-independent tableau data: (psi_T, ((coordinate index, c^2), ...)).

    c is the additive constant a'(s) + tau (n - T(s) - l'(s)) + alpha of the
    factor attached to cell s.
    """
    terms = []
    for tab in reverse_tableaux(lam, p.n):
        psi = psi_tableau(tab, p.tau)
        facs = []
        for (i, j) in cells(lam):
            t = tab.entry(i, j)
            c = (j - 1) + p.tau * (p.n - t - (i - 1)) + p.alpha
            facs.append((t - 1, c * c))
        terms.append((psi, tuple(facs)))
    return tuple(terms)


@lru_cache(maxsize=None)
def _column_terms(j: int, p: Params):
    """The column subset sum in the shape of _compiled_terms: psi = 1 and,
    for the k-th member i of a j-subset, the factor x_i^2 - rho_{i+j-k}^2."""
    rsq = [r * r for r in p.rho]
    return tuple(
        (1, tuple((i - 1, rsq[i + j - k - 1]) for k, i in enumerate(subset, start=1)))
        for subset in itertools.combinations(range(1, p.n + 1), j)
    )


def _term_sum(terms, sq):
    """sum_T psi_T prod (sq[idx] - c^2) over compiled terms: exact when sq
    is exact, plain float arithmetic otherwise."""
    total = 0
    for psi, facs in terms:
        prod = psi
        for idx, csq in facs:
            prod = prod * (sq[idx] - csq)
        total = total + prod
    if isinstance(total, int):
        total = Fraction(total)
    return total


def _float_companion(terms):
    """The compiled terms with psi and every c^2 rounded to float.

    Raises OverflowError when a constant lies beyond float range.
    """
    return tuple((float(psi), tuple((idx, float(csq)) for idx, csq in facs)) for psi, facs in terms)


def _float_sum(fterms, sq):
    """Float tableau sum over a float companion at float squares sq.

    Returns (S, A, M): the sum S = sum_T psi_T prod (sq - c^2), the absolute
    sum A = sum_T |psi_T prod (sq - c^2)| of the computed terms, and the
    magnitude M = sum_T |psi_T| prod (sq + c^2). A is the scale of the
    float-point deadband; M bounds the roundoff of S at a rounded exact
    point (see shimura._certified_negative).
    """
    total = 0.0
    absum = 0.0
    mag = 0.0
    for psi, facs in fterms:
        prod = psi
        m = abs(psi)
        for idx, csq in facs:
            y = sq[idx]
            prod *= y - csq
            m *= y + csq
        total += prod
        absum += abs(prod)
        mag += m
    return total, absum, mag


def okounkov_eval(lam, pt, p: Params):
    """Evaluate P_lam at pt by the reverse-tableau sum.

    Exact (Fraction) when pt is exact; plain float arithmetic otherwise.
    """
    lam = normalize(lam)
    if len(lam) > p.n:
        raise DomainError(f"partition {list(lam)} has more than n={p.n} parts")
    if len(pt) != p.n:
        raise DomainError(f"point has length {len(pt)}, expected {p.n}")
    return _term_sum(_compiled_terms(lam, p), [x * x for x in pt])


def rank1_poly(l: int, x, alpha):
    """One-variable interpolation polynomial: prod_{i=0}^{l-1} (x^2 - (i+alpha)^2)."""
    if l < 0:
        raise DomainError(f"need l >= 0, got {l}")
    out = Fraction(1) if is_exact(x) and is_exact(alpha) else 1.0
    xsq = x * x
    for i in range(l):
        c = i + alpha
        out = out * (xsq - c * c)
    return out


def _det_exact(rows):
    """Determinant by fraction-preserving Gaussian elimination."""
    m = [list(r) for r in rows]
    size = len(m)
    det = 1
    for col in range(size):
        piv = None
        for r in range(col, size):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        pivval = m[col][col]
        det = det * pivval
        for r in range(col + 1, size):
            if m[r][col] == 0:
                continue
            f = m[r][col] / pivval
            for c in range(col, size):
                m[r][c] = m[r][c] - f * m[col][c]
    return det


def det_formula_tau1(lam, pt, alpha):
    """Alternant quotient det[p_{(lam+delta)_j}(x_i)] / prod_{i<j}(x_i^2 - x_j^2).

    The tau=1 closed form; requires pairwise-distinct squared coordinates.
    """
    n = len(pt)
    lam = normalize(lam)
    if len(lam) > n:
        raise DomainError(f"partition {list(lam)} has more than {n} parts")
    padded = lam + (0,) * (n - len(lam))
    kappa = [padded[j] + (n - 1 - j) for j in range(n)]
    sq = [x * x for x in pt]
    van = 1
    for i in range(n):
        for j in range(i + 1, n):
            van = van * (sq[i] - sq[j])
    if van == 0:
        raise DomainError("coinciding squared coordinates make the alternant quotient singular")
    mat = [[rank1_poly(kappa[j], pt[i], alpha) for j in range(n)] for i in range(n)]
    num = _det_exact(mat)
    if is_exact(num) and is_exact(van):
        return Fraction(num) / Fraction(van)
    return num / van


def column_poly(j: int, pt, p: Params):
    """Column shape 1^j by the explicit subset sum over i_1 < ... < i_j."""
    if not 1 <= j <= p.n:
        raise DomainError(f"column height {j} outside 1..{p.n}")
    if len(pt) != p.n:
        raise DomainError(f"point has length {len(pt)}, expected {p.n}")
    return _term_sum(_column_terms(j, p), [x * x for x in pt])


def _poly_mul_trunc(a, b, deg):
    out = [Fraction(0)] * (deg + 1)
    for i, ai in enumerate(a):
        if i > deg or ai == 0:
            continue
        for k, bk in enumerate(b):
            if i + k > deg:
                break
            out[i + k] = out[i + k] + ai * bk
    return out


def _series_inv(a, deg):
    # requires a[0] == 1
    out = [Fraction(0)] * (deg + 1)
    out[0] = Fraction(1)
    for k in range(1, deg + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            ai = a[i] if i < len(a) else Fraction(0)
            if ai != 0:
                acc = acc + ai * out[k - i]
        out[k] = -acc
    return out


def column_poly_gf(j: int, pt, p: Params):
    """Column shape 1^j as the t^j coefficient of
    prod_i (1 + t x_i^2) / prod_{i=j}^{n} (1 + t rho_i^2)."""
    if not 1 <= j <= p.n:
        raise DomainError(f"column height {j} outside 1..{p.n}")
    if len(pt) != p.n:
        raise DomainError(f"point has length {len(pt)}, expected {p.n}")
    num = [Fraction(1)]
    for x in pt:
        num = _poly_mul_trunc(num, [Fraction(1), x * x], j)
    den = [Fraction(1)]
    for i in range(j, p.n + 1):
        r = p.rho[i - 1]
        den = _poly_mul_trunc(den, [Fraction(1), r * r], j)
    inv = _series_inv(den, j)
    series = _poly_mul_trunc(num, inv, j)
    return series[j]


def rectangle_poly(l: int, pt, p: Params):
    """Full rectangle l^n: prod_{i=0}^{l-1} prod_j (x_j^2 - (i+alpha)^2)."""
    if l < 0:
        raise DomainError(f"need l >= 0, got {l}")
    if len(pt) != p.n:
        raise DomainError(f"point has length {len(pt)}, expected {p.n}")
    total = Fraction(1)
    for i in range(l):
        c = i + p.alpha
        csq = c * c
        for x in pt:
            total = total * (x * x - csq)
    return total


def k_constant(mu, tau):
    """The hook-style constant: prod over cells of (tau leg + arm + 1)."""
    mu = normalize(mu)
    out = tau ** 0
    for s in cells(mu):
        out = out * (tau * leg(mu, s) + arm(mu, s) + 1)
    if is_exact(out):
        return Fraction(out)
    return out


def k_constant_alt(mu, d, n: int):
    """The same constant assembled from the generalized Pochhammer symbol,
    the pairwise product beta_mu, and the Jack value at the all-ones point.

    Matches k_constant(mu, d/2) exactly; d must be positive.
    """
    mu = normalize(mu)
    d = as_exact(d)
    if d <= 0:
        raise DomainError(f"need d > 0, got {d}")
    if len(mu) > n:
        raise DomainError(f"partition {list(mu)} has more than n={n} parts")
    half = d / 2
    padded = mu + (0,) * (n - len(mu))
    beta = Fraction(1)
    jack_ones = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            diff = padded[i] - padded[j]
            gap = j - i
            beta = beta * (diff + half * gap) / (half * gap)
            beta = beta * poch_rising(half * (gap + 1), diff) / poch_rising(half * (gap - 1) + 1, diff)
            jack_ones = jack_ones * poch_rising(half * (gap + 1), diff) / poch_rising(half * gap, diff)
    a = half * (n - 1) + 1
    return gen_pochhammer(a, padded, d) * jack_ones / beta


def verify_characterization(lam, p: Params, extra_weight: int = 2, samples: int = 24, seed: int = 0) -> dict:
    """Check the vanishing characterization of P_lam on the shifted lattice.

    Reports (a) exact zeros at mu + rho for every mu in Lambda^{|lam|} except
    lam itself, (b) a nonzero value at lam + rho, and (c) extra vanishing at
    sampled heavier mu that do not contain lam. Failures populate the report;
    nothing raises.
    """
    lam = normalize(lam)
    w = weight(lam)
    if w > EXPAND_WEIGHT_GUARD:
        raise DomainError(f"weight {w} above the verification budget {EXPAND_WEIGHT_GUARD}")
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
        for mu in enumerate_Lambda(p.n, w + extra_weight)
        if weight(mu) > w and not contains(mu, lam)
    ]
    import random  # here, not at module level: only the verify path draws samples
    rng = random.Random(seed)
    chosen = pool if len(pool) <= samples else sorted(rng.sample(pool, samples))
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


def _expand_terms(terms, n: int) -> dict:
    """Multiply out sum_T psi_T prod (y_idx - c^2) over compiled terms into
    a map from full exponent vectors in y to coefficients.

    The factors of one term on one coordinate multiply out to a univariate
    polynomial; the term's monomials are the products of one coefficient
    from each coordinate.
    """
    out: dict[tuple[int, ...], Fraction] = {}
    for psi, facs in terms:
        rows = [[Fraction(1)] for _ in range(n)]
        for idx, csq in facs:
            row = rows[idx]
            rows[idx] = [a - csq * b for a, b in zip([0] + row, row + [0])]
        for choice in itertools.product(*(enumerate(row) for row in rows)):
            coeff = psi
            for _, c in choice:
                coeff = coeff * c
            e = tuple(k for k, _ in choice)
            out[e] = out.get(e, 0) + coeff
    return out


def interpolate_from_values(values, d: int, p: Params) -> SymEvenPoly:
    """Reconstruct the unique even symmetric polynomial of y-degree <= d from
    its values on the shifted lattice points mu + rho, mu in Lambda^d.

    Runs the triangular back-substitution in the P basis (a vanishing
    diagonal detects a non-generic tau) and expands the result
    sum_mu coeff_P[mu] P_mu from the compiled tableau terms.
    """
    if d < 0:
        raise DomainError(f"negative degree bound {d}")
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
            for e, v in _expand_terms(_compiled_terms(mu, p), p.n).items():
                coeffs[e] = coeffs.get(e, 0) + c * v
    return SymEvenPoly(p.n, coeffs)


def okounkov_expand(lam, p: Params) -> SymEvenPoly:
    """Full coefficient map of P_lam, multiplied out from its compiled
    tableau terms. Guarded to |lam| <= 8."""
    lam = normalize(lam)
    w = weight(lam)
    if w > EXPAND_WEIGHT_GUARD:
        raise DomainError(f"expansion guarded to weight <= {EXPAND_WEIGHT_GUARD}, got {w}")
    if len(lam) > p.n:
        raise DomainError(f"partition {list(lam)} has more than n={p.n} parts")
    return SymEvenPoly(p.n, _expand_terms(_compiled_terms(lam, p), p.n))
