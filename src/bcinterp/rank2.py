"""Rank-2 hypergeometric machinery: the closed q_{(m1,m2)} formula, the
boundary series R, its Gamma closed form at b=0, the telescoped midpoint
value, and the three-test region decision.

The series ops are the only place in the package where truncation error
exists; everything they gate is protected by deadbands sized against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import SIGN_DEADBAND, DomainError, PoleError, as_exact, is_exact, log_gamma, poch_pm

__all__ = [
    "HypSeriesSpec",
    "Rank2Regions",
    "hyp_sum",
    "q_rank2",
    "q_rank2_partial_d2",
    "R_series",
    "R_closed_form_b0",
    "R_midpoint_telescoped",
    "in_B",
]

HYP_MAX_TERMS = 100000
HYP_TERM_TOL = 1e-14
_R_MAX_TERMS = 400000
# in_B only needs the series sign at points >= 1e-6 from the region
# boundary, where |R| is orders of magnitude above this truncation level.
_IN_B_SERIES_TOL = 1e-8


@dataclass(frozen=True)
class HypSeriesSpec:
    """A hypergeometric sum at unit argument: sum_k prod(upper)_k /
    (prod(lower)_k k!), optionally truncated at k = truncation inclusive."""

    upper: tuple
    lower: tuple
    truncation: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(self.upper))
        object.__setattr__(self, "lower", tuple(self.lower))
        if self.truncation is not None and self.truncation < 0:
            raise DomainError(f"truncation must be nonnegative, got {self.truncation}")


def _nonpos_int_bound(v):
    """-v when v is a nonpositive integer (the index where (v)_k dies), else None."""
    if is_exact(v):
        v = as_exact(v)
        if v <= 0 and v.denominator == 1:
            return int(-v)
        return None
    f = float(v)
    if f <= 0.0 and f == math.floor(f):
        return int(-f)
    return None


def hyp_sum(spec: HypSeriesSpec):
    """Evaluate the series. Exact (Fraction) for truncated sums with exact
    parameters; float otherwise, iterating until |term| < 1e-14 (1 + |sum|)
    or 100000 terms, whichever first.

    A nonpositive-integer upper parameter terminates the series there; a
    lower parameter reaching zero earlier, with a live term, is a pole.
    """
    upper, lower = spec.upper, spec.lower
    bounds = [b for b in (_nonpos_int_bound(u) for u in upper) if b is not None]
    term_bound = min(bounds) if bounds else None
    if spec.truncation is None and term_bound is None:
        if len(upper) > len(lower) + 1:
            raise DomainError("series diverges: too many upper parameters")
        if len(upper) == len(lower) + 1:
            gap = sum(lower) - sum(upper)
            if not gap > 0:
                raise DomainError(f"series diverges: parameter excess {gap} is not positive")

    exact = spec.truncation is not None and all(is_exact(v) for v in upper + lower)
    if exact:
        term = Fraction(1)
        total = Fraction(0)
    else:
        upper = tuple(float(v) for v in upper)
        lower = tuple(float(v) for v in lower)
        term = 1.0
        total = 0.0

    last = spec.truncation if spec.truncation is not None else HYP_MAX_TERMS
    if term_bound is not None:
        last = min(last, term_bound)
    k = 0
    while True:
        total = total + term
        if k >= last:
            break
        num = term
        for u in upper:
            num = num * (u + k)
        den = 1
        for l in lower:
            den = den * (l + k)
        den = den * (k + 1)
        if den == 0:
            if num == 0:
                term = num  # dead series; loop exits via the zero-term check
            else:
                raise PoleError(f"lower parameter hits zero at term {k + 1}")
        else:
            term = num / den if not exact else Fraction(num) / Fraction(den)
        k += 1
        if term == 0:
            break
        if spec.truncation is None and abs(term) < HYP_TERM_TOL * (1 + abs(total)):
            total = total + term
            break
    return total


def q_rank2(m1: int, m2: int, pt, d: int, rho):
    """Closed hypergeometric form of the signed rank-2 value: Pochhammer
    prefactor times a terminating series of length m1 - m2.

    Requires rho1 - rho2 = d/2 (the rank-2 parameter dictionary with
    alpha = rho2). Exact on rational points.
    """
    if m1 < m2 or m2 < 0:
        raise DomainError(f"need m1 >= m2 >= 0, got ({m1}, {m2})")
    if not isinstance(d, int) or d < 1:
        raise DomainError(f"d must be a positive integer, got {d}")
    r1 = as_exact(rho[0])
    r2 = as_exact(rho[1])
    half = Fraction(d, 2)
    if r1 - r2 != half:
        raise DomainError(f"rho must satisfy rho1 - rho2 = d/2, got {r1} - {r2} != {half}")
    x1 = as_exact(pt[0])
    x2 = as_exact(pt[1])
    alpha = r2
    big_m = m1 - m2
    pref = poch_pm(alpha, x1, m2) * poch_pm(alpha, x2, m2) * poch_pm(m2 + r1, x1, big_m)
    series = hyp_sum(
        HypSeriesSpec(
            upper=(Fraction(-big_m), m2 + alpha + x2, m2 + alpha - x2, half),
            lower=(1 - big_m - half, m2 + r1 + x1, m2 + r1 - x1),
            truncation=big_m,
        )
    )
    return pref * series


def q_rank2_partial_d2(m1: int, m2: int, pt, rho):
    """The d=2 rewrite: same prefactor times the (m1-m2)-th partial sum of
    the series with upper (m2+alpha±x2, 1) and lower (m2+rho1±x1)."""
    if m1 < m2 or m2 < 0:
        raise DomainError(f"need m1 >= m2 >= 0, got ({m1}, {m2})")
    r1 = as_exact(rho[0])
    r2 = as_exact(rho[1])
    if r1 - r2 != 1:
        raise DomainError(f"d=2 form needs rho1 - rho2 = 1, got {r1} - {r2}")
    x1 = as_exact(pt[0])
    x2 = as_exact(pt[1])
    alpha = r2
    big_m = m1 - m2
    pref = poch_pm(alpha, x1, m2) * poch_pm(alpha, x2, m2) * poch_pm(m2 + r1, x1, big_m)
    series = hyp_sum(
        HypSeriesSpec(
            upper=(m2 + alpha + x2, m2 + alpha - x2, Fraction(1)),
            lower=(m2 + r1 + x1, m2 + r1 - x1),
            truncation=big_m,
        )
    )
    return pref * series


def _R_parameters(pt, d: int, rho):
    """Float upper parameters (rho2+x2, rho2-x2, d/2), lower parameters
    (rho1+x1, rho1-x1) and decay exponent s of the boundary series, after the
    checks that it is summable: d >= 1, both lower parameters > 0, s > 1."""
    if not isinstance(d, int) or d < 1:
        raise DomainError(f"d must be a positive integer, got {d}")
    r1 = float(rho[0])
    r2 = float(rho[1])
    x1 = float(pt[0])
    x2 = float(pt[1])
    u = (r2 + x2, r2 - x2, d / 2.0)
    l = (r1 + x1, r1 - x1)
    if l[0] <= 0 or l[1] <= 0:
        raise DomainError("series parameter at or below a pole: need |x1| < rho1")
    s = 1.0 + sum(l) - sum(u)
    if s <= 1.0:
        raise DomainError(f"series decays like k^{-s} with s = {s} <= 1: not summable")
    return u, l, s


def R_series(pt, d: int, rho, rel_tol: float = 1e-12) -> float:
    """The boundary series sum_k (rho2±x2)_k (d/2)_k / ((rho1±x1)_k k!).

    Terms decay like k^{-(d/2+1)}, too slowly to sum term-by-term to full
    precision, so the loop stops once a three-term Euler-Maclaurin tail
    estimate is below rel_tol and adds that tail. The tail coefficients come
    from matching the asymptotic expansion of log(term ratio).
    """
    u, l, s = _R_parameters(pt, d, rho)
    u2 = sum(v * v for v in u)
    l2 = sum(v * v for v in l) + 1.0
    u3 = sum(v ** 3 for v in u)
    l3 = sum(v ** 3 for v in l) + 1.0
    a2 = (l2 - u2) / 2.0
    a3 = (u3 - l3) / 3.0
    c3 = a3 - s * a2 - s ** 3 / 6.0
    g1 = s / 2.0 - a2
    g2 = (-s * (s + 1.0) * (s + 2.0) / 6.0 + (s + 1.0) * g1 + g1 * g1 - c3) / 2.0
    tail_a1 = 0.5 + g1 / s - g1 / (s - 1.0)
    tail_a2 = (
        s / 12.0
        + g1 / 2.0
        + g2 / (s + 1.0)
        - g1 * (0.5 + g1 / s)
        + (g1 * g1 - g2) / (s - 1.0)
    )
    resid_scale = 1.0 + abs(g1) ** 3 + abs(g1 * g2) + abs(g2)

    total = 0.0
    comp = 0.0
    term = 1.0
    k = 0
    while True:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        term = term * ((k + u[0]) * (k + u[1]) * (k + u[2])) / ((k + l[0]) * (k + l[1]) * (k + 1.0))
        k += 1
        if term == 0.0:
            return total
        # the proxy underestimates the next tail coefficient; the margin
        # was sized against high-precision reference values, worst case
        # d=1 with x1 near the rho1 pole
        if k >= 40 and abs(term) * resid_scale / float(k) ** 3 < 0.0005 * rel_tol * (1.0 + abs(total)):
            break
        if k >= _R_MAX_TERMS:
            break
    tail = term * (k / (s - 1.0) + tail_a1 + tail_a2 / k)
    return total + tail


def R_closed_form_b0(pt) -> float:
    """Gamma-quotient value of the boundary series for the b=0, d=2 pair
    rho = (3/2, 1/2). Denominator poles give exactly 0; a numerator pole
    (x1 at or past rho1) raises."""
    x1 = float(pt[0])
    x2 = float(pt[1])
    r1, r2 = 1.5, 0.5
    den_args = [
        (r1 + r2 + x1 + x2) / 2.0,
        (r1 + r2 + x1 - x2) / 2.0,
        (r1 + r2 - x1 + x2) / 2.0,
        (r1 + r2 - x1 - x2) / 2.0,
    ]
    for a in den_args:
        if a <= 1e-12 and abs(a - round(a)) <= 1e-12:
            return 0.0
    num1 = log_gamma(r1 + x1)
    num2 = log_gamma(r1 - x1)
    dens = [log_gamma(a) for a in den_args]
    log_val = num1[0] + num2[0] - sum(v[0] for v in dens)
    sign = num1[1] * num2[1]
    for v in dens:
        sign *= v[1]
    return sign * math.pi / 2.0 * math.exp(log_val)


def R_midpoint_telescoped(b: int) -> float:
    """Closed value of the boundary series at the diagonal midpoint
    x1 = x2 = (rho1+rho2)/2 for d=2 and half-multiplicity b, via the
    telescoping rewrite; exact rational arithmetic, float result."""
    if b < 0:
        raise DomainError(f"need b >= 0, got {b}")
    two_rho2 = b + 1
    harmonic = sum(Fraction(1, 1) / (Fraction(1, 2) + k) for k in range(two_rho2 + 1))
    value = 1 - Fraction(1, 2) * (two_rho2 + Fraction(1, 2)) * harmonic / (two_rho2 + 1)
    return float(value)


@dataclass(frozen=True)
class Rank2Regions:
    """The two closed triangles cut out by rho in the rank-2 chamber."""

    rho1: Fraction
    rho2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rho1", as_exact(self.rho1))
        object.__setattr__(self, "rho2", as_exact(self.rho2))

    def in_T1(self, pt, tol=0) -> bool:
        x1, x2 = pt
        return x2 >= -tol and x1 >= x2 - tol and x1 <= self.rho2 + tol

    def in_T2(self, pt, tol=0) -> bool:
        x1, x2 = pt
        return (
            x2 >= self.rho2 - tol
            and x1 >= x2 - tol
            and x1 + x2 <= self.rho1 + self.rho2 + tol
        )

    def in_union(self, pt, tol=0) -> bool:
        return self.in_T1(pt, tol) or self.in_T2(pt, tol)


@lru_cache(maxsize=None)
def _rho_constants(rho: tuple):
    """What in_B needs of rho, built once per rho: the numerator and
    denominator of S = rho1^2 + rho2^2 and of |rho2|, float(S),
    float(rho2^2) and (float(rho1), float(rho2)).

    float(S) and float(rho2^2) are inf when S is beyond float range, which
    sends every float point to the exact gates.
    """
    r1 = as_exact(rho[0])
    r2 = as_exact(rho[1])
    s = r1 * r1 + r2 * r2
    try:
        fs, fr2sq = float(s), float(r2 * r2)
    except OverflowError:
        fs = fr2sq = math.inf
    return s.numerator, s.denominator, abs(r2.numerator), r2.denominator, fs, fr2sq, (float(r1), float(r2))


def _gates_fail(x1, x2, s_num, s_den, r2_num, r2_den) -> bool:
    """Whether the exact point (x1, x2) fails a polynomial gate of in_B,
    q10 = S - x1^2 - x2^2 < 0 or q11 = (rho2^2 - x1^2)(rho2^2 - x2^2) < 0,
    decided in integers from S = s_num/s_den and |rho2| = r2_num/r2_den.

    With x1 = a/b and x2 = c/e, q10 < 0 exactly when
    ((ae)^2 + (cb)^2) s_den > s_num (be)^2. The sign of rho2^2 - x^2 is the
    sign of |rho2| - |x|, so q11 < 0 exactly when one of |x1|, |x2| is below
    |rho2| and the other above it.
    """
    a, b = x1.numerator, x1.denominator
    c, e = x2.numerator, x2.denominator
    ae = a * e
    cb = c * b
    be = b * e
    if (ae * ae + cb * cb) * s_den > s_num * be * be:
        return True
    u1 = abs(a) * r2_den - r2_num * b
    u2 = abs(c) * r2_den - r2_num * e
    return u1 < 0 < u2 or u2 < 0 < u1


def in_B(pt, d: int, rho) -> bool:
    """Region decision by the three tests: the weight-1 and column signed
    values nonnegative, then the boundary series nonnegative.

    Exact points get exact sign tests on the two polynomials, taken in
    integer arithmetic on the numerators and denominators (_gates_fail).
    Float points get the module deadband on the float values, scaled by
    S + x1^2 + x2^2 and (rho2^2 + x1^2)(rho2^2 + x2^2); where a scale is not
    finite the deadband cannot decide, and the exact tests run at the exact
    rational values Fraction(x1), Fraction(x2). A nan or inf coordinate
    raises DomainError. The series test always runs in floats with the same
    deadband, SIGN_DEADBAND. Points that pass both polynomial gates satisfy
    x1 <= rho1, with equality only at rho itself, which is a member; the
    1e-6 whisker below keeps the series away from its parameter pole there.

    The series is summed only where |x2| > rho2 (the T2 side). Elsewhere
    every term (rho2+x2)_k (rho2-x2)_k (d/2)_k / ((rho1+x1)_k (rho1-x1)_k k!)
    is >= 0, so R >= 1 and the point is a member from the term signs alone.
    """
    x1, x2 = pt
    s_num, s_den, r2_num, r2_den, fs, fr2sq, frho = _rho_constants(tuple(rho))
    if is_exact(x1) and is_exact(x2):
        if _gates_fail(x1, x2, s_num, s_den, r2_num, r2_den):
            return False
    else:
        f1 = float(x1)
        f2 = float(x2)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            raise DomainError(f"point coordinates must be finite, got {pt!r}")
        y1 = f1 * f1
        y2 = f2 * f2
        scale10 = fs + y1 + y2
        scale11 = (fr2sq + y1) * (fr2sq + y2)
        if math.isfinite(scale10) and math.isfinite(scale11):
            q10 = fs - y1 - y2
            q11 = (fr2sq - y1) * (fr2sq - y2)
            if q10 < -SIGN_DEADBAND * (1.0 + scale10) or q11 < -SIGN_DEADBAND * (1.0 + scale11):
                return False
        elif _gates_fail(Fraction(f1), Fraction(f2), s_num, s_den, r2_num, r2_den):
            return False
    if frho[0] - float(x1) < 1e-6:
        return True
    fpt = (float(x1), float(x2))
    # Where rho2 - x2 >= 0 and rho2 + x2 >= 0 in these floats, every series
    # parameter is >= 0: the upper ones (rho2 +- x2, d/2) by that test, the
    # lower ones (rho1 +- x1, 1) by the checks of _R_parameters, which raise
    # here exactly where R_series would. Then every term is >= 0 and
    # R >= t_0 = 1. The float sum R_series would return from the same floats
    # starts at 1.0 and adds nonnegative terms and an estimate of a
    # nonnegative tail, so it is nowhere near -SIGN_DEADBAND: the point is a
    # member without summing.
    u, _, _ = _R_parameters(fpt, d, frho)
    if u[0] >= 0 and u[1] >= 0:
        return True
    value = R_series(fpt, d, frho, rel_tol=_IN_B_SERIES_TOL)
    return value >= -SIGN_DEADBAND
