"""Rank-2 hypergeometric machinery: the closed q_{(m1,m2)} formula, the
boundary series R, its Gamma closed form at b=0, the telescoped midpoint
value, and the three-test region decision.

The series ops are the only place in the package where truncation error
exists. The region decision in_B does not rest on a truncated value: it
signs the boundary series from a proven enclosure (_R_enclosure), a partial
sum plus a Raabe-type bound on the tail with the float roundoff counted in
the radius. rho itself is a member by an exact rule, and only a point the
enclosure cannot sign falls back to the float value of R_series with the
module deadband.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exactnum import SIGN_DEADBAND, DomainError, PoleError, as_exact, is_exact, log_gamma, poch_pm
from .shimura import _UNIT_ROUNDOFF, _exact_point

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
# _R_enclosure sums at least _ENCLOSURE_START terms and doubles the count
# up to _ENCLOSURE_MAX while its interval still contains 0.
_ENCLOSURE_START = 32
_ENCLOSURE_MAX = 4096
# A shifted-cubic coefficient A - B counts as >= 0 when the computed
# (A - B) / (A + B) is at least this (derivation in _tail_cubics_hold).
_CUBIC_MARGIN = 16 * _UNIT_ROUNDOFF
# sigma and sigma' sit this fraction of s - 1 outside h(K) and s. Only the
# chance that the cubics certify depends on it, never the bound itself.
_SIGMA_GAP = 2.0**-20


class HypSeriesSpec:
    """A hypergeometric sum at unit argument: sum_k prod(upper)_k /
    (prod(lower)_k k!), optionally truncated at k = truncation inclusive."""

    __slots__ = ("upper", "lower", "truncation")

    def __init__(self, upper, lower, truncation: int | None = None):
        if truncation is not None and truncation < 0:
            raise DomainError(f"truncation must be nonnegative, got {truncation}")
        self.upper = tuple(upper)
        self.lower = tuple(lower)
        self.truncation = truncation


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
    checks that it is summable: finite coordinates, d >= 1, both lower
    parameters > 0, s > 1."""
    if not isinstance(d, int) or d < 1:
        raise DomainError(f"d must be a positive integer, got {d}")
    r1 = float(rho[0])
    r2 = float(rho[1])
    x1 = float(pt[0])
    x2 = float(pt[1])
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise DomainError(f"point coordinates must be finite, got {pt!r}")
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


def _tail_cubics_hold(big_u, big_l, k0: int, sig: float, sig2: float) -> bool:
    """Whether, for every real k >= k0, both
        k Q(k) - (k + sig) P(k) >= 0   and   (k + sig2) P(k) - k Q(k) >= 0,
    with P(k) = (k+u0)(k+u1)(k+u2) and Q(k) = (k+l0)(k+l1)(k+1).

    big_u = (k0+u0, k0+u1, k0+u2) and big_l = (k0+l0, k0+l1, k0+1), each
    rounded once and all > 0. With k = k0 + j, P(k) = j^3 + a2 j^2 + a1 j + a0
    and Q(k) = j^3 + b2 j^2 + b1 j + b0, whose coefficients are elementary
    symmetric functions of big_u and big_l, so both cubics in j have
    coefficients of the form A - B with A, B sums of products of positive
    floats:
        j^3: b2 - (a2 + sig),   j^2: (b1 + k0 b2) - (a1 + (k0+sig) a2),
        j^1: (b0 + k0 b1) - (a0 + (k0+sig) a1),   j^0: k0 b0 - (k0+sig) a0,
    and the same pairs swapped, with sig2, for the second cubic. A cubic
    with every coefficient >= 0 is >= 0 for j >= 0.

    Rounding margin (u = 2^-53, g_n = n u / (1 - n u)). Each computed A or B
    is a sum of products of positive floats, at most 8 roundings deep from
    the exact k0 + u_i, k0 + l_i, k0 + sig: its relative error is at most
    g_8, so A >= A^ (1 - g_9), B <= B^ (1 + g_9) and
    A - B >= (A^ - B^) - g_9 (A^ + B^). The test reads
    fl(fl(A^ - B^) / fl(A^ + B^)) >= 16 u, which makes (A^ - B^) / (A^ + B^)
    >= 16 u (1 - 3u) > g_9, so A - B >= 0. No value here is near underflow:
    every factor is at least the spacing of floats near k0 >= 32. An
    overflow gives inf / inf = nan, which fails the test.
    """
    U0, U1, U2 = big_u
    L0, L1, L2 = big_l
    a2 = U0 + U1 + U2
    a1 = U0 * U1 + U0 * U2 + U1 * U2
    a0 = U0 * U1 * U2
    b2 = L0 + L1 + L2
    b1 = L0 * L1 + L0 * L2 + L1 * L2
    b0 = L0 * L1 * L2
    q = (b2, b1 + k0 * b2, b0 + k0 * b1, k0 * b0)
    for sg, upper in ((sig, True), (sig2, False)):
        ks = k0 + sg
        p = (a2 + sg, a1 + ks * a2, a0 + ks * a1, ks * a0)
        for qc, pc in zip(q, p):
            pos, neg = (qc, pc) if upper else (pc, qc)
            if not (pos - neg) / (pos + neg) >= _CUBIC_MARGIN:
                return False
    return True


def _R_enclosure(u, l, s):
    """A proven enclosure of the boundary series with float upper parameters
    u, lower parameters l (both > 0) and decay exponent s > 1, as built by
    _R_parameters: (value, radius) with |R - value| <= radius. radius is inf
    where no tail bound was found.

    The sum. The terms t_k, t_0 = 1, t_{k+1} = t_k P(k) / Q(k) with
    P(k) = (k+u0)(k+u1)(k+u2), Q(k) = (k+l0)(k+l1)(k+1), are summed by the
    compensated recurrence of R_series, K = 32 terms t_0 .. t_{K-1} at
    first. A zero term means a factor k + u_i was exactly 0: the series
    terminates and the sum is the whole value.

    The tail. Once K + u_i > 0 for every i (K exceeds x2 - rho2), every
    t_k with k >= K has the sign of t_K, and tau_k = |t_k|. If
        (k + sig) tau_{k+1} <= k tau_k   for all k >= K, with sig > 1,
    telescoping from K gives (sig - 1) sum_{j>K} tau_j <= K tau_K. If
        (k + sig2) tau_{k+1} >= k tau_k  for all k >= K,
    the same telescoping, with k tau_k -> 0 (tau_k ~ k^-s, s > 1), gives
    (sig2 - 1) sum_{j>K} tau_j >= K tau_K. So the tail from K lies in
    tau_K [1 + K/(sig2 - 1), 1 + K/(sig - 1)]. With P, Q > 0 the two
    conditions are the cubics kQ(k) - (k + sig)P(k) >= 0 and
    (k + sig2)P(k) - kQ(k) >= 0 (the k^4 terms cancel; the leading
    coefficients are s - sig and sig2 - s), proven for every k >= K by
    _tail_cubics_hold. This is Raabe's test made quantitative. The term
    ratio is K/(K + h(K)) at K, h(K) = K(Q(K) - P(K))/P(K), and tends to
    1 - s/k, so sig and sig2 are put just below and just above both h(K)
    and s. Where the cubics fail, sig <= 1, or the interval contains 0, K
    doubles, up to 4096.

    The radius (Higham, "Accuracy and Stability of Numerical Algorithms",
    ch. 3-4; u = 2^-53, g_n = n u / (1 - n u)). A step of the recurrence
    rounds 11 times (k + u_i and k + l_i, four products, one product and
    one quotient with the term), so the computed term is
    t^_k = t_k (1 + th_k), |th_k| <= g_(11k). The compensated sum of
    t^_0 .. t^_(K-1) is within (2u + O(K u^2)) sum |t^_k| of their exact
    sum (Higham (4.8)), and sum |t_k - t^_k| <= g_(11K)/(1 - g_(11K))
    sum |t^_k|. absum is sum |t^_k| to within g_K. tau_K is
    |t^_K| (1 + g) with |g| <= g_(11K)/(1 - g_(11K)); the interval's centre
    and half-width, computed in at most 6 roundings each, add g_6 of
    tau^ (1 + K/(sig - 1)); the final addition adds u |value|. For
    K <= 4096, (16K + 32) u times absum + tau^ (1 + K/(sig - 1)) + |value|
    exceeds the sum of these with room for the rounding of the radius
    itself, and is added to the half-width.
    """
    u0, u1, u2 = u
    l0, l1 = l
    gap = _SIGMA_GAP * (s - 1.0)
    total = comp = absum = 0.0
    term = 1.0
    k = 0
    k0 = _ENCLOSURE_START
    value, radius = 0.0, math.inf
    while True:
        while k < k0:
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            absum += abs(term)
            term = term * ((k + u0) * (k + u1) * (k + u2)) / ((k + l0) * (k + l1) * (k + 1.0))
            if term == 0.0:
                if 0.0 in (k + u0, k + u1, k + u2):
                    return total, (16 * k + 32) * _UNIT_ROUNDOFF * (absum + abs(total))
                return total, math.inf
            k += 1
        big_u = (k0 + u0, k0 + u1, k0 + u2)
        if min(big_u) > 0.0:
            big_l = (k0 + l0, k0 + l1, k0 + 1.0)
            pk = big_u[0] * big_u[1] * big_u[2]
            h = k0 * (big_l[0] * big_l[1] * big_l[2] - pk) / pk
            sig = min(h, s) - gap
            sig2 = max(h, s) + gap
            if sig > 1.0 and _tail_cubics_hold(big_u, big_l, k0, sig, sig2):
                tau = abs(term)
                lo = k0 / (sig2 - 1.0)
                hi = k0 / (sig - 1.0)
                value = total + math.copysign(tau * (1.0 + (lo + hi) / 2.0), term)
                radius = tau * (hi - lo) / 2.0 + (16 * k0 + 32) * _UNIT_ROUNDOFF * (
                    absum + tau * (1.0 + hi) + abs(value)
                )
                if abs(value) > radius:
                    return value, radius
        if k0 >= _ENCLOSURE_MAX:
            return value, radius
        k0 *= 2


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


class Rank2Regions:
    """The two closed triangles cut out by rho in the rank-2 chamber."""

    __slots__ = ("rho1", "rho2")

    def __init__(self, rho1, rho2):
        self.rho1 = as_exact(rho1)
        self.rho2 = as_exact(rho2)

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
    float(rho2^2), (float(rho1), float(rho2)), rho1, rho2 themselves, and
    d_bound = ceil(4 (rho1 - rho2)). The boundary series decays like k^-s
    with s = 1 + 2 (rho1 - rho2) - d/2, so it is summable (s > 1) exactly
    when the integer d is below d_bound.

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
    d_bound = math.ceil(4 * (r1 - r2))
    return (s.numerator, s.denominator, abs(r2.numerator), r2.denominator, fs, fr2sq, (float(r1), float(r2)),
            r1, r2, d_bound)


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
    S + x1^2 + x2^2 and (rho2^2 + x1^2)(rho2^2 + x2^2). The exact tests run
    instead at the exact rational values Fraction(x1), Fraction(x2) where a
    scale is not finite, so that the deadband cannot decide, and where a
    point passes the deadband tests with float(rho1) - x1 <= 0, which only
    a point inside their deadband can do. A point that mixes a float with an
    exact coordinate beyond float range is decided exactly at its rational
    value. A nan or inf coordinate raises DomainError.

    An exact point that passes both gates has x1 <= rho1, with equality
    only at (rho1, +-rho2), where the series has its parameter pole: rho and
    its mirror are members by that exact rule. Where rho2 - x2 >= 0,
    rho2 + x2 >= 0 and |x1| < rho1 (the T1 side) every term
    (rho2+x2)_k (rho2-x2)_k (d/2)_k / ((rho1+x1)_k (rho1-x1)_k k!) is >= 0,
    so R >= 1 and the point is a member from the term signs alone; an exact
    point is decided so in exact arithmetic, also within float rounding of
    rho1. Every other point that passes is decided by the sign of the
    boundary series, summed in floats from the float coordinates and rho:
    - a float point on the T1 side is a member from the term signs in floats;
    - elsewhere _R_enclosure gives a proven interval for R, and a point is a
      member when the interval lies in R > 0 and not one when it lies in
      R < 0;
    - a point whose interval still contains 0 after 4096 terms keeps the
      float rule R_series(rel_tol=1e-8) >= -SIGN_DEADBAND. R is exactly 0 at
      some such points, for example (1, 1) for d = 2, rho = (3/2, 1/2).

    d must be a positive integer and the boundary series summable for d
    and rho (s > 1, a condition that does not depend on the point), as for
    R_series, or DomainError is raised at every point.
    """
    if not isinstance(d, int) or d < 1:
        raise DomainError(f"d must be a positive integer, got {d}")
    s_num, s_den, r2_num, r2_den, fs, fr2sq, frho, r1, r2, d_bound = _rho_constants(tuple(rho))
    if d >= d_bound:
        s = 1 + 2 * (r1 - r2) - Fraction(d, 2)
        raise DomainError(f"series decays like k^-s with s = {s} <= 1: not summable")
    x1, x2 = pt
    exact = is_exact(x1) and is_exact(x2)
    if not exact:
        if not all(math.isfinite(x) for x in pt if not is_exact(x)):
            raise DomainError(f"point coordinates must be finite, got {pt!r}")
        try:
            f1, f2 = float(x1), float(x2)
        except OverflowError:
            exact = True
            x1, x2 = _exact_point(pt)
    if not exact:
        y1 = f1 * f1
        y2 = f2 * f2
        scale10 = fs + y1 + y2
        scale11 = (fr2sq + y1) * (fr2sq + y2)
        if math.isfinite(scale10) and math.isfinite(scale11):
            q10 = fs - y1 - y2
            q11 = (fr2sq - y1) * (fr2sq - y2)
            if q10 < -SIGN_DEADBAND * (1.0 + scale10) or q11 < -SIGN_DEADBAND * (1.0 + scale11):
                return False
            exact = f1 >= frho[0]
        else:
            exact = True
        if exact:
            x1, x2 = Fraction(f1), Fraction(f2)
    if exact:
        if _gates_fail(x1, x2, s_num, s_den, r2_num, r2_den):
            return False
        if x1 == r1:
            return True
        # the T1 side, |x1| < rho1 and |x2| <= rho2 (signed), in integers
        if (abs(x1.numerator) * r1.denominator < r1.numerator * x1.denominator
                and abs(x2.numerator) * r2.denominator <= r2.numerator * x2.denominator):
            return True
    fpt = (float(x1), float(x2))
    # _R_parameters raises here exactly where R_series would. Where
    # rho2 - x2 >= 0 and rho2 + x2 >= 0 in these floats, every series
    # parameter is >= 0: the upper ones (rho2 +- x2, d/2) by that test, the
    # lower ones (rho1 +- x1, 1) by the checks of _R_parameters. Then every
    # term is >= 0 and R >= t_0 = 1: the point is a member without summing.
    u, l, s = _R_parameters(fpt, d, frho)
    if u[0] >= 0 and u[1] >= 0:
        return True
    value, radius = _R_enclosure(u, l, s)
    if abs(value) > radius:
        return value > 0
    return R_series(fpt, d, frho, rel_tol=1e-8) >= -SIGN_DEADBAND
