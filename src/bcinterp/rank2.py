"""Rank-2 hypergeometric machinery: the closed q_{(m1,m2)} formula, a
Pochhammer prefactor times a terminating hypergeometric sum at unit
argument, run in integers by q_rank2; the boundary series R, the telescoped
midpoint value, and the three-test region decision.

The boundary series ops are the only place in the package where truncation
error exists. The region decision in_B does not rest on a truncated value: it
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

from .exactnum import (SIGN_DEADBAND, ArgumentError, DomainError, PoleError, _add_flag_runs, _add_run, _cells,
                       _check_int, _check_length, _exact_point, _over_common, as_exact)
from .okounkov import Params
from .shimura import _G_runs, in_G

__all__ = [
    "Rank2Regions",
    "q_rank2",
    "q_rank2_partial_d2",
    "R_series",
    "R_midpoint_telescoped",
    "in_B",
    "in_B_raster",
]

# Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0**-53

_R_MAX_TERMS = 400000
# _R_enclosure sums at least _ENCLOSURE_START terms and doubles the count
# up to _ENCLOSURE_MAX while its interval still contains 0. Its proof holds
# from any start K >= 1; most T2 points are signed at K = 4, and the
# doubling goes on, through the same partial sums, where they are not.
_ENCLOSURE_START = 4
_ENCLOSURE_MAX = 4096
# A shifted-cubic coefficient A - B counts as >= 0 when the computed
# (A - B) / (A + B) is at least this (derivation in _tail_cubics_hold).
_CUBIC_MARGIN = 16 * _UNIT_ROUNDOFF
# sigma and sigma' sit this fraction of s - 1 outside h(K) and s. Only the
# chance that the cubics certify depends on it, never the bound itself.
_SIGMA_GAP = 2.0**-20


def _q_exact(m1: int, m2: int, pt, rho, half, terminating: bool, gap_error) -> Fraction:
    """q_rank2 (terminating, half = d/2) or q_rank2_partial_d2 (half = 1) past
    their shared checks, in integers over one denominator D of rho, pt, half:
    the prefactor over D^(4 m2 + 2M), M = m1 - m2, and the sum as a running
    numerator over the product of its term ratios' denominators. The sum stops
    at its first zero term, where an upper parameter that is a nonpositive
    integer ends the series, and raises PoleError where a lower parameter
    reaches zero under a live term; gap_error(rho1, rho2) if
    rho1 - rho2 != half."""
    _check_int("m2", m2)
    _check_int("m1 - m2", m1 - m2)
    _check_length(pt, 2)
    _check_length(rho, 2)
    den, (r1, r2, x1, x2, h) = _over_common((*rho, *pt, half))
    if r1 - r2 != h:
        raise DomainError(gap_error(Fraction(r1, den), Fraction(r2, den)))
    pref = math.prod(v + i * den for i in range(m2) for v in (r2 + x1, r2 - x1, r2 + x2, r2 - x2))
    pref *= math.prod(v + i * den for i in range(m2, m1) for v in (r1 + x1, r1 - x1))
    u, l, big_m = m2 * den + r2, m2 * den + r1, (m1 - m2) * den
    upper, lower = (u + x2, u - x2, h), (l + x1, l - x1)
    if terminating:
        upper, lower = (-big_m, *upper), (den - big_m - h, *lower)
    total = term = scale = 1
    for k in range(m1 - m2):
        num = math.prod(v + k * den for v in upper)
        if num == 0:
            break
        step = den * (k + 1) * math.prod(v + k * den for v in lower)
        if step == 0:
            raise PoleError(f"lower parameter hits zero at term {k + 1}")
        term *= num
        total = total * step + term
        scale *= step
    return Fraction(pref * total, den ** (2 * (m1 + m2)) * scale)


def q_rank2(m1: int, m2: int, pt, d: int, rho):
    """Closed hypergeometric form of the signed rank-2 value: the prefactor
    (alpha±x1)_{m2} (alpha±x2)_{m2} (m2+rho1±x1)_M, M = m1 - m2, times the
    terminating sum over k <= M of
    (-M)_k (m2+alpha±x2)_k (d/2)_k / ((1-M-d/2)_k (m2+rho1±x1)_k k!), in
    integers.

    Requires rho1 - rho2 = d/2 (the rank-2 parameter dictionary with
    alpha = rho2). Exact on rational points.
    """
    _check_int("d", d, 1)
    half = Fraction(d, 2)
    return _q_exact(m1, m2, pt, rho, half, True,
                    lambda r1, r2: f"rho must satisfy rho1 - rho2 = d/2, got {r1} - {r2} != {half}")


def q_rank2_partial_d2(m1: int, m2: int, pt, rho):
    """The d=2 rewrite: same prefactor times the (m1-m2)-th partial sum of
    the series with upper (m2+alpha±x2, 1) and lower (m2+rho1±x1)."""
    return _q_exact(m1, m2, pt, rho, 1, False, lambda r1, r2: f"d=2 form needs rho1 - rho2 = 1, got {r1} - {r2}")


def R_series(pt, d: int, rho, rel_tol: float = 1e-12) -> float:
    """The boundary series sum_k (rho2±x2)_k (d/2)_k / ((rho1±x1)_k k!), by
    _R_sum, at the parameters in_B signs: pt and rho at their exact values
    (a float as the binary rational it holds), each parameter rounded once
    from its exact value (_series_constants, _series_args)."""
    _, r1, r2, s = _series_constants(d, tuple(map(as_exact, _exact_point(rho, 2))))
    q, (r1, r2, x1, x2) = _over_common((r1, r2, *_exact_point(pt, 2)))
    return _R_sum(*_series_args(x1, x2, q, r1, r2, d), s, rel_tol)


def _R_sum(u, l, s, rel_tol: float) -> float:
    """The boundary series with float upper parameters u, lower parameters
    l (both > 0) and decay exponent s > 1. Terms decay like k^{-(d/2+1)},
    too slowly to sum term-by-term to full precision, so the loop stops
    once a three-term Euler-Maclaurin tail estimate is below rel_tol and
    adds that tail. The tail coefficients come from matching the
    asymptotic expansion of log(term ratio).
    """
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
    >= 16 u (1 - 3u) > g_9, so A - B >= 0. Neither the margin nor this
    argument depends on k0 >= 1. No value here is near underflow: each
    k0 + l_i, k0 + 1 and k0 + sig is at least 1, and each k0 + u_i > 0 is
    either at least k0/2 or, exact by Sterbenz's lemma, a nonzero multiple
    of the spacing of floats near |u_i| > k0/2 >= 1/2, so at least 2^-53;
    every product here stays above 2^-159. An overflow gives
    inf / inf = nan, which fails the test.
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
    u, lower parameters l (both > 0) and decay exponent s > 1, the
    parameters of _R_sum: (value, radius) with |R - value| <= radius at
    these floats. radius is inf where no tail bound was found.

    The sum. The terms t_k, t_0 = 1, t_{k+1} = t_k P(k) / Q(k) with
    P(k) = (k+u0)(k+u1)(k+u2), Q(k) = (k+l0)(k+l1)(k+1), are summed by the
    compensated recurrence of _R_sum, K = _ENCLOSURE_START = 4 terms
    t_0 .. t_{K-1} at first. A zero term means a factor k + u_i was exactly
    0: the series terminates and the sum is the whole value.

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
    doubles, up to 4096; the sum goes on from t_K, so the partial sum at
    each K is the same whatever K the doubling started from. Nothing in
    this proof, nor in the radius below, asks more of K than K >= 1.

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


def R_midpoint_telescoped(b: int) -> float:
    """Closed value of the boundary series at the diagonal midpoint
    x1 = x2 = (rho1+rho2)/2 for d=2 and half-multiplicity b, via the
    telescoping rewrite; exact rational arithmetic, float result."""
    _check_int("b", b)
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
        _check_length(pt, 2)
        x1, x2 = pt
        return x2 >= -tol and x1 >= x2 - tol and x1 <= self.rho2 + tol

    def in_T2(self, pt, tol=0) -> bool:
        _check_length(pt, 2)
        x1, x2 = pt
        return (
            x2 >= self.rho2 - tol
            and x1 >= x2 - tol
            and x1 + x2 <= self.rho1 + self.rho2 + tol
        )

    def in_union(self, pt, tol=0) -> bool:
        return self.in_T1(pt, tol) or self.in_T2(pt, tol)


# typed, and rho exact: as keys, 2.0 == 2 and (1.5, 0.5) == (3/2, 1/2)
@lru_cache(maxsize=None, typed=True)
def _series_constants(d, rho: tuple):
    """What in_B and R_series need of d and the exact pair rho, built once
    per pair: Params(2, rho1 - rho2, rho2), whose column tests are the gates
    of in_B; rho1 and rho2; and the series' decay exponent
    s = 1 + 2 (rho1 - rho2) - d/2, rounded once. ArgumentError unless d is a
    positive integer, rho a pair and that float s > 1 (the series is
    summable, and _R_sum divides by s - 1)."""
    _check_int("d", d, 1)
    _check_length(rho, 2)
    r1, r2 = rho
    s = 1 + 2 * (r1 - r2) - Fraction(d, 2)
    try:
        fs = float(s)
    except OverflowError:
        raise ArgumentError("series decay exponent s = 1 + 2 (rho1 - rho2) - d/2 beyond float range") from None
    if not fs > 1.0:
        raise ArgumentError(f"series decays like k^-s with s = {fs} <= 1 as a float: not summable")
    return Params(2, r1 - r2, r2), r1, r2, fs


def in_B(pt, d: int, rho) -> bool:
    """Region decision by the three tests: the weight-1 and column signed
    values q10 = rho1^2 + rho2^2 - x1^2 - x2^2 and
    q11 = (rho2^2 - x1^2)(rho2^2 - x2^2) nonnegative, then the boundary
    series nonnegative.

    These three tests give the positivity set only for d <= 2. For d >= 3,
    T2 holds points with alpha < x2 < alpha + 1 < x1, where q_(2,2) < 0
    while all three pass, so in_B returns True at some points outside the
    set; the region command rejects rank2-B with d >= 3.

    Every point is taken at its exact value, a float coordinate as the
    binary rational it holds; a nan or inf coordinate raises ArgumentError.
    The two gates are the column tests phi_1 = -q10 and phi_2 = q11 of
    Params(2, rho1 - rho2, rho2), whose shift vector is rho, read from
    in_G, which signs them by an integer numerator.

    Where |rho2| < rho1, a point that passes both gates has |x1| <= rho1,
    with equality only at (+-rho1, +-rho2), where the series has its
    parameter pole: R is even in x1 and in x2, and rho and its mirrors are
    members by that exact rule. Where rho2 - x2 >= 0,
    rho2 + x2 >= 0 and |x1| < rho1 (the T1 side) every term
    (rho2+x2)_k (rho2-x2)_k (d/2)_k / ((rho1+x1)_k (rho1-x1)_k k!) is >= 0,
    so R >= 1 and the point is a member from the term signs alone, decided
    in exact arithmetic. Every other point that passes is decided by the
    sign of the boundary series at the parameters R_series sums, each
    rounded once from its exact value (_series_args, whose DomainError a
    point with |x1| > rho1, possible only where |rho2| >= rho1, raises):
    - _R_enclosure gives a proven interval for R, and a point is a member
      when the interval lies in R > 0 and not one when it lies in R < 0;
    - a point whose interval still contains 0 after 4096 terms keeps the
      float rule _R_sum(u, l, s, rel_tol=1e-8) >= -SIGN_DEADBAND, on the
      same parameters. R is exactly 0 at some such points, for example
      (1, 1) for d = 2, rho = (3/2, 1/2).

    d must be a positive integer and s in float range and, rounded, above
    1, or ArgumentError is raised at every point.
    """
    p, r1, r2, s = _series_constants(d, tuple(map(as_exact, rho)))
    pt = _exact_point(pt, 2)
    if not in_G(pt, p).member:
        return False
    q, (r1, r2, x1, x2) = _over_common((r1, r2, *pt))
    return _past_gates(x1, x2, q, r1, r2, d, s)


def _B_runs(axis, d: int, rho):
    """The rows of in_B_raster in run form (exactnum._cells): a run of
    the gate rows that fails a gate is one False run, and the cells of a
    run that passes both are decided one by one by _past_gates."""
    p, r1, r2, s = _series_constants(d, tuple(map(as_exact, rho)))
    q, (r1, r2, *nums) = _over_common((r1, r2, *axis))
    for x1, gates in zip(nums, _G_runs(axis, p)):
        runs, start = [], 0
        for stop, v in gates:
            if v.member:
                _add_flag_runs(runs, start, bytes([_past_gates(x1, x2, q, r1, r2, d, s) for x2 in nums[start:stop]]))
            else:
                _add_run(runs, stop, False)
            start = stop
        yield runs


def in_B_raster(axis, d: int, rho):
    """in_B on the rank-2 raster of an exact axis: yields, for each i,
    [in_B((axis[i], axis[j]), d, rho) for j <= i]. The gates are the rows
    of in_G_raster for the Params whose column tests they are; the rest of
    in_B runs only at the points that pass both, on the numerators of the
    axis and rho over one denominator."""
    yield from map(_cells, _B_runs(axis, d, rho))


def _past_gates(x1: int, x2: int, q: int, r1: int, r2: int, d: int, s: float) -> bool:
    """in_B at an exact point that passes both gates, from the numerators
    over one denominator q > 0 of the point (x1, x2) and of rho1, rho2 of
    _series_constants: the exact rules at rho and its mirrors and on the T1
    side, then the sign of the boundary series."""
    # |x1| against rho1: equal at rho and its mirrors; less, with
    # |x2| <= rho2 (signed), on the T1 side
    if abs(x1) == r1 or abs(x1) < r1 and abs(x2) <= r2:
        return True
    u, l = _series_args(x1, x2, q, r1, r2, d)
    value, radius = _R_enclosure(u, l, s)
    if abs(value) > radius:
        return value > 0
    return _R_sum(u, l, s, 1e-8) >= -SIGN_DEADBAND


def _series_args(x1: int, x2: int, q: int, r1: int, r2: int, d: int):
    """The float upper parameters u = (rho2 + x2, rho2 - x2, d/2) and lower
    parameters l = (rho1 + x1, rho1 - x1) of the boundary series, from the
    numerators over one denominator q > 0 of a point and rho, each rounded
    once from its exact value (int / int is correctly rounded, as
    float(Fraction) is). DomainError unless |x1| < rho1, every parameter is
    in float range and neither l rounds to 0."""
    if abs(x1) >= r1:
        raise DomainError("series parameter at or below a pole: need |x1| < rho1")
    try:
        u = ((r2 + x2) / q, (r2 - x2) / q, d / 2)
        l = ((r1 + x1) / q, (r1 - x1) / q)
    except OverflowError:
        raise DomainError("series parameters rho +- x beyond float range") from None
    if 0.0 in l:
        raise DomainError("series parameter rho1 +- x1 underflows to 0")
    return u, l
