"""Rank-2 hypergeometric machinery: the closed q_{(m1,m2)} formula, a
Pochhammer prefactor times a terminating hypergeometric sum at unit
argument, run in integers by q_rank2; the boundary series R, the telescoped
midpoint value, and the three-test region decision.

The boundary series ops are the only place in the package where truncation
error exists, and one summer handles it: _R_enclosure, a partial sum plus a
second-order (Kummer) bound on the tail, with the float roundoff counted in
the radius (the proof is in its docstring). R_series returns its centre
once the tail bound meets rel_tol. At d = 2 with alpha = rho2 >= 1/2, R
telescopes to W's divided difference S_div of limits, so in_B decides
there by W's rule, limits._W_member, and never sums the series; elsewhere
in_B signs R from the enclosure. rho itself is a member by an exact rule,
and only a point the enclosure cannot sign falls back to the sign of its
centre with the module deadband.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exactnum import (SIGN_DEADBAND, ArgumentError, DomainError, PoleError, _add_flag_runs, _add_run, _check_int,
                       _check_length, _exact_point, _over_common, as_exact)
from .limits import _ScaledSine, _W_member
from .okounkov import Params
from .shimura import in_G, in_G_raster

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

# The runs of _R_steps start at _ENCLOSURE_START terms and double the count,
# up to _ENCLOSURE_MAX for in_B and _SERIES_MAX for R_series. The proof holds
# from any start K >= 1; most T2 points are signed at K = 4, and the doubling
# goes on, through the same partial sums, where they are not.
_ENCLOSURE_START = 4
_ENCLOSURE_MAX = 4096
_SERIES_MAX = 2**19
# The range of the float analysis of _R_enclosure: the largest parameter, and
# the smallest term that carries on a run (also the floor of each b_j).
_HUGE = 2.0**64
_TINY = 2.0**-600
# A node of limits._ScaledSine costs O(m), a series point O(1) in m: past
# this m the d = 2 sign is left to the series.
_SCALED_SINE_MAX_M = 1024


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
    """The boundary series sum_k (rho2±x2)_k (d/2)_k / ((rho1±x1)_k k!) at
    the parameters in_B signs: pt and rho at their exact values (a float as
    the binary rational it holds), each parameter rounded once from its
    exact value (_series_constants, _series_args). It is the centre of the
    enclosure of _R_enclosure (the proof is there) at the first term count
    K whose tail bound is at most rel_tol (1 + |centre|).

    ArgumentError unless rel_tol is a positive finite number; DomainError
    where no K up to _SERIES_MAX = 2^19 meets rel_tol, or where there is no
    bound at all (a term underflowed, or a parameter is out of range).
    """
    if not 0.0 < rel_tol < math.inf:
        raise ArgumentError(f"rel_tol must be a positive finite number, got {rel_tol!r}")
    _, r1, r2, s, _ = _series_constants(d, tuple(map(as_exact, _exact_point(rho, 2))))
    q, (r1, r2, x1, x2) = _over_common((r1, r2, *_exact_point(pt, 2)))
    for k0, value, tail, _ in _R_steps(*_series_args(x1, x2, q, r1, r2, d), s):
        if tail <= rel_tol * (1.0 + abs(value)) < math.inf:
            return value
        if k0 >= _SERIES_MAX:
            break
    raise DomainError(f"no tail bound of the boundary series within rel_tol = {rel_tol!r} by {_SERIES_MAX} terms")


def _residual(p2, p1, p0, q2, q1, q0, c0, a1, a2, m):
    """The coefficients n0 .. n5 of the residual N(k) of _R_enclosure
    (m = -1), or, at m = 1 on the absolute values of the leaves, the same
    trees with every difference made a sum (N+_j there)."""
    d2, d1, d0 = q2 + m * p2, q1 + m * p1, q0 + m * p0
    return (
        a2 * q0,
        (a1 + a2) * d0 + a2 * q1 + m * (c0 * p0 + q0),
        a1 * (d0 + d1) + a2 * (d1 + q2) + c0 * (d0 + m * (p0 + p1)) + m * (q0 + q1),
        a1 * (d1 + d2) + a2 * (d2 + 1) + c0 * (d0 + d1 + m * (p1 + p2)) + m * (q1 + q2),
        a1 * d2 + c0 * (d1 + d2 + m * (p2 + 1)) + m * (q2 + 1),
        c0 * (d2 + m) + m,
    )


def _kummer(u, l, s):
    """The comparison g(k) = c0 k + a1 + a2/k of _R_enclosure's tail and
    bounds b_j >= |n_j| on the coefficients of its residual:
    (c0, a1, a2, (b0, .., b5)), every b_j inf outside the range of the
    proof. Plain arithmetic, so on Fractions it gives the exact c0, a1,
    a2."""
    u0, u1, u2 = u
    l0, l1 = l
    p2, p1, p0 = u0 + u1 + u2, u0 * u1 + (u0 + u1) * u2, u0 * u1 * u2
    q2, q1, q0 = l0 + l1 + 1, l0 * l1 + (l0 + l1), l0 * l1
    d2, d1, d0 = q2 - p2, q1 - p1, q0 - p0
    # n5 = 0, then n4 = 0, then n3 = 0 (s = q2 - p2)
    c0 = 1 / (s - 1)
    a1 = (q2 + 1 - c0 * (d1 + d2 - p2 - 1)) / s
    a2 = (q1 + q2 - a1 * (d1 + d2) - c0 * (d0 + d1 - p1 - p2)) / (s + 1)
    v0, v1, v2 = abs(u0), abs(u1), abs(u2)
    plus2 = v0 + v1 + v2
    if not (plus2 + q2 + abs(a1) + abs(a2) <= _HUGE and q0 >= 2.0**-128):
        return c0, a1, a2, (math.inf,) * 6
    n0, n1, n2, n3, n4, n5 = _residual(p2, p1, p0, q2, q1, q0, c0, a1, a2, -1)
    m0, m1, m2, m3, m4, m5 = _residual(plus2, v0 * v1 + (v0 + v1) * v2, abs(p0), q2, q1, q0, c0, abs(a1), abs(a2), 1)
    e = 32 * _UNIT_ROUNDOFF
    # unrolled: this runs once at every T2 point of a raster
    return c0, a1, a2, (abs(n0) + e * m0 + _TINY, abs(n1) + e * m1 + _TINY, abs(n2) + e * m2 + _TINY,
                        abs(n3) + e * m3 + _TINY, abs(n4) + e * m4 + _TINY, abs(n5) + e * m5 + _TINY)


def _R_steps(u, l, s):
    """The runs of _R_enclosure (the proof is there) at K = _ENCLOSURE_START,
    2K, 4K, ...: (K, centre, bound on |T_K - t_K g(K)|, bound on |R - centre|),
    each bound inf where there is none. The last run of a terminating series
    is its sum with tail 0, and that of an underflowed term has no bound."""
    u0, u1, u2 = u
    l0, l1 = l
    c0, a1, a2, (b0, b1, b2, b3, b4, b5) = _kummer(u, l, s)
    total = comp = absum = 0.0
    term = 1.0
    k = 0
    k0 = _ENCLOSURE_START
    while True:
        while k < k0:
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            absum += abs(term)
            term = term * ((k + u0) * (k + u1) * (k + u2)) / ((k + l0) * (k + l1) * (k + 1.0))
            if -_TINY < term < _TINY:
                if term == 0.0 and 0.0 in (k + u0, k + u1, k + u2):
                    yield k0, total, 0.0, (16 * k + 32) * _UNIT_ROUNDOFF * (absum + abs(total))
                else:
                    yield k0, total, math.inf, math.inf
                return
            k += 1
        tg = term * (c0 * k0 + a1 + a2 / k0)
        value = total + tg
        tail = radius = math.inf
        if min(k0 + u0, k0 + u1, k0 + u2) > 0.0:
            w0, w1, w2, w3, w4 = sorted((k0 + l0, k0 + l1, k0 + 1.0, k0 + 1.0, float(k0)))
            delta = ((((b0 / w0 + b1) / w1 + b2) / w2 + b3) / w3 + b4) / w4 + b5
            if delta < 1.0:
                tail = abs(tg) * delta / (1.0 - delta)
                tmag = abs(term) * (c0 * k0 + abs(a1) + abs(a2) / k0) / (1.0 - delta)
                radius = tail + (16 * k0 + 32) * _UNIT_ROUNDOFF * (absum + tmag + abs(value))
        yield k0, value, tail, radius
        k0 *= 2


def _R_enclosure(u, l, s):
    """A proven enclosure of the boundary series with float upper
    parameters u, lower parameters l (both > 0) and decay exponent s > 1,
    the parameters in_B and R_series round: (value, radius) with
    |R - value| <= radius at these floats. radius is inf where no tail
    bound was found, and value is then the centre of the last run.

    The sum (_R_steps). The terms t_k, t_0 = 1, t_{k+1} = t_k P(k) / Q(k)
    with P(k) = (k+u0)(k+u1)(k+u2) = k^3 + p2 k^2 + p1 k + p0 and
    Q(k) = (k+l0)(k+l1)(k+1) = k^3 + q2 k^2 + q1 k + q0, are summed by a
    compensated recurrence, K = _ENCLOSURE_START = 4 terms t_0 .. t_{K-1}
    at first. While the interval contains 0, K doubles, up to 4096; the sum
    goes on from t_K, so the run at each K is the same whatever K the
    doubling started from. A zero term means a factor k + u_i was exactly
    0: the series terminates and the sum is the whole value.

    The tail, Kummer's test made quantitative (Knopp, "Theory and
    Application of Infinite Series"). For g(k) = c0 k + a1 + a2/k, the
    residual N(k) = (g(k) - g(k+1) P(k)/Q(k) - 1) Q(k) k (k+1) is a
    polynomial n0 + n1 k + ... + n5 k^5 (the k^6 terms cancel; _residual
    writes each n_j in c0, a1, a2 and the p_j, q_j). _kummer solves
    n5 = n4 = n3 = 0 with s = q2 - p2, which gives c0 = 1/(s - 1) and N
    of degree 2, but what follows holds for any c0 > 0, a1 and a2, with N
    the residual of the g actually used. Once K + u_i > 0 for every i,
    every t_k with k >= K has the sign of t_K, and
        t_k g(k) - t_{k+1} g(k+1) = t_k (1 + e_k),
        e_k = N(k) / (Q(k) k (k+1)).
    For k >= K, k^j / (Q(k) k (k+1)) <= w_j, the reciprocal of the product
    of the 5 - j largest of K+l0, K+l1, K+1, K+1, K (each other factor
    k + c is at least k), so |e_k| <= delta = sum_j |n_j| w_j. As
    k -> inf, e_k -> n5 = c0 (s* - 1) - 1, with s* = q2 - p2 the decay
    exponent of these floats, so delta < 1 gives s* > 1 and
    t_k g(k) = O(k^(1 - s*)) -> 0. Summed from K, the identity gives
    |T_K - t_K g(K)| <= delta |T_K| for the tail T_K = sum_{k>=K} t_k, so
        T_K = t_K g(K) +- |t_K g(K)| delta / (1 - delta).

    The residual in floats (u = 2^-53, g_n = n u / (1 - n u); Higham,
    "Accuracy and Stability of Numerical Algorithms", ch. 3). Count a sum
    one rounding deeper than its deeper operand and a product one deeper
    than its two operands' depths together; 2x and -x are exact. Then no
    n_j of _residual is more than 9 roundings deep from the floats u, l,
    c0, a1 and a2, so |n^_j - n_j| <= g_9 N+_j, where N+_j is the same
    tree on the absolute values of the leaves with every difference made
    a sum, and its float N+^_j (_residual at m = 1) is at least
    (1 - g_9) N+_j. delta is computed from b_j = |n^_j| + 32u N+^_j + 2^-600
    by one Horner pass over the w_j, at most 17 roundings deep. As
    |n^_j| <= (1 + g_9)/(1 - g_9) N+^_j and 32 > 17 + 9, the computed
    delta is at least the delta above.

    Range. The bound is used only where the float sum
    |u0| + |u1| + |u2| + q2 + |a1| + |a2| is at most 2^64 and the float
    l0 l1 at least 2^-128 (else each b_j is inf), so every leaf is below
    2^65 and Q(0) above 2^-129; and a run stops with no bound at a term
    below 2^-600 that is not exactly 0. So no term underflows: for k >= 1
    a nonzero k + u_i is at least 2^-53 (it is at least k/2, or a multiple
    of the spacing of floats near |u_i| >= 1/2), so P(k) >= 2^-159 and
    t_k P(k) >= 2^-759, and an underflowed P(0) gives t_1 below 2^-600. An
    underflow in a product of the n_j trees adds at most 2^-1074 (Higham
    (2.8)), and reaches n_j multiplied by at most 2^200 (a monomial has at
    most four leaves), fewer than 64 times: the 2^-600 in b_j covers it
    and keeps every Horner step above 2^-930. An overflow gives inf or
    nan, which fails every test.

    The radius (Higham, ch. 3-4). A step of the recurrence rounds 11 times
    (k + u_i and k + l_i, four products, one product and one quotient with
    the term), so the computed term is t^_k = t_k (1 + th_k),
    |th_k| <= g_(11k). The compensated sum of t^_0 .. t^_(K-1) is within
    (2u + O(K u^2)) sum |t^_k| of their exact sum (Higham (4.8)), and
    sum |t_k - t^_k| <= g_(11K)/(1 - g_(11K)) sum |t^_k|; absum is
    sum |t^_k| to within g_K. The float g(K) is within g_3 g+ of g(K),
    g+ = c0 K + |a1| + |a2|/K, so t^_K g^(K) is within (11K + 5) u |t^_K| g+
    of t_K g(K), an error the half-width passes on at most 1/(1 - delta)
    times; the half-width is computed in 3 roundings, and the final
    addition adds u |value|. For K <= 2^19, (16K + 32) u times
    absum + |t^_K| g+ / (1 - delta) + |value| exceeds the sum of these with
    room for the rounding of the radius itself and for any underflow in it
    (absum >= t_0 = 1), and is added to the half-width. Nothing in this
    proof asks more of K than K >= 1.
    """
    for k0, value, _, radius in _R_steps(u, l, s):
        if abs(value) > radius or k0 >= _ENCLOSURE_MAX:
            break
    return value, radius


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
    of in_B; rho1 and rho2; the series' decay exponent
    s = 1 + 2 (rho1 - rho2) - d/2, rounded once; and the m of the
    limits._ScaledSine whose W rule decides R at d = 2 (rho1 - rho2 = 1
    and m = 2 rho2 - 1 an integer, 0 <= m <= _SCALED_SINE_MAX_M, so alpha
    is in [1/2, 512.5]), None elsewhere.
    ArgumentError unless d is a positive integer, rho a pair and that float
    s > 1 (the series is summable, and the tail of _R_enclosure divides by
    s - 1)."""
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
    m = 2 * r2 - 1
    telescopes = d == 2 and r1 - r2 == 1 and 0 <= m <= _SCALED_SINE_MAX_M and m == int(m)
    return Params(2, r1 - r2, r2), r1, r2, fs, int(m) if telescopes else None


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
    in exact arithmetic. At d = 2 with rho1 - rho2 = 1 and
    m = 2 rho2 - 1 an integer in [0, 1024], R has the sign of
    S_div(|x1| - rho2, |x2| - rho2; m) at every other point that passes
    (the proof is in the docstring of limits._ScaledSine), which W's rule,
    limits._W_member, decides at those nodes: so there, on the chamber
    x1 >= x2 >= 0, in_B is in_G and (x2 <= rho2 or in_W at m).
    Every other point that passes is decided by the sign of the boundary
    series at the parameters R_series sums, each rounded once from its
    exact value (_series_args, whose DomainError a point with |x1| > rho1,
    possible only where |rho2| >= rho1, raises):
    - _R_enclosure gives a proven interval for R (the proof is in its
      docstring), and a point is a member when the interval lies in R > 0
      and not one when it lies in R < 0;
    - a point whose interval still contains 0 after 4096 terms keeps the
      float rule value >= -SIGN_DEADBAND on the centre of that last
      interval. R is exactly 0 at some such points, for example on
      x1 + x2 = 3/2 for d = 1, rho = (1, 1/2), where no bound can sign.

    d must be a positive integer and s in float range and, rounded, above
    1, or ArgumentError is raised at every point.
    """
    p, r1, r2, s, m = _series_constants(d, tuple(map(as_exact, rho)))
    pt = _exact_point(pt, 2)
    if not in_G(pt, p).member:
        return False
    q, (r1, r2, x1, x2) = _over_common((r1, r2, *pt))
    # the exact rules decide every point with |x2| <= rho2 before a table is read
    table = None if m is None or abs(x2) <= r2 else _ScaledSine(m, q, (abs(x1) - r2, abs(x2) - r2))
    return _past_gates(x1, x2, q, r1, r2, d, s, table)


def in_B_raster(axis, d: int, rho):
    """in_B on the rank-2 raster of an exact axis: yields, for each i, row i
    in run form (exactnum._cells), the runs (stop, bool) of
    [in_B((axis[i], axis[j]), d, rho) for j <= i]. The gates are the rows
    of in_G_raster for the Params whose column tests they are: a run of
    them that fails a gate is one False run, and the cells of a run that
    passes both are decided one by one by _past_gates, the rest of in_B, on
    the numerators of the axis and rho over one denominator, with one
    limits._ScaledSine of the axis nodes |x| - rho2 where R telescopes."""
    p, r1, r2, s, m = _series_constants(d, tuple(map(as_exact, rho)))
    q, (r1, r2, *nums) = _over_common((r1, r2, *axis))
    table = None if m is None else _ScaledSine(m, q, [abs(x) - r2 for x in nums])
    for x1, gates in zip(nums, in_G_raster(axis, p)):
        runs, start = [], 0
        for stop, v in gates:
            if v.member:
                _add_flag_runs(runs, start, bytes([_past_gates(x1, x2, q, r1, r2, d, s, table)
                                                   for x2 in nums[start:stop]]))
            else:
                _add_run(runs, stop, False)
            start = stop
        yield runs


def _past_gates(x1: int, x2: int, q: int, r1: int, r2: int, d: int, s: float, table) -> bool:
    """in_B at an exact point that passes both gates, from the numerators
    over one denominator q > 0 of the point (x1, x2) and of rho1, rho2 of
    _series_constants: the exact rules at rho and its mirrors and on the T1
    side, then, at d = 2 with alpha >= 1/2, W's rule at the nodes
    |x| - rho2 of table, a limits._ScaledSine over q (None elsewhere), then
    the sign of the boundary series."""
    # |x1| against rho1: equal at rho and its mirrors; less, with
    # |x2| <= rho2 (signed), on the T1 side
    if abs(x1) == r1 or abs(x1) < r1 and abs(x2) <= r2:
        return True
    if table is not None:
        # the gates give rho2 <= |x1| < rho1 and rho2 < |x2| <= rho1 here
        # (_ScaledSine has the proof), so both nodes are in its table
        return _W_member(table, abs(x1) - r2, abs(x2) - r2)
    u, l = _series_args(x1, x2, q, r1, r2, d)
    value, radius = _R_enclosure(u, l, s)
    if abs(value) > radius:
        return value > 0
    return value >= -SIGN_DEADBAND


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
