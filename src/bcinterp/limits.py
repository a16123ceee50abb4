"""Degenerate-parameter route for the alpha = (m+1)/2 family: the Gamma
product identity, rescaled row-polynomial limits, the sine quotient s_m,
its divided difference S, the region tests built from them, and the
diagonal crossing point with a contour tracer for the S = 0 curve.

The W tests sign S through _ScaledSine: the scaled quotient m! s_m, which
never overflows, at exact nodes, with a proven float error bound, and the
deadband rule only where the bound cannot sign. rank2.in_B signs the d = 2
boundary series by the same helper, since there R telescopes to S (the
proof is in the docstring of _ScaledSine).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache

from .exactnum import (SIGN_DEADBAND, ArgumentError, DomainError, Frozen, PoleError, _add_flag_runs, _ascending_axis,
                       _check_int, _exact_point, _gamma_quotient, _over_common, is_exact)

__all__ = [
    "ContourPolyline",
    "gamma_ratio_identity",
    "gamma_ratio_partial",
    "r_partial",
    "r_limit",
    "s_m",
    "s_m_prime",
    "S_div",
    "in_W",
    "in_W_raster",
    "in_G0_rank2",
    "c_l_sequence",
    "crossing_equation",
    "crossing_point",
    "trace_contour",
    "contour_diagonal_crossings",
    "contour_to_csv",
]

# below this gap the divided difference switches to the derivative
_DIAG_SWITCH = 1e-8


class ContourPolyline(Frozen):
    """One connected component of a traced zero level, as an ordered
    point chain. Closed loops repeat the first point at the end."""

    _fields = __slots__ = ("points",)

    def __init__(self, points):
        self._freeze(tuple((float(x), float(y)) for x, y in points))


def gamma_ratio_identity(a, b, c, d) -> float:
    """Value of the infinite product prod_n (n+a)(n+b)/((n+c)(n+d)) under
    the balance condition a+b = c+d, namely Gamma(c)Gamma(d)/(Gamma(a)Gamma(b)).
    The balance is decided exactly when all four inputs are exact, and to
    within 1e-12 of the float sums otherwise. A pole of Gamma(a) or Gamma(b)
    gives 0.0, the product's value; one of Gamma(c) or Gamma(d) raises."""
    if all(is_exact(v) for v in (a, b, c, d)):
        unbalanced = a + b != c + d
    else:
        unbalanced = abs(float(a) + float(b) - float(c) - float(d)) > 1e-12
    if unbalanced:
        raise DomainError(f"parameters must balance: a+b = c+d, got {a}+{b} vs {c}+{d}")
    return _gamma_quotient((c, d), (a, b))


def gamma_ratio_partial(a, b, c, d, terms: int) -> float:
    """Partial product prod_{n<terms} (n+a)(n+b)/((n+c)(n+d)); converges to
    gamma_ratio_identity at a harmonic-squared rate when balanced."""
    _check_int("terms", terms)
    out, n = 1.0, 0.0  # a float n is exact below 2^53: no int-to-float per term
    a, b, c, d = float(a), float(b), float(c), float(d)
    try:
        for _ in range(terms):
            out *= (n + a) * (n + b) / ((n + c) * (n + d))
            n += 1.0
    except ZeroDivisionError:
        raise PoleError(f"zero factor in denominator at n = {n:.0f}") from None
    return out


def _gamma_enclosure(a, b, c, d):
    """[lo, hi] around Q = Gamma(c)Gamma(d)/(Gamma(a)Gamma(b)) and its float value
    gamma_ratio_identity(a, b, c, d), for floats in (0, 4], a + b = c + d up to
    rounding. Q = P T, P = gamma_ratio_partial(a, b, c, d, N), N = 1000, and
    T = Gamma(N+c)Gamma(N+d)/(Gamma(N+a)Gamma(N+b)) is within a factor
    exp(8 |d - d'|) of T' = T at d' = a + b - c (0 < psi(x) < log x at x >= 2).
    T' = prod_{n>=N} (1 + e g(n)), e = (a-c)(b-c), g(n) = 1/((n+m)^2 - h^2),
    m = (a+b)/2, h = m - c. S = sum_{n>=N} g(n) lies between the integrals of g
    from N and from N-1 (Knopp, "Theory and Application of Infinite Series", the
    integral test), so in [1/(N+m), 1/((N-1+m)(1-y^2))], y = |h|/(N-1+m), as
    atanh(y)/y is in [1, 1/(1-y^2)]. As |e g(n)| <= |e| S_hi/(N+m) <= 1/2,
    log(1+x) in [x - x^2, x] puts log T' in [eS - e^2 S_hi^2/(N+m), eS].
    Roundoff is a radius on log Q, u = 2^-53: 8N roundings in P (Higham,
    "Accuracy and Stability of Numerical Algorithms", Lemma 3.1); under 64u for
    the tail exponent, the products and math.exp (5 ulps, as in log_gamma); and
    13u |log Gamma(v)| + 1e-15 for each lgamma of gamma_ratio_identity, its sum."""
    big_n = 1000
    e, m = (a - c) * (b - c), (a + b) / 2
    y = abs(m - c) / (big_n - 1 + m)
    s_lo, s_hi = 1 / (big_n + m), 1 / ((big_n - 1 + m) * (1 - y * y))
    r = 8 * abs(math.fsum((a, b, -c, -d))) + 4e-15
    r += 2.0**-53 * (8 * big_n + 64 + 13 * sum(abs(math.lgamma(v)) for v in (a, b, c, d)))
    low, high = sorted((e * s_lo, e * s_hi))
    p = gamma_ratio_partial(a, b, c, d, big_n)
    return p * math.exp(low - e * e * s_hi * s_hi / (big_n + m) - r), p * math.exp(high + r)


def r_partial(l: int, t, alpha):
    """Rescaled row value after l factors: prod_{n<l} ((n+alpha)^2 - t^2) /
    (n+alpha)^2. Exact for exact inputs."""
    _check_int("l", l)
    tsq = t * t
    out = Fraction(1) if is_exact(t) and is_exact(alpha) else 1.0
    for n in range(l):
        node = n + alpha
        nsq = node * node
        if nsq == 0:
            raise PoleError(f"zero node at n = {n}: alpha = {alpha}")
        out = out * (nsq - tsq) / nsq
    return out


def r_limit(t, alpha) -> float:
    """Limit of r_partial: Gamma(alpha)^2 / (Gamma(alpha+t) Gamma(alpha-t)).
    Poles of the denominator Gammas are zeros of the limit and return 0.0;
    a pole of Gamma(alpha) itself raises."""
    a, tf = float(alpha), float(t)
    return _gamma_quotient((a, a), (a + tf, a - tf))


def s_m(t, m: int) -> float:
    """sin(pi t) / g(t), g(t) = (t+1)...(t+m); exactly 0.0 at integer t
    outside the pole set {-1, ..., -m}. DomainError where g overflows."""
    _check_int("m", m)
    tf = float(t)
    if tf == math.floor(tf):
        ti = int(tf)
        if -m <= ti <= -1:
            raise PoleError(f"t = {ti} is a zero of the denominator")
        return 0.0
    den = 1.0
    for i in range(1, m + 1):
        den *= tf + i
    if not math.isfinite(den):
        raise DomainError(f"(t+1)...(t+m) overflows a float at t = {t}, m = {m}")
    return math.sin(math.pi * tf) / den


def s_m_prime(t, m: int) -> float:
    """Derivative of s_m: (pi cos(pi t) - sin(pi t) g'(t)/g(t)) / g(t), with
    g'/g = sum 1/(t+i), so g is never squared. DomainError where g
    overflows."""
    _check_int("m", m)
    tf = float(t)
    g = 1.0
    dsum = 0.0
    for i in range(1, m + 1):
        if tf + i == 0:
            raise PoleError(f"t = {tf} is a zero of the denominator")
        g *= tf + i
        dsum += 1.0 / (tf + i)
    if not math.isfinite(g):
        raise DomainError(f"(t+1)...(t+m) overflows a float at t = {t}, m = {m}")
    return (math.pi * math.cos(math.pi * tf) - math.sin(math.pi * tf) * dsum) / g


def _div_diff(xf: float, yf: float, m: int, s, prime=s_m_prime) -> float:
    """(s(xf) - s(yf)) / (xf - yf) for s = s_m, or prime((xf + yf)/2, m),
    s_m' by default, within _DIAG_SWITCH of the diagonal, where s is not
    called."""
    if abs(xf - yf) < _DIAG_SWITCH:
        return prime((xf + yf) / 2.0, m)
    return (s(xf) - s(yf)) / (xf - yf)


def _s_table(ts, m: int):
    """t -> s_m(t, m) over the floats t of ts, one s_m call per distinct t:
    a lookup for the s of _div_diff."""
    return {t: s_m(t, m) for t in ts}.__getitem__


def S_div(x, y, m: int) -> float:
    """Symmetrized divided difference (s_m(x) - s_m(y))/(x - y), continued
    across the diagonal by the analytic derivative."""
    return _div_diff(float(x), float(y), m, lambda t: s_m(t, m))


class _ScaledSine:
    """Proven signs of the divided difference S_div(t1, t2; m) at exact t
    in [0, 1], from the scaled sine quotient
        s~(t) = m! s_m(t) = sin(pi t) / h(t),  h(t) = prod_{i<=m} (1 + t/i),
    which has the sign of s_m and, as 1 <= h(t) <= m + 1 on [0, 1], stays
    in [-1, 1] where the denominator of s_m overflows (m >= 170). The
    nodes are exact
    t = n / den (integers n, den > 0; a node outside [0, 1] is left out),
    each kept with an interval [lo, hi] that holds s~(t) at the exact t.
    sign(n1, n2) is the sign of S_div(t1, t2) where the intervals prove it
    (for n1 != n2, sign(s~(t1) - s~(t2)) sign(t1 - t2), signed when the
    intervals are disjoint; on the diagonal the sign of s~'(t), signed when
    |d| exceeds its bound e'), and 0 where they do not. slope(n1, n2) is
    the float divided difference of s~ at the rounded nodes, through
    _div_diff, for the rules that sign what the bound leaves.

    The bound (u = 2^-53, L = 4.2 + log(m + 1) >= pi + H_m, H_m the
    harmonic number, H_m <= 1 + log m). For m <= 2^40, so 3 m u <= 2^-11:
    - Rounding of t. t^ = n / den is t correctly rounded, so
      |t^ - t| <= u t <= 1.01 u t^, or at most 2^-1075 where t^ is below
      2^-1022, and t^ is in [0, 1]. On [0, 1],
      |s~'| <= (pi |cos| + |sin| sum_i 1/(i + t)) / h <= pi + H_m <= L
      (h >= 1), and s~'' = (-pi^2 sin - 2 pi cos H + sin (H^2 + H2)) / h
      with H = sum 1/(i + t), H2 = sum 1/(i + t)^2 <= pi^2/6, so
      |s~''| <= (pi + H_m)^2 + 2 <= L^2 + 2. Moving t to t^ moves s~ by at
      most 1.01 u L t^ and s~' by at most 1.01 u (L^2 + 2).
    - s~ at t^. sin is math.sin at p^ = fl(math.pi t^), and math.sin and
      math.cos are taken to be within 5 ulps, the accuracy log_gamma
      assumes of math.lgamma (CPython's Lib/test/test_math.py tests them at
      5 ulps). |p^ - pi t^| <= 2.01 u pi t^, so the float sine sv is
      within 10.1 u |sv| + 6.3 u t^ of sin(pi t^). Each factor
      fl(1 + fl(t^/i)) is 1 + t^/i to within 2.01 u and the product h^ takes
      m - 1 roundings more, so h^ = h(t^)(1 + th), |th| <= 3.01 m u; and
      s^ = fl(sv / h^). With h >= 1 and |sv| / h <= 1.01 |s^|,
      |s^ - s~(t^)| <= u ((3.07 m + 11.3) |s^| + 6.3 t^).
    - The interval. With the first term, s~(t) is within
      u ((3.07 m + 11.3) |s^| + (6.3 + 1.01 L) t^) of s^. The radius
      e = 2u ((3m + 16) |s^| + (L + 8) t^) + 2^-1000 exceeds that by more
      than u (|s^| + e), the rounding of lo = fl(s^ - e) and
      hi = fl(s^ + e), and than the few roundings of e itself; 2^-1000
      covers a subnormal t^, sine, quotient or product. So
      lo <= s~(t) <= hi.
    - The diagonal. d^ = fl(fl(math.pi c - fl(s g)) / h^), with c the
      float cosine at p^ and g the float sum of 1/(i + t^), is within
      u (9.6 m + 69.6 + L (4.2 m + 22.7) + 1.01 L^2) of s~'(t) (|c|, |sv|,
      t^ <= 1; g within 1.01 (m + 2) u H_m of H(t^); the numerator at most
      pi + 1.02 L), and e' = 2u (L (3m + 12) + L^2 + 8m + 40) + 2^-1000
      covers that with room for its own roundings.
    Off the diagonal no quotient is formed: S_div has the sign of
    s~(t1) - s~(t2) times that of t1 - t2 = (n1 - n2) / den, and disjoint
    intervals give the first.

    Why the sign of S_div is the sign of the rank-2 boundary series at
    d = 2. Take rho = (alpha + 1, alpha) with m = 2 alpha - 1 an integer
    >= 0, and write a, b = alpha +- x2, c, e = alpha + 1 +- x1, so
    c + e = a + b + 2 and R = sum_k (a)_k (b)_k / ((c)_k (e)_k) (the d/2 =
    1 of the third upper parameter cancels k!). Telescoping: for
    F(k) = (a)_k (b)_k / ((c)_(k-1) (e)_(k-1)), F(k+1) - F(k) equals the
    k-th term times ab - (c-1)(e-1) = x1^2 - x2^2, F(0) = alpha^2 - x1^2
    and F(K) -> Gamma(c)Gamma(e) / (Gamma(a)Gamma(b)) (the exponents of K
    cancel; 1/Gamma is 0 at its poles, where the series terminates), so
    for x1^2 != x2^2
        R = (Gamma(c)Gamma(e) / (Gamma(a)Gamma(b)) - (alpha^2 - x1^2))
            / (x1^2 - x2^2)
    (Bailey, "Generalized Hypergeometric Series", 1935, ch. 3; DLMF
    16.4). Reflection: with t = x - alpha, Gamma(alpha + x) = Gamma(1 + t)
    (t+1)...(t+m) and Gamma(z)Gamma(1 - z) = pi / sin(pi z) give
    1 / (Gamma(alpha + x)Gamma(alpha - x)) = -s_m(t) / pi, and
    Gamma(c)Gamma(e) = pi (x1^2 - alpha^2) / s_m(t1). So, with
    t_i = x_i - alpha,
        R = -(alpha^2 - x1^2) S_div(t1, t2; m) / ((x1 + x2) s_m(t1)),
    and, by continuity in x2, the same with s_m'(t1) on x1 = x2. R is
    even in x1 and in x2, so take t_i = |x_i| - alpha. At a point where
    in_B would sum the series (both gates pass, |x2| > alpha, |x1| < rho1),
    q11 = (alpha^2 - x1^2)(alpha^2 - x2^2) >= 0 gives |x1| >= alpha and
    q10 >= 0 gives x1^2 < (alpha + 1)^2 and x2^2 <= (alpha + 1)^2, so
    t1 is in [0, 1), t2 in (0, 1]. For t1 > 0, s_m(t1) > 0 and
    alpha^2 - x1^2 < 0, so sign R = sign S_div(t1, t2); at t1 = 0 the
    limit gives R = (m+1)! s_m(t2) / (pi (x2^2 - alpha^2)) and
    S_div(0, t2) = s_m(t2) / t2, the same sign. Hence R >= 0 exactly
    where S_div(t1, t2; m) >= 0: W's test at m = b + p.
    """

    __slots__ = ("m", "_lip", "t", "s", "lo", "hi")

    def __init__(self, m: int, den: int, nums):
        self.m = m
        self._lip = 4.2 + math.log(m + 1)
        self.t, self.s, self.lo, self.hi = {}, {}, {}, {}
        for n in nums:
            if 0 <= n <= den and n not in self.t:
                t = self.t[n] = n / den
                h = 1.0
                for i in range(1, m + 1):
                    h *= 1.0 + t / i
                s = self.s[t] = math.sin(math.pi * t) / h
                e = 2.0**-52 * ((3 * m + 16) * abs(s) + (self._lip + 8.0) * t) + 2.0**-1000
                self.lo[n], self.hi[n] = s - e, s + e

    def _prime(self, t: float):
        """(d^, e'): s~'(t) at the float t in [0, 1] and its bound."""
        m, lip = self.m, self._lip
        p = math.pi * t
        h, g = 1.0, 0.0
        for i in range(1, m + 1):
            h *= 1.0 + t / i
            g += 1.0 / (i + t)
        d = (math.pi * math.cos(p) - math.sin(p) * g) / h
        return d, 2.0**-52 * (lip * (3 * m + 12) + lip * lip + 8 * m + 40) + 2.0**-1000

    def sign(self, n1: int, n2: int) -> int:
        """The sign of S_div(n1 / den, n2 / den; m) where the bound proves
        it, else 0."""
        if n1 == n2:
            d, e = self._prime(self.t[n1])
            return (d > e) - (-d > e)
        if self.hi[n2] < self.lo[n1]:
            up = 1
        elif self.hi[n1] < self.lo[n2]:
            up = -1
        else:
            return 0
        return up if n1 > n2 else -up

    def slope(self, n1: int, n2: int) -> float:
        """The float divided difference of s~ at the rounded nodes."""
        return _div_diff(self.t[n1], self.t[n2], self.m, self.s.__getitem__, lambda t, _: self._prime(t)[0])


# typed: as keys 1.0 == 1, and a float m must reach the check
@lru_cache(maxsize=None, typed=True)
def _W_constants(m: int):
    """alpha = (m+1)/2, alpha + 1 and float(alpha), built once per checked m:
    what the tests of the alpha = (m+1)/2 family need of m."""
    _check_int("m", m)
    alpha = Fraction(m + 1, 2)
    return alpha, alpha + 1, float(alpha)


def in_W(pt, m: int) -> bool:
    """Membership in W: the square [alpha, alpha+1]^2 cap {x1 >= x2} with
    the shifted divided difference S_div(x1 - alpha, x2 - alpha; m)
    nonnegative, the square tested at the exact point; ArgumentError at a
    nan or inf coordinate. The sign is that of _ScaledSine at the exact
    t_i = x_i - alpha where its bound proves it; elsewhere (exact zeros of
    S_div, and cells within the rounding of one) it is the float divided
    difference of the scaled s~ = m! s_m, nonnegative within the
    deadband SIGN_DEADBAND (_W_member). The scaling makes the deadband
    relative to m! S_div: on the unscaled S_div, whose size is about
    1/(m+1)!, it called points with -1e-9 < S_div < 0 members (from m = 10
    on), and s_m overflows from m = 170."""
    alpha, top, _ = _W_constants(m)
    x1, x2 = _exact_point(pt, 2)
    if not (x2 >= alpha and x1 >= x2 and x1 <= top):
        return False
    den, (n1, n2) = _over_common((x1 - alpha, x2 - alpha))
    return _W_member(_ScaledSine(m, den, (n1, n2)), n1, n2)


def _W_member(nodes: _ScaledSine, n1: int, n2: int) -> bool:
    """W's test at the nodes n1 >= n2 of a table: the proven sign of
    S_div, or, where the bound leaves it, the float slope of s~ at least
    -SIGN_DEADBAND."""
    sign = nodes.sign(n1, n2)
    return sign > 0 if sign else nodes.slope(n1, n2) >= -SIGN_DEADBAND


def in_W_raster(axis, m: int):
    """in_W on the raster of an ascending exact axis: yields, for each i,
    row i in run form (exactnum._cells), the runs (stop, bool) of
    [in_W((axis[i], axis[j]), m) for j <= i].

    The square is the index range of the axis values in [alpha, alpha + 1],
    found by bisection of the axis numerators A over their denominator Q
    against ceil(alpha Q) and floor((alpha + 1) Q). One _ScaledSine holds
    the nodes t = (2A - (m + 1) Q) / 2Q of that range, rounded as in_W
    rounds them, so the same intervals and the same flags. A row inside the
    square is False below alpha; from there on, a cell whose interval lies
    below the row's is a member and one above it is not, both proven, and
    the cells between (the diagonal, ties and exact zeros) go to
    _W_member. Those flags are one bytes object, cut into runs by
    bytes.find. Every other row is empty."""
    _check_int("m", m)
    q, nums = _ascending_axis(axis)
    lo, hi = bisect_left(nums, -(-(m + 1) * q // 2)), bisect_right(nums, (m + 3) * q // 2)
    keys = [2 * a - (m + 1) * q for a in nums[lo:hi]]
    nodes = _ScaledSine(m, 2 * q, keys)
    below, above = [nodes.lo[n] for n in keys], [nodes.hi[n] for n in keys]
    for i in range(len(nums)):
        if lo <= i < hi:
            k = i - lo
            n, low, high = keys[k], below[k], above[k]
            runs = [(lo, False)] if lo else []
            _add_flag_runs(runs, lo, bytes([hi_j < low or lo_j <= high and _W_member(nodes, n, nj)
                                            for nj, lo_j, hi_j in zip(keys[: k + 1], below, above)]))
            yield runs
        else:
            yield [(i + 1, False)]


def in_G0_rank2(pt, m: int) -> bool:
    """The rank-2 phi-set for the alpha = (m+1)/2 family: the triangle
    [0, alpha]^2 cap C, or the T2 square with the weight-1 signed value
    nonnegative at rho = (alpha+1, alpha). Every comparison is exact, a float
    as its binary rational; ArgumentError at a nan or inf coordinate."""
    alpha, top, _ = _W_constants(m)
    x1, x2 = _exact_point(pt, 2)
    if 0 <= x2 <= x1 <= alpha:
        return True
    if not (alpha <= x2 <= x1 <= top):
        return False
    return top * top + alpha * alpha - x1 * x1 - x2 * x2 >= 0


def c_l_sequence(pt, m: int, l_max: int):
    """The normalized row-value sequence c_0, ..., c_{l_max} at a point of
    the open T2 square, plus its limit.

    c_l carries the exact sign of the signed row value q_{(l,0)}(pt): the
    normalizer prod_{k<=l} ((alpha+k)^2 - x2^2) is negative throughout the
    open square (exactly one negative factor, k = 0). The recurrence below
    keeps c_l order-one where the raw row values grow like (l!)^2.
    """
    _check_int("l_max", l_max)
    _, _, alpha = _W_constants(m)
    x1, x2 = map(float, _exact_point(pt, 2))
    if not (alpha + 1.0 > x1 >= x2 > alpha):
        raise DomainError(f"point {pt} is not in the open square (alpha, alpha+1)^2 cap C")
    u1 = x1 * x1
    u2 = x2 * x2
    seq = []
    e = 0.0
    for l in range(l_max + 1):
        node = (l + alpha) ** 2
        e = (e * (node - u1) + 1.0) / (node - u2)
        seq.append(-e)
    limit = S_div(x1 - alpha, x2 - alpha, m) / ((x1 + x2) * s_m(x2 - alpha, m))
    return seq, limit


def crossing_equation(c: float, m: int) -> float:
    """pi cot(pi c) - sum_{i=1}^m 1/(c+i); strictly decreasing on (0,1)."""
    _check_int("m", m)
    out = math.pi * math.cos(math.pi * c) / math.sin(math.pi * c)
    for i in range(1, m + 1):
        out -= 1.0 / (c + i)
    return out


_CROSSING_SCAN = 512


def crossing_point(m: int) -> float:
    """Root of the crossing equation in (0,1) by bisection to width 1e-13.

    The equation is strictly decreasing there (the cotangent term has slope
    at most -pi^2 while the sum's slope is below pi^2/6), so the root is
    unique; a scan over _CROSSING_SCAN samples re-checks that instead of
    assuming it.
    """
    lo, hi = 1e-6, 1.0 - 1e-6
    prev = None
    for k in range(_CROSSING_SCAN):
        v = crossing_equation(lo + (hi - lo) * k / (_CROSSING_SCAN - 1), m)
        if prev is not None and v >= prev:
            raise DomainError(f"crossing equation not decreasing near sample {k} for m = {m}")
        prev = v
    flo = crossing_equation(lo, m)
    fhi = crossing_equation(hi, m)
    if not (flo > 0 > fhi):
        raise DomainError(f"bracket does not straddle the root for m = {m}")
    while hi - lo > 1e-13:
        mid = (lo + hi) / 2.0
        if crossing_equation(mid, m) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


_CONTOUR_BOX = 1.2
# the finest contour grid: every axis gap, h = 1.2/grid less rounding, stays
# above _DIAG_SWITCH, which the node signs of _inside_rows rely on (half the
# grid where h would reach _DIAG_SWITCH itself)
_CONTOUR_MAX_GRID = int(_CONTOUR_BOX / (2 * _DIAG_SWITCH))


# A cell's corners are 0..3 = (x0,y0) (x1,y0) (x1,y1) (x0,y1); bit k of a
# mask is set when corner k is inside, and an edge is (corner a, corner b,
# the coordinate that varies along it). A mask maps to the pairs of edges
# its segments join; a saddle is keyed by (mask, centre inside).
_BOTTOM, _RIGHT, _TOP, _LEFT = (0, 1, 0), (1, 2, 1), (3, 2, 0), (0, 3, 1)
_CELL_SEGMENTS = {mask: pairs for masks, pairs in (
    ((0, 15), ()),
    ((1, 14), ((_LEFT, _BOTTOM),)),
    ((2, 13), ((_BOTTOM, _RIGHT),)),
    ((3, 12), ((_LEFT, _RIGHT),)),
    ((4, 11), ((_RIGHT, _TOP),)),
    ((6, 9), ((_BOTTOM, _TOP),)),
    ((7, 8), ((_TOP, _LEFT),)),
    (((5, True), (10, False)), ((_LEFT, _TOP), (_BOTTOM, _RIGHT))),
    (((5, False), (10, True)), ((_LEFT, _BOTTOM), (_RIGHT, _TOP))),
) for mask in masks}


def _march_cell(x0, x1, y0, y1, f00, f10, f11, f01, node):
    """Zero-level segments for one cell; corners are (x0,y0) (x1,y0)
    (x1,y1) (x0,y1). Sign convention: a corner is inside when f <= 0.
    node(x, y) is called at the centre only in a saddle cell."""
    corners, fs = ((x0, y0), (x1, y0), (x1, y1), (x0, y1)), (f00, f10, f11, f01)

    def cross(a, b, axis):
        # the zero of the linear interpolant from corner a to corner b
        pt = list(corners[a])
        pt[axis] += (corners[b][axis] - pt[axis]) * fs[a] / (fs[a] - fs[b])
        return tuple(pt)

    mask = (f00 <= 0) | (f10 <= 0) << 1 | (f11 <= 0) << 2 | (f01 <= 0) << 3
    if mask in (5, 10):
        mask = mask, node((x0 + x1) / 2.0, (y0 + y1) / 2.0) <= 0
    return [(cross(*e), cross(*f)) for e, f in _CELL_SEGMENTS[mask]]


def _key(p):
    return (round(p[0] * 1e9), round(p[1] * 1e9))


def _join_segments(segments):
    """Chain shared endpoints into polylines; deterministic ordering."""
    keys = [(_key(a), _key(b)) for a, b in segments]
    adj = {}
    for idx, (ka, kb) in enumerate(keys):
        adj.setdefault(ka, []).append(idx)
        adj.setdefault(kb, []).append(idx)
    used = [False] * len(segments)

    def walk(idx, point, key):
        chain = [point]
        while True:
            used[idx] = True
            ka, kb = keys[idx]
            a, b = segments[idx]
            point, key = (b, kb) if ka == key else (a, ka)
            chain.append(point)
            idx = next((j for j in adj[key] if not used[j]), None)
            if idx is None:
                return chain

    open_ends = sorted(
        (k, idxs[0]) for k, idxs in adj.items() if len(idxs) == 1
    )
    out = []
    for k, idx in open_ends:
        if used[idx]:
            continue
        a, b = segments[idx]
        out.append(walk(idx, a if keys[idx][0] == k else b, k))
    for idx in range(len(segments)):  # remaining closed loops
        if used[idx]:
            continue
        out.append(walk(idx, segments[idx][0], keys[idx][0]))
    out.sort(key=lambda ch: _key(ch[0]))
    return out


def _contour_step(grid) -> float:
    """The node spacing h = 1.2/grid of trace_contour, after checking that
    grid is an integer in [16, _CONTOUR_MAX_GRID]; ArgumentError otherwise."""
    if not isinstance(grid, int) or not 16 <= grid <= _CONTOUR_MAX_GRID:
        raise ArgumentError(f"grid must be an integer in [16, {_CONTOUR_MAX_GRID}], got {grid}")
    return _CONTOUR_BOX / grid


def _inside_rows(axis, m: int, s_at):
    """The inside nodes of trace_contour as one bitmask per row: for
    j = 0, 1, ..., bit i of the j-th mask is set when
    _div_diff(axis[i], axis[j], m, s_at) <= 0.

    axis is strictly increasing, with every gap above _DIAG_SWITCH. So off
    the diagonal the node value is fl(fl(s_i - s_j) / fl(x_i - x_j)), with
    s_i = s_at(axis[i]): the denominator is nonzero with the sign of i - j,
    and |denominator| <= 1.2, so the quotient is 0 (or -0.0) exactly when
    s_i == s_j and has the sign of s_i - s_j otherwise. The node is thus
    inside when i < j and s_i >= s_j, or i > j and s_i <= s_j. Each row
    takes two bisections of the sorted table, which index prefix masks over
    the sort order. The diagonal node is s_m'(axis[j]), from _div_diff.
    """
    s = [s_at(t) for t in axis]
    order = sorted(range(len(s)), key=s.__getitem__)
    ascending = [s[i] for i in order]
    prefix = [0]  # prefix[k]: the indices of the k smallest s values
    for i in order:
        prefix.append(prefix[-1] | 1 << i)
    full = prefix[-1]
    for j, y in enumerate(axis):
        below = (1 << j) - 1
        above = full ^ below ^ 1 << j
        at_least = full ^ prefix[bisect_left(ascending, s[j])]
        at_most = prefix[bisect_right(ascending, s[j])]
        yield (at_least & below) | (at_most & above) | (_div_diff(y, y, m, s_at) <= 0) << j


def trace_contour(m: int, grid: int):
    """Marching-squares trace of the zero level of (x, y) -> S_div(x, y, m)
    over [0, 1.2]^2. Returns the connected components as ContourPolyline
    objects, ordered by starting point.

    Nodes are signed a row at a time from the s_m table (_inside_rows); only
    the cells whose four corners do not all share a sign evaluate their
    corners and go to _march_cell, in row-major order (S_div at the centre
    of a saddle cell). The node signs assume every axis gap h = 1.2/grid is
    above _DIAG_SWITCH, so a grid above _CONTOUR_MAX_GRID raises
    ArgumentError, as does one below 16.
    """
    h = _contour_step(grid)
    axis = [i * h for i in range(grid + 1)]
    s_at = _s_table(axis, m)
    cells = (1 << grid) - 1
    segments = []
    rows = _inside_rows(axis, m, s_at)
    bottom = next(rows)
    for j, top in enumerate(rows):
        # cell i changes sign when nodes i, i+1 of rows j, j+1 are not all alike
        vertical = bottom ^ top
        marked = ((bottom ^ bottom >> 1) | (top ^ top >> 1) | vertical | vertical >> 1) & cells
        y0, y1 = axis[j], axis[j + 1]
        while marked:
            low = marked & -marked
            marked ^= low
            i = low.bit_length() - 1
            x0, x1 = axis[i], axis[i + 1]
            f00 = _div_diff(x0, y0, m, s_at)
            f10 = _div_diff(x1, y0, m, s_at)
            f01 = _div_diff(x0, y1, m, s_at)
            f11 = _div_diff(x1, y1, m, s_at)
            segments.extend(_march_cell(x0, x1, y0, y1, f00, f10, f11, f01, lambda x, y: S_div(x, y, m)))
        bottom = top
    return [ContourPolyline(tuple(chain)) for chain in _join_segments(segments)]


def contour_diagonal_crossings(components) -> list:
    """Diagonal parameters c where a traced polyline crosses x = y,
    linearly interpolated, ascending."""
    out = []
    for comp in components:
        pts = comp.points
        for (xa, ya), (xb, yb) in zip(pts, pts[1:]):
            ga = xa - ya
            gb = xb - yb
            if ga == gb:
                continue
            if (ga <= 0) != (gb <= 0) or ga == 0:
                t = ga / (ga - gb)
                if 0.0 <= t <= 1.0:
                    cx = xa + t * (xb - xa)
                    cy = ya + t * (yb - ya)
                    out.append((cx + cy) / 2.0)
    return sorted(out)


def contour_to_csv(components) -> str:
    """CSV form: header x,y then one point per line; blank line between
    components."""
    lines = ["x,y"]
    for pos, comp in enumerate(components):
        if pos:
            lines.append("")
        for x, y in comp.points:
            lines.append(f"{x:.12g},{y:.12g}")
    return "\n".join(lines) + "\n"
