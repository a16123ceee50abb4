"""Degenerate-parameter route for the alpha = (m+1)/2 family: the Gamma
product identity, rescaled row-polynomial limits, the sine quotient s_m,
its divided difference S, the region tests built from them, and the
diagonal crossing point with a contour tracer for the S = 0 curve.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache

from .exactnum import (SIGN_DEADBAND, ArgumentError, DomainError, Frozen, PoleError, _add_flag_runs, _ascending_axis,
                       _check_int, _exact_point, _gamma_quotient, is_exact)

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


def _div_diff(xf: float, yf: float, m: int, s) -> float:
    """(s(xf) - s(yf)) / (xf - yf) for s = s_m, or s_m'((xf + yf)/2) within
    _DIAG_SWITCH of the diagonal, where s is not called."""
    if abs(xf - yf) < _DIAG_SWITCH:
        return s_m_prime((xf + yf) / 2.0, m)
    return (s(xf) - s(yf)) / (xf - yf)


def _s_table(ts, m: int):
    """t -> s_m(t, m) over the floats t of ts, one s_m call per distinct t:
    a lookup for the s of _div_diff."""
    return {t: s_m(t, m) for t in ts}.__getitem__


def S_div(x, y, m: int) -> float:
    """Symmetrized divided difference (s_m(x) - s_m(y))/(x - y), continued
    across the diagonal by the analytic derivative."""
    return _div_diff(float(x), float(y), m, lambda t: s_m(t, m))


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
    the shifted divided difference nonnegative (deadband SIGN_DEADBAND), the
    square tested at the exact point; ArgumentError at a nan or inf coordinate."""
    alpha, top, falpha = _W_constants(m)
    x1, x2 = _exact_point(pt, 2)
    if not (x2 >= alpha and x1 >= x2 and x1 <= top):
        return False
    return S_div(float(x1) - falpha, float(x2) - falpha, m) >= -SIGN_DEADBAND


def in_W_raster(axis, m: int):
    """in_W on the raster of an ascending exact axis: yields, for each i,
    row i in run form (exactnum._cells), the runs (stop, bool) of
    [in_W((axis[i], axis[j]), m) for j <= i].

    The square is the index range of the axis values in [alpha, alpha + 1],
    found by bisection of the axis numerators A over their denominator Q
    against ceil(alpha Q) and floor((alpha + 1) Q). A row inside it is False
    below alpha and signs S_div from there on, reading s_m from one table of
    the shifted floats A / Q - float(alpha), where A / Q is float(x), rounded
    once: the float operations of in_W, so the same flags. Those flags are
    one bytes object, cut into runs by bytes.find. Every other row is empty."""
    _, _, falpha = _W_constants(m)
    q, nums = _ascending_axis(axis)
    lo, hi = bisect_left(nums, -(-(m + 1) * q // 2)), bisect_right(nums, (m + 3) * q // 2)
    ts = [a / q - falpha for a in nums[lo:hi]]
    s_at = _s_table(ts, m)
    for i in range(len(nums)):
        if lo <= i < hi:
            xf = ts[i - lo]
            runs = [(lo, False)] if lo else []
            _add_flag_runs(runs, lo, bytes([_div_diff(xf, yf, m, s_at) >= -SIGN_DEADBAND for yf in ts[: i - lo + 1]]))
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
