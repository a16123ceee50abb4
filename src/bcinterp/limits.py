"""Degenerate-parameter route for the alpha = (m+1)/2 family: the Gamma
product identity, rescaled row-polynomial limits, the sine quotient s_m,
its divided difference S, the region tests built from them, and the
diagonal crossing point with a contour tracer for the S = 0 curve.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exactnum import SIGN_DEADBAND, DomainError, PoleError, is_exact, log_gamma

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


class ContourPolyline:
    """One connected component of a traced zero level, as an ordered
    point chain. Closed loops repeat the first point at the end."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points = tuple((float(x), float(y)) for x, y in points)

    def __eq__(self, other):
        if other.__class__ is not ContourPolyline:
            return NotImplemented
        return self.points == other.points


def gamma_ratio_identity(a, b, c, d) -> float:
    """Value of the infinite product prod_n (n+a)(n+b)/((n+c)(n+d)) under
    the balance condition a+b = c+d, namely Gamma(c)Gamma(d)/(Gamma(a)Gamma(b))."""
    if abs(float(a) + float(b) - float(c) - float(d)) > 1e-12:
        raise DomainError(f"parameters must balance: a+b = c+d, got {a}+{b} vs {c}+{d}")
    lc, sc = log_gamma(float(c))
    ld, sd = log_gamma(float(d))
    la, sa = log_gamma(float(a))
    lb, sb = log_gamma(float(b))
    return sc * sd * sa * sb * math.exp(lc + ld - la - lb)


def gamma_ratio_partial(a, b, c, d, terms: int) -> float:
    """Partial product prod_{n<terms} (n+a)(n+b)/((n+c)(n+d)); converges to
    gamma_ratio_identity at a harmonic-squared rate when balanced."""
    out = 1.0
    a, b, c, d = float(a), float(b), float(c), float(d)
    for n in range(terms):
        den = (n + c) * (n + d)
        if den == 0:
            raise PoleError(f"zero factor in denominator at n = {n}")
        out *= (n + a) * (n + b) / den
    return out


def r_partial(l: int, t, alpha):
    """Rescaled row value after l factors: prod_{n<l} ((n+alpha)^2 - t^2) /
    (n+alpha)^2. Exact for exact inputs."""
    if l < 0:
        raise DomainError(f"need l >= 0, got {l}")
    tsq = t * t
    out = None
    for n in range(l):
        node = n + alpha
        nsq = node * node
        if nsq == 0:
            raise PoleError(f"zero node at n = {n}: alpha = {alpha}")
        fac = (nsq - tsq) / nsq if not is_exact(nsq) else Fraction(nsq - tsq, 1) / nsq
        out = fac if out is None else out * fac
    if out is None:
        return Fraction(1) if is_exact(t) and is_exact(alpha) else 1.0
    return out


def r_limit(t, alpha) -> float:
    """Limit of r_partial: Gamma(alpha)^2 / (Gamma(alpha+t) Gamma(alpha-t)).
    Poles of the denominator Gammas are zeros of the limit and return 0.0;
    a pole of Gamma(alpha) itself raises."""
    la, sa = log_gamma(float(alpha))
    try:
        lp, sp = log_gamma(float(alpha) + float(t))
        lm, sm_ = log_gamma(float(alpha) - float(t))
    except PoleError:
        return 0.0
    return sp * sm_ * math.exp(2.0 * la - lp - lm)


def s_m(t, m: int) -> float:
    """sin(pi t) / ((t+1)...(t+m)); exactly 0.0 at integer t outside the
    pole set {-1, ..., -m}."""
    if not isinstance(m, int) or m < 0:
        raise DomainError(f"m must be a nonnegative integer, got {m}")
    tf = float(t)
    if tf == math.floor(tf):
        ti = int(tf)
        if -m <= ti <= -1:
            raise PoleError(f"t = {ti} is a zero of the denominator")
        return 0.0
    den = 1.0
    for i in range(1, m + 1):
        den *= tf + i
    return math.sin(math.pi * tf) / den


def s_m_prime(t, m: int) -> float:
    """Derivative of s_m by the quotient rule, with g(t) = (t+1)...(t+m):
    (pi cos(pi t) g - sin(pi t) g') / g^2."""
    if not isinstance(m, int) or m < 0:
        raise DomainError(f"m must be a nonnegative integer, got {m}")
    tf = float(t)
    g = 1.0
    dsum = 0.0
    for i in range(1, m + 1):
        if tf + i == 0:
            raise PoleError(f"t = {tf} is a zero of the denominator")
        g *= tf + i
        dsum += 1.0 / (tf + i)
    gprime = g * dsum
    return (math.pi * math.cos(math.pi * tf) * g - math.sin(math.pi * tf) * gprime) / (g * g)


def _div_diff(xf: float, yf: float, m: int, s) -> float:
    """(s(xf) - s(yf)) / (xf - yf) for s = s_m, or s_m'((xf + yf)/2) within
    _DIAG_SWITCH of the diagonal, where s is not called."""
    if abs(xf - yf) < _DIAG_SWITCH:
        return s_m_prime((xf + yf) / 2.0, m)
    return (s(xf) - s(yf)) / (xf - yf)


def S_div(x, y, m: int) -> float:
    """Symmetrized divided difference (s_m(x) - s_m(y))/(x - y), continued
    across the diagonal by the analytic derivative."""
    return _div_diff(float(x), float(y), m, lambda t: s_m(t, m))


@lru_cache(maxsize=None)
def _W_constants(m: int):
    """What in_W needs of m, built once per m: alpha = (m+1)/2, alpha + 1
    and float(alpha)."""
    alpha = Fraction(m + 1, 2)
    return alpha, alpha + 1, float(alpha)


def in_W(pt, m: int) -> bool:
    """Membership in W: the square [alpha, alpha+1]^2 cap {x1 >= x2} with
    the shifted divided difference nonnegative (deadband SIGN_DEADBAND)."""
    alpha, top, falpha = _W_constants(m)
    x1, x2 = pt
    if not (x2 >= alpha and x1 >= x2 and x1 <= top):
        return False
    return S_div(float(x1) - falpha, float(x2) - falpha, m) >= -SIGN_DEADBAND


def in_G0_rank2(pt, m: int) -> bool:
    """The rank-2 phi-set for the alpha = (m+1)/2 family: the triangle
    [0, alpha]^2 cap C, or the T2 square with the weight-1 signed value
    nonnegative at rho = (alpha+1, alpha)."""
    alpha = Fraction(m + 1, 2)
    x1, x2 = pt
    if 0 <= x2 <= x1 <= alpha:
        return True
    if not (alpha <= x2 <= x1 <= alpha + 1):
        return False
    q10 = (alpha + 1) ** 2 + alpha * alpha - x1 * x1 - x2 * x2
    if is_exact(x1) and is_exact(x2):
        return q10 >= 0
    scale = float((alpha + 1) ** 2 + alpha * alpha) + x1 * x1 + x2 * x2
    return q10 >= -SIGN_DEADBAND * (1.0 + scale)


def c_l_sequence(pt, m: int, l_max: int):
    """The normalized row-value sequence c_0, ..., c_{l_max} at a point of
    the open T2 square, plus its limit.

    c_l carries the exact sign of the signed row value q_{(l,0)}(pt): the
    normalizer prod_{k<=l} ((alpha+k)^2 - x2^2) is negative throughout the
    open square (exactly one negative factor, k = 0). The recurrence below
    keeps c_l order-one where the raw row values grow like (l!)^2.
    """
    if l_max < 0:
        raise DomainError(f"need l_max >= 0, got {l_max}")
    alpha = (m + 1) / 2.0
    x1 = float(pt[0])
    x2 = float(pt[1])
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
    if not isinstance(m, int) or m < 0:
        raise DomainError(f"m must be a nonnegative integer, got {m}")
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


def _march_cell(x0, x1, y0, y1, f00, f10, f11, f01, fmid):
    """Zero-level segments for one cell; corners are (x0,y0) (x1,y0)
    (x1,y1) (x0,y1). Sign convention: a corner is inside when f <= 0."""

    def bottom():
        return (x0 + (x1 - x0) * f00 / (f00 - f10), y0)

    def right():
        return (x1, y0 + (y1 - y0) * f10 / (f10 - f11))

    def top():
        return (x0 + (x1 - x0) * f01 / (f01 - f11), y1)

    def left():
        return (x0, y0 + (y1 - y0) * f00 / (f00 - f01))

    mask = (f00 <= 0) | (f10 <= 0) << 1 | (f11 <= 0) << 2 | (f01 <= 0) << 3
    if mask in (0, 15):
        return []
    if mask in (1, 14):
        return [(left(), bottom())]
    if mask in (2, 13):
        return [(bottom(), right())]
    if mask in (3, 12):
        return [(left(), right())]
    if mask in (4, 11):
        return [(right(), top())]
    if mask in (6, 9):
        return [(bottom(), top())]
    if mask in (7, 8):
        return [(top(), left())]
    # opposite corners: join through the center when it is inside
    if mask == 5:
        if fmid <= 0:
            return [(left(), top()), (bottom(), right())]
        return [(left(), bottom()), (right(), top())]
    if fmid <= 0:
        return [(left(), bottom()), (right(), top())]
    return [(left(), top()), (bottom(), right())]


def _key(p):
    return (round(p[0] * 1e9), round(p[1] * 1e9))


def _join_segments(segments):
    """Chain shared endpoints into polylines; deterministic ordering."""
    adj = {}
    for idx, (a, b) in enumerate(segments):
        adj.setdefault(_key(a), []).append(idx)
        adj.setdefault(_key(b), []).append(idx)
    used = [False] * len(segments)

    def walk(start_idx, start_point):
        chain = [start_point]
        idx = start_idx
        point = start_point
        while True:
            used[idx] = True
            a, b = segments[idx]
            point = b if _key(a) == _key(point) else a
            chain.append(point)
            nxt = [j for j in adj.get(_key(point), ()) if not used[j]]
            if not nxt:
                return chain
            idx = nxt[0]

    open_ends = sorted(
        (k, idxs[0]) for k, idxs in adj.items() if len(idxs) == 1
    )
    out = []
    for k, idx in open_ends:
        if used[idx]:
            continue
        a, b = segments[idx]
        start = a if _key(a) == k else b
        out.append(walk(idx, start))
    for idx in range(len(segments)):  # remaining closed loops
        if used[idx]:
            continue
        out.append(walk(idx, segments[idx][0]))
    out.sort(key=lambda ch: _key(ch[0]))
    return out


def trace_contour(m: int, grid: int):
    """Marching-squares trace of the zero level of (x, y) -> S_div(x, y, m)
    over [0, 1.2]^2. Returns the connected components as ContourPolyline
    objects, ordered by starting point."""
    if not isinstance(grid, int) or grid < 16:
        raise DomainError(f"grid must be an integer >= 16, got {grid}")
    h = _CONTOUR_BOX / grid
    # node (i, j) is S_div(i*h, j*h, m), from one s_m per grid line
    axis = [i * h for i in range(grid + 1)]
    s_at = {t: s_m(t, m) for t in axis}.__getitem__
    nodes = [[_div_diff(x, y, m, s_at) for x in axis] for y in axis]
    segments = []
    for j in range(grid):
        y0, y1 = j * h, (j + 1) * h
        for i in range(grid):
            x0, x1 = i * h, (i + 1) * h
            f00, f10 = nodes[j][i], nodes[j][i + 1]
            f01, f11 = nodes[j + 1][i], nodes[j + 1][i + 1]
            if (f00 <= 0) == (f10 <= 0) == (f11 <= 0) == (f01 <= 0):
                continue
            fmid = S_div((x0 + x1) / 2.0, (y0 + y1) / 2.0, m)
            segments.extend(_march_cell(x0, x1, y0, y1, f00, f10, f11, f01, fmid))
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
