"""Command-line surface: evaluation, expansion, eigenvalues, verification
suites, region rasterization, contour emission.

Exit codes: 0 ok, 1 verification failure, 2 usage, 3 domain error during
computation, 4 I/O error writing --out or stdout. Flag validation failures
(bad rationals, bad partitions, inconsistent lengths, wrong group shape for
a kind) are usage errors; the same exception type raised later, by the
mathematics, is a domain error. All output is deterministic for fixed flags.

Each cmd_* handler only checks its flags and returns a zero-argument
compute that gives (text, exit_code); main maps errors to exit codes and
writes the text, once for every subcommand.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .exactnum import DomainError, PoleError
from .limits import (
    contour_to_csv,
    crossing_equation,
    crossing_point,
    gamma_ratio_identity,
    gamma_ratio_partial,
    in_W,
    r_limit,
    r_partial,
    s_m,
    s_m_prime,
    trace_contour,
)
from .okounkov import (
    Params,
    column_poly,
    column_poly_gf,
    det_formula_tau1,
    k_constant,
    k_constant_alt,
    okounkov_eval,
    okounkov_expand,
    rectangle_poly,
    verify_characterization,
)
from .partitions import enumerate_Lambda, format_partition, parse_partition
from .rank2 import R_midpoint_telescoped, R_series, in_B, q_rank2, q_rank2_partial_d2
from .shimura import (
    GroupData,
    Verdict,
    group_params,
    in_A_certified,
    in_G,
    in_square,
    in_U0_knapp_speh,
    shimura_eigenvalue,
)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r}") from exc


def _parse_vector(text: str, n: int):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise DomainError(f"expected {n} coordinates, got {len(parts)}: {text!r}")
    return tuple(_parse_rational(p) for p in parts)


def _parse_group(text: str, p: int) -> GroupData:
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError(f'group must be "n,d,b": {text!r}')
    try:
        n, d, b = (int(v.strip()) for v in parts)
    except ValueError as exc:
        raise DomainError(f'group must be three integers "n,d,b": {text!r}') from exc
    return GroupData(n, d, b, p)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


# ---------------------------------------------------------------- eval / expand


def _prep_eval(args):
    n = args.n
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    p = Params(n, _parse_rational(args.tau), _parse_rational(args.alpha))
    return p, parse_partition(args.lam)


def cmd_eval(args):
    p, lam = _prep_eval(args)
    pt = _parse_vector(args.x, p.n)
    return lambda: (_json({"value": str(Fraction(okounkov_eval(lam, pt, p)))}), 0)


def cmd_expand(args):
    p, lam = _prep_eval(args)
    return lambda: (_json(okounkov_expand(lam, p).to_json()), 0)


# ---------------------------------------------------------------- eigenvalue


def cmd_eigenvalue(args):
    g = _parse_group(args.group, args.p)
    mu = parse_partition(args.mu)
    prm = group_params(g)
    if len(mu) > g.n:
        raise DomainError(f"partition {format_partition(mu)!r} has more than n = {g.n} parts")
    pt = _parse_vector(args.x, g.n)

    def compute():
        value = shimura_eigenvalue(mu, pt, g)
        kmu = k_constant(mu, prm.tau)
        obj = {
            "eigenvalue": str(Fraction(value)),
            "k_mu": str(Fraction(kmu)),
            "tau": str(prm.tau),
            "alpha": str(prm.alpha),
        }
        return _json(obj), 0

    return compute


# ---------------------------------------------------------------- verify
#
# A suite is a generator function of (budget, rng, seed): rng is the one
# random.Random(seed) of the run, and seed goes to verify_characterization,
# which seeds its own. For each check a suite yields True or the check's
# failure message; `ok or f"..."` formats the message only when the check
# fails. cmd_verify counts what a suite yields.


def _draws(rng, n, count, f):
    """Yield (pt, f(pt)) at count random rational points of length n,
    drawing again where f raises DomainError."""
    while count:
        pt = tuple(Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4))) for _ in range(n))
        try:
            value = f(pt)
        except DomainError:
            continue
        count -= 1
        yield pt, value


def _suite_characterization(budget, rng, seed):
    for n in (1, 2):
        for tau, alpha in ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))):
            p = Params(n, tau, alpha)
            for lam in enumerate_Lambda(n, budget):
                report = verify_characterization(lam, p, extra_weight=2, seed=seed)
                yield from [True] * (report["zero_checked"] + report["extra_checked"])
                yield (report["ok"] or f"characterization failed for lam={format_partition(lam)}"
                       f" n={n} tau={tau} alpha={alpha}")


def _suite_tau1_det(budget, rng, seed):
    for n in (2, 3):
        for alpha in (Fraction(1, 2), Fraction(1)):
            p = Params(n, Fraction(1), alpha)
            for lam in enumerate_Lambda(n, budget):
                for pt, det in _draws(rng, n, 10, lambda pt: det_formula_tau1(lam, pt, alpha)):
                    yield (det == okounkov_eval(lam, pt, p)
                           or f"det mismatch lam={format_partition(lam)} n={n} alpha={alpha} pt={pt}")


def _suite_columns(budget, rng, seed):
    for n in (2, 3):
        for tau, alpha in ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 2))):
            p = Params(n, tau, alpha)
            for j in range(1, n + 1):
                for pt, want in _draws(rng, n, budget, lambda pt: okounkov_eval((1,) * j, pt, p)):
                    yield column_poly(j, pt, p) == want or f"column_poly mismatch j={j} n={n} tau={tau} pt={pt}"
                    yield (column_poly_gf(j, pt, p) == want
                           or f"column_poly_gf mismatch j={j} n={n} tau={tau} pt={pt}")


def _suite_rectangles(budget, rng, seed):
    for n in (1, 2, 3):
        for tau, alpha in ((Fraction(1), Fraction(1, 2)), (Fraction(2), Fraction(1))):
            p = Params(n, tau, alpha)
            for l in range(0, budget + 1):
                for pt, want in _draws(rng, n, 10, lambda pt: okounkov_eval((l,) * n, pt, p)):
                    yield (rectangle_poly(l, pt, p) == want
                           or f"rectangle mismatch l={l} n={n} tau={tau} pt={pt}")


def _suite_kmu(budget, rng, seed):
    for n in (1, 2, 3):
        for d in (1, 2, 4):
            for mu in enumerate_Lambda(n, budget):
                yield (k_constant(mu, Fraction(d, 2)) == k_constant_alt(mu, d, n)
                       or f"k mismatch mu={format_partition(mu)} n={n} d={d}")


def _suite_rank2(budget, rng, seed):
    for d in (1, 2, 3):
        rho2 = Fraction(3, 4)
        rho = (rho2 + Fraction(d, 2), rho2)
        p = Params(2, Fraction(d, 2), rho2)
        for m1 in range(budget + 1):
            for m2 in range(m1 + 1):
                for pt, got in _draws(rng, 2, 5, lambda pt: q_rank2(m1, m2, pt, d, rho)):
                    want = (-1) ** (m1 + m2) * okounkov_eval((m1, m2), pt, p)
                    yield got == want or f"q_rank2 mismatch ({m1},{m2}) d={d} pt={pt}"
                    if d == 2:
                        yield (q_rank2_partial_d2(m1, m2, pt, rho) == want
                               or f"partial-sum form mismatch ({m1},{m2}) pt={pt}")
    for b in range(4):
        r2 = (b + 1) / 2
        got = R_series((r2 + 0.5, r2 + 0.5), 2, (r2 + 1.0, r2))
        want = R_midpoint_telescoped(b)
        yield abs(got - want) <= 1e-8 or f"R midpoint mismatch b={b}: {got} vs {want}"


def _suite_limits(budget, rng, seed):
    for m in (0, 1, 2, 3):
        alpha = (m + 1) / 2.0
        ga = math.gamma(alpha)
        for _ in range(budget):
            t = rng.uniform(-0.9, 0.9)
            yield (abs(r_limit(t + alpha, alpha) + ga * ga / math.pi * s_m(t, m)) <= 1e-10
                   or f"limit identity violated at t={t} m={m}")
        yield (abs(s_m_prime(1.0, m) + math.pi / math.factorial(m + 1)) <= 1e-12
               or f"derivative value at 1 wrong for m={m}")
    for l in range(1, 11):
        yield (r_partial(l, Fraction(1), Fraction(1, 2)) == Fraction(-(2 * l + 1), 2 * l - 1)
               or f"r_partial closed form failed at l={l}")
    yield abs(crossing_point(0) - 0.5) <= 1e-12 or "crossing point for m=0 is not 1/2"
    for _ in range(5):
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(0.2, 2.0)
        c = rng.uniform(0.2, 2.0)
        d = a + b - c
        if d <= 0.05:
            continue
        got = gamma_ratio_partial(a, b, c, d, 100000)
        want = gamma_ratio_identity(a, b, c, d)
        yield abs(got - want) <= 1e-4 or f"gamma product mismatch at ({a},{b},{c},{d})"


_SUITES = {
    "characterization": (_suite_characterization, 4, 6),
    "tau1-det": (_suite_tau1_det, 4, 5),
    "columns": (_suite_columns, 25, 200),
    "rectangles": (_suite_rectangles, 3, 5),
    "kmu": (_suite_kmu, 5, 6),
    "rank2": (_suite_rank2, 3, 4),
    "limits": (_suite_limits, 50, 500),
}


def cmd_verify(args):
    runner, default, cap = _SUITES[args.suite]
    budget = args.budget if args.budget is not None else default
    if budget < 0 or budget > cap:
        raise DomainError(f"budget for {args.suite} must be in [0, {cap}], got {budget}")

    def compute():
        import random  # here, not at module level: only verify draws random points
        checks = list(runner(budget, random.Random(args.seed), args.seed))
        failures = [c for c in checks if c is not True]
        return _json({"suite": args.suite, "checks": len(checks), "failures": failures}), (1 if failures else 0)

    return compute


# ---------------------------------------------------------------- region


def _region_window(args):
    """Window half-width rho1 + 1 and the membership test for a kind; the
    test returns a bool or a Verdict.

    The raster is two-dimensional, so every kind that takes a group needs a
    rank-2 one.
    """
    kind = args.kind
    if kind == "W":
        if args.m is None:
            raise DomainError("--m is required for kind W")
        if args.m < 0:
            raise DomainError(f"need m >= 0, got {args.m}")
        m = args.m
        return Fraction(m + 1, 2) + 2, lambda pt: in_W(pt, m)
    if args.group is None:
        raise DomainError(f"--group is required for kind {kind}")
    g = _parse_group(args.group, args.p)
    prm = group_params(g)
    if g.n != 2:
        raise DomainError(f"kind {kind} needs a rank-2 group, got n = {g.n}")
    if kind == "U0" and g.p != 0:
        raise DomainError("kind U0 is defined for p = 0")
    if kind == "rank2-B" and g.d < 1:
        raise DomainError(f"kind rank2-B needs d >= 1, got d = {g.d}")
    rho = prm.rho
    tests = {
        "G": lambda pt: in_G(pt, prm),
        "A": lambda pt: in_A_certified(pt, prm, args.max_weight),
        "square": lambda pt: in_square(pt, prm),
        "U0": lambda pt: in_U0_knapp_speh(pt, g.b),
        "rank2-B": lambda pt: in_B(pt, g.d, rho),
    }
    return rho[0] + 1, tests[kind]


def _cell(v):
    """The member and witness columns for a bool or a Verdict."""
    if isinstance(v, Verdict):
        return ("1" if v.member else "0"), (v.witness_str() or "")
    return ("1" if v else "0"), ""


def cmd_region(args):
    if args.grid < 2:
        raise DomainError(f"need grid >= 2, got {args.grid}")
    if args.max_weight < 1:
        raise DomainError(f"need max-weight >= 1, got {args.max_weight}")
    top, test = _region_window(args)

    def compute():
        axis = [top * i / (args.grid - 1) for i in range(args.grid)]
        labels = [f"{float(v):.12g}" for v in axis]
        lines = ["x,y,member,witness"]
        for i, x1 in enumerate(axis):
            for j in range(i + 1):
                m, w = _cell(test((x1, axis[j])))
                lines.append(f"{labels[i]},{labels[j]},{m},{w}")
        return "\n".join(lines) + "\n", 0

    return compute


# ---------------------------------------------------------------- contour / crossing


def cmd_contour(args):
    if args.m < 0:
        raise DomainError(f"need m >= 0, got {args.m}")
    if args.grid < 16:
        raise DomainError(f"need grid >= 16, got {args.grid}")
    return lambda: (contour_to_csv(trace_contour(args.m, args.grid)), 0)


def cmd_crossing(args):
    if args.m < 0:
        raise DomainError(f"need m >= 0, got {args.m}")

    def compute():
        c = crossing_point(args.m)
        return _json({"c_m": c, "residual": crossing_equation(c, args.m)}), 0

    return compute


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcinterp",
        description="Exact interpolation-polynomial evaluation, eigenvalues, and positivity regions.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_eval_flags(p, with_x):
        p.add_argument("--n", type=int, required=True, help="number of variables")
        p.add_argument("--tau", required=True, help='rational "p/q"')
        p.add_argument("--alpha", required=True, help='rational "p/q"')
        p.add_argument("--lambda", dest="lam", required=True, help='partition "a,b,..." ("" for empty)')
        if with_x:
            p.add_argument("--x", required=True, help='point "p/q,..." of length n')

    p = sub.add_parser("eval", help="evaluate one polynomial at one exact point")
    add_eval_flags(p, with_x=True)
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("expand", help="expand into even monomials (weight capped)")
    add_eval_flags(p, with_x=False)
    p.set_defaults(run=cmd_expand)

    p = sub.add_parser("eigenvalue", help="Harish-Chandra eigenvalue of one operator")
    p.add_argument("--group", required=True, help='"n,d,b"')
    p.add_argument("--p", type=int, default=0, help="parameter deformation (default 0)")
    p.add_argument("--mu", required=True, help='partition "a,b,..."')
    p.add_argument("--x", required=True, help='point "p/q,..." of length n')
    p.set_defaults(run=cmd_eigenvalue)

    p = sub.add_parser("verify", help="run one cross-formula verification suite")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p.add_argument("--budget", type=int, default=None, help="suite size knob (capped per suite)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("region", help="rasterize a positivity set to CSV")
    p.add_argument("--kind", required=True, choices=("G", "A", "rank2-B", "U0", "W", "square"))
    p.add_argument("--group", default=None, help='"n,d,b" (all kinds except W)')
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--m", type=int, default=None, help="family index (kind W only)")
    p.add_argument("--grid", type=int, default=80, help="points per axis (default 80)")
    p.add_argument("--max-weight", type=int, default=6, help="certification cap for kind A")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(run=cmd_region)

    p = sub.add_parser("contour", help="trace the divided-difference zero curve")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid", type=int, default=96)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(run=cmd_contour)

    p = sub.add_parser("crossing", help="diagonal crossing point of the zero curve")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(run=cmd_crossing)

    return parser


def _fail(exc, code: int) -> int:
    sys.stderr.write(f"error: {exc}\n")
    return code


def main(argv=None) -> int:
    """Parse argv, run the subcommand's flag checks (DomainError: exit 2),
    its compute (DomainError: exit 3), then write the text to --out or
    stdout (OSError: exit 4); otherwise return the compute's exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        compute = args.run(args)
    except DomainError as exc:
        return _fail(exc, 2)
    try:
        text, code = compute()
    except DomainError as exc:
        return _fail(exc, 3)
    out = getattr(args, "out", None)
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        return _fail(exc, 4)
    return code


if __name__ == "__main__":
    sys.exit(main())
