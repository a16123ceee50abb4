"""Command-line surface: evaluation, expansion, eigenvalues, verification
suites, region rasterization, contour emission.

Exit codes: 0 ok, 1 verification failure, 2 usage, 3 domain error during
computation, 4 I/O. Flag validation failures (bad rationals, bad
partitions, inconsistent lengths, wrong group shape for a kind) are usage
errors; the same exception type raised later, by the mathematics, is a
domain error. All output is deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import json
import random
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
from .partitions import enumerate_Lambda, format_partition, parse_partition, weight
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

import math


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


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _fail_usage(exc) -> int:
    sys.stderr.write(f"error: {exc}\n")
    return 2


# ---------------------------------------------------------------- eval / expand


def _prep_eval(args):
    n = args.n
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    p = Params(n, _parse_rational(args.tau), _parse_rational(args.alpha))
    lam = parse_partition(args.lam)
    x_text = getattr(args, "x", None)
    pt = _parse_vector(x_text, n) if x_text is not None else None
    return p, lam, pt


def cmd_eval(args) -> int:
    try:
        p, lam, pt = _prep_eval(args)
        if pt is None:
            raise DomainError("--x is required for eval")
    except DomainError as exc:
        return _fail_usage(exc)
    try:
        value = okounkov_eval(lam, pt, p)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    _emit({"value": str(Fraction(value))})
    return 0


def cmd_expand(args) -> int:
    try:
        p, lam, _ = _prep_eval(args)
    except DomainError as exc:
        return _fail_usage(exc)
    try:
        poly = okounkov_expand(lam, p)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    _emit(poly.to_json())
    return 0


# ---------------------------------------------------------------- eigenvalue


def cmd_eigenvalue(args) -> int:
    try:
        g = _parse_group(args.group, args.p)
        mu = parse_partition(args.mu)
        prm = group_params(g)
        if len(mu) > g.n:
            raise DomainError(f"partition {format_partition(mu)!r} has more than n = {g.n} parts")
        pt = _parse_vector(args.x, g.n)
    except DomainError as exc:
        return _fail_usage(exc)
    try:
        value = shimura_eigenvalue(mu, pt, g)
        kmu = k_constant(mu, prm.tau)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    _emit(
        {
            "eigenvalue": str(Fraction(value)),
            "k_mu": str(Fraction(kmu)),
            "tau": str(prm.tau),
            "alpha": str(prm.alpha),
        }
    )
    return 0


# ---------------------------------------------------------------- verify


def _rand_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4)))


def _rand_point(rng, n):
    return tuple(_rand_fraction(rng) for _ in range(n))


def _suite_characterization(budget, seed):
    checks, failures = 0, []
    for n in (1, 2):
        for tau, alpha in ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))):
            p = Params(n, tau, alpha)
            for lam in enumerate_Lambda(n, budget):
                report = verify_characterization(lam, p, extra_weight=2, seed=seed)
                checks += report["zero_checked"] + report["extra_checked"] + 1
                if not report["ok"]:
                    failures.append(
                        f"characterization failed for lam={format_partition(lam)} n={n} tau={tau} alpha={alpha}"
                    )
    return checks, failures


def _suite_tau1_det(budget, seed):
    rng = random.Random(seed)
    checks, failures = 0, []
    for n in (2, 3):
        for alpha in (Fraction(1, 2), Fraction(1)):
            p = Params(n, Fraction(1), alpha)
            for lam in enumerate_Lambda(n, budget):
                done = 0
                while done < 10:
                    pt = _rand_point(rng, n)
                    try:
                        det = det_formula_tau1(lam, pt, alpha)
                    except DomainError:
                        continue
                    done += 1
                    checks += 1
                    if det != okounkov_eval(lam, pt, p):
                        failures.append(
                            f"det mismatch lam={format_partition(lam)} n={n} alpha={alpha} pt={pt}"
                        )
    return checks, failures


def _suite_columns(budget, seed):
    rng = random.Random(seed)
    checks, failures = 0, []
    for n in (2, 3):
        for tau, alpha in ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 2))):
            p = Params(n, tau, alpha)
            for j in range(1, n + 1):
                for _ in range(budget):
                    pt = _rand_point(rng, n)
                    want = okounkov_eval((1,) * j, pt, p)
                    checks += 2
                    if column_poly(j, pt, p) != want:
                        failures.append(f"column_poly mismatch j={j} n={n} tau={tau} pt={pt}")
                    if column_poly_gf(j, pt, p) != want:
                        failures.append(f"column_poly_gf mismatch j={j} n={n} tau={tau} pt={pt}")
    return checks, failures


def _suite_rectangles(budget, seed):
    rng = random.Random(seed)
    checks, failures = 0, []
    for n in (1, 2, 3):
        for tau, alpha in ((Fraction(1), Fraction(1, 2)), (Fraction(2), Fraction(1))):
            p = Params(n, tau, alpha)
            for l in range(0, budget + 1):
                for _ in range(10):
                    pt = _rand_point(rng, n)
                    checks += 1
                    if rectangle_poly(l, pt, p) != okounkov_eval((l,) * n, pt, p):
                        failures.append(f"rectangle mismatch l={l} n={n} tau={tau} pt={pt}")
    return checks, failures


def _suite_kmu(budget, seed):
    checks, failures = 0, []
    for n in (1, 2, 3):
        for d in (1, 2, 4):
            tau = Fraction(d, 2)
            for mu in enumerate_Lambda(n, budget):
                checks += 1
                if k_constant(mu, tau) != k_constant_alt(mu, d, n):
                    failures.append(f"k mismatch mu={format_partition(mu)} n={n} d={d}")
    return checks, failures


def _suite_rank2(budget, seed):
    rng = random.Random(seed)
    checks, failures = 0, []
    for d in (1, 2, 3):
        rho2 = Fraction(3, 4)
        rho = (rho2 + Fraction(d, 2), rho2)
        p = Params(2, Fraction(d, 2), rho2)
        for m1 in range(budget + 1):
            for m2 in range(m1 + 1):
                done = 0
                while done < 5:
                    pt = _rand_point(rng, 2)
                    try:
                        got = q_rank2(m1, m2, pt, d, rho)
                    except PoleError:
                        continue
                    done += 1
                    sign = -1 if (m1 + m2) % 2 else 1
                    want = sign * okounkov_eval((m1, m2), pt, p)
                    checks += 1
                    if got != want:
                        failures.append(f"q_rank2 mismatch ({m1},{m2}) d={d} pt={pt}")
                    if d == 2:
                        checks += 1
                        if q_rank2_partial_d2(m1, m2, pt, rho) != want:
                            failures.append(f"partial-sum form mismatch ({m1},{m2}) pt={pt}")
    for b in range(4):
        rho2 = Fraction(b + 1, 2)
        mid = float(rho2) + 0.5
        got = R_series((mid, mid), 2, (float(rho2) + 1.0, float(rho2)))
        want = R_midpoint_telescoped(b)
        checks += 1
        if abs(got - want) > 1e-8:
            failures.append(f"R midpoint mismatch b={b}: {got} vs {want}")
    return checks, failures


def _suite_limits(budget, seed):
    rng = random.Random(seed)
    checks, failures = 0, []
    for m in (0, 1, 2, 3):
        alpha = (m + 1) / 2.0
        ga = math.gamma(alpha)
        for _ in range(budget):
            t = rng.uniform(-0.9, 0.9)
            checks += 1
            if abs(r_limit(t + alpha, alpha) + ga * ga / math.pi * s_m(t, m)) > 1e-10:
                failures.append(f"limit identity violated at t={t} m={m}")
        checks += 1
        if abs(s_m_prime(1.0, m) + math.pi / math.factorial(m + 1)) > 1e-12:
            failures.append(f"derivative value at 1 wrong for m={m}")
    for l in range(1, 11):
        checks += 1
        if r_partial(l, Fraction(1), Fraction(1, 2)) != Fraction(-(2 * l + 1), 2 * l - 1):
            failures.append(f"r_partial closed form failed at l={l}")
    checks += 1
    if abs(crossing_point(0) - 0.5) > 1e-12:
        failures.append("crossing point for m=0 is not 1/2")
    for _ in range(5):
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(0.2, 2.0)
        c = rng.uniform(0.2, 2.0)
        d = a + b - c
        if d <= 0.05:
            continue
        checks += 1
        got = gamma_ratio_partial(a, b, c, d, 100000)
        want = gamma_ratio_identity(a, b, c, d)
        if abs(got - want) > 1e-4:
            failures.append(f"gamma product mismatch at ({a},{b},{c},{d})")
    return checks, failures


_SUITES = {
    "characterization": (_suite_characterization, 4, 6),
    "tau1-det": (_suite_tau1_det, 4, 5),
    "columns": (_suite_columns, 25, 200),
    "rectangles": (_suite_rectangles, 3, 5),
    "kmu": (_suite_kmu, 5, 6),
    "rank2": (_suite_rank2, 3, 4),
    "limits": (_suite_limits, 50, 500),
}


def cmd_verify(args) -> int:
    runner, default, cap = _SUITES[args.suite]
    budget = args.budget if args.budget is not None else default
    if budget < 0 or budget > cap:
        return _fail_usage(DomainError(f"budget for {args.suite} must be in [0, {cap}], got {budget}"))
    try:
        checks, failures = runner(budget, args.seed)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    _emit({"suite": args.suite, "checks": checks, "failures": failures})
    return 1 if failures else 0


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


def cmd_region(args) -> int:
    try:
        if args.grid < 2:
            raise DomainError(f"need grid >= 2, got {args.grid}")
        if args.max_weight < 1:
            raise DomainError(f"need max-weight >= 1, got {args.max_weight}")
        top, test = _region_window(args)
    except DomainError as exc:
        return _fail_usage(exc)
    axis = [top * i / (args.grid - 1) for i in range(args.grid)]
    labels = [f"{float(v):.12g}" for v in axis]
    lines = ["x,y,member,witness"]
    try:
        for i, x1 in enumerate(axis):
            for j in range(i + 1):
                m, w = _cell(test((x1, axis[j])))
                lines.append(f"{labels[i]},{labels[j]},{m},{w}")
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    return 0


# ---------------------------------------------------------------- contour / crossing


def cmd_contour(args) -> int:
    try:
        if args.m < 0:
            raise DomainError(f"need m >= 0, got {args.m}")
        if args.grid < 16:
            raise DomainError(f"need grid >= 16, got {args.grid}")
    except DomainError as exc:
        return _fail_usage(exc)
    try:
        text = contour_to_csv(trace_contour(args.m, args.grid))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    return 0


def cmd_crossing(args) -> int:
    try:
        if args.m < 0:
            raise DomainError(f"need m >= 0, got {args.m}")
    except DomainError as exc:
        return _fail_usage(exc)
    try:
        c = crossing_point(args.m)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    _emit({"c_m": c, "residual": crossing_equation(c, args.m)})
    return 0


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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
