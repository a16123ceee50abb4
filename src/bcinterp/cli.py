"""Command-line surface: evaluation, expansion, eigenvalues, verification
suites, region rasterization, contour emission.

Exit codes: 0 ok, 1 verification failure, 2 usage, 3 domain error during
computation, 4 I/O error writing --out or stdout. The type of the error
decides between 2 and 3: an ArgumentError is a usage error, wherever it is
raised (the flag parser, a flag rule of this module, or an argument rule of
the library: a bad rational or partition, a point of the wrong length, a
wrong group shape for a kind, a region window beyond float range); any
other DomainError is the mathematics failing on valid arguments. All output
is deterministic for fixed flags.

Each cmd_* handler gives (chunks, exit_code), the chunks an iterable of
the output's texts in order; main maps errors to exit codes and writes the
chunks one at a time, by one loop for every subcommand.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from types import SimpleNamespace

from .exactnum import ArgumentError, DomainError, _check_int, _exact_str
from .limits import (
    _gamma_enclosure,
    contour_to_csv,
    crossing_equation,
    crossing_point,
    gamma_ratio_identity,
    in_W_raster,
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
from .rank2 import R_midpoint_telescoped, _R_steps, in_B_raster, q_rank2, q_rank2_partial_d2
from .shimura import (GroupData, Verdict, group_params, in_A_raster, in_G_raster, in_square_raster, in_U0_raster,
                      shimura_eigenvalue)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ArgumentError(f"not a rational: {text!r}") from exc


def _parse_vector(text: str):
    return tuple(map(_parse_rational, text.split(",")))


def _parse_group(text: str, p: int) -> GroupData:
    parts = text.split(",")
    if len(parts) != 3:
        raise ArgumentError(f'group must be "n,d,b": {text!r}')
    try:
        n, d, b = (int(v.strip()) for v in parts)
    except ValueError as exc:
        raise ArgumentError(f'group must be three integers "n,d,b": {text!r}') from exc
    return GroupData(n, d, b, p)


def _json(obj) -> tuple:
    """The output of a JSON command: one chunk, sorted-key JSON."""
    import json  # here, not at module level: region and contour print CSV
    return (json.dumps(obj, sort_keys=True) + "\n",)


# ---------------------------------------------------------------- eval / expand


def _prep_eval(args):
    p = Params(args.n, _parse_rational(args.tau), _parse_rational(args.alpha))
    return parse_partition(args.lam), p


def cmd_eval(args):
    lam, p = _prep_eval(args)
    return _json({"value": _exact_str(okounkov_eval(lam, _parse_vector(args.x), p))}), 0


def cmd_expand(args):
    return _json(okounkov_expand(*_prep_eval(args)).to_json()), 0


# ---------------------------------------------------------------- eigenvalue


def cmd_eigenvalue(args):
    g = _parse_group(args.group, args.p)
    mu = parse_partition(args.mu)
    prm = group_params(g)
    obj = {
        "eigenvalue": shimura_eigenvalue(mu, _parse_vector(args.x), g),
        "k_mu": k_constant(mu, prm.tau),
        "tau": prm.tau,
        "alpha": prm.alpha,
    }
    return _json({k: _exact_str(v) for k, v in obj.items()}), 0


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
                report = verify_characterization(lam, p, seed=seed)
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
        # the series at the midpoint (r2 + 1/2, r2 + 1/2) of rho = (r2 + 1, r2), d = 2, has
        # u = (2 r2 + 1/2, -1/2, 1), l = (2 r2 + 3/2, 1/2) and s = 2, all exact in binary
        want = R_midpoint_telescoped(b)
        # want: exact, rounded once; it must lie in every proven enclosure up to K = 1024, widened by that rounding
        for k0, value, _, radius in _R_steps((2 * r2 + 0.5, -0.5, 1.0), (2 * r2 + 1.5, 0.5), 2.0):
            if abs(want - value) > radius + 2.0**-52 * abs(want) or k0 >= 1024:
                break
        yield (abs(want - value) <= radius + 2.0**-52 * abs(want)
               or f"R midpoint outside its enclosure b={b} at K={k0}: {want} vs {value} +- {radius}")


def _suite_limits(budget, rng, seed):
    for m in (0, 1, 2, 3):
        alpha = (m + 1) / 2.0
        ga = math.gamma(alpha)
        for _ in range(budget):
            t = rng.uniform(-0.9, 0.9)
            # each side is at most pi (Gamma(alpha)^2 <= pi, |sin pi t| <= pi g(t)), to some 100u
            yield (abs(r_limit(t + alpha, alpha) + ga * ga / math.pi * s_m(t, m)) <= 1e-10
                   or f"limit identity violated at t={t} m={m}")
        # cos(pi 1.0) rounds to -1, sin(pi 1.0) to 1.2e-16 times a sum < 2.1: some 1e-16 over (m+1)!
        yield (abs(s_m_prime(1.0, m) + math.pi / math.factorial(m + 1)) <= 1e-12
               or f"derivative value at 1 wrong for m={m}")
    for l in range(1, 11):
        yield (r_partial(l, Fraction(1), Fraction(1, 2)) == Fraction(-(2 * l + 1), 2 * l - 1)
               or f"r_partial closed form failed at l={l}")
    # bisection to width 1e-13 leaves 5e-14, and the float pi cot(pi c) changes sign within 1e-16 of 1/2
    yield abs(crossing_point(0) - 0.5) <= 1e-12 or "crossing point for m=0 is not 1/2"
    for _ in range(5):
        a, b, c = (rng.uniform(0.2, 2.0) for _ in range(3))
        d = a + b - c
        if d <= 0.05:
            continue
        lo, hi = _gamma_enclosure(a, b, c, d)
        yield lo <= gamma_ratio_identity(a, b, c, d) <= hi or f"gamma product mismatch at ({a},{b},{c},{d})"


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
        raise ArgumentError(f"budget for {args.suite} must be in [0, {cap}], got {budget}")
    import random  # here, not at module level: only verify draws random points
    checks = list(runner(budget, random.Random(args.seed), args.seed))
    failures = [c for c in checks if c is not True]
    return _json({"suite": args.suite, "checks": len(checks), "failures": failures}), (1 if failures else 0)


# ---------------------------------------------------------------- region


def _region_window(args):
    """Window half-width rho1 + 1 and the rows of the raster for a kind: a
    function of the axis that yields, for each i, row i in run form
    (exactnum._cells), the runs (stop, outcome) of the cells at
    (axis[i], axis[j]) for j <= i, each outcome a bool or a Verdict.

    Every kind comes a row at a time from its public raster, looked up by
    name when the rows are drawn: in_A_raster and in_G_raster (the raster
    kernel in shimura), in_B_raster (gates from in_G_raster), and the
    row-range rasters in_square_raster, in_U0_raster and in_W_raster, which
    bound each row's members by exact bisection on the axis. The raster is
    two-dimensional, so every kind that takes a group needs a rank-2 one.
    """
    kind = args.kind
    if kind != "A" and args.max_weight is not None:
        raise ArgumentError(f"--max-weight is for kind A only, not for kind {kind}")
    if kind == "W":
        if args.group is not None or args.p:
            raise ArgumentError("--group and --p are not for kind W")
        if args.m is None:
            raise ArgumentError("--m is required for kind W")
        m = args.m
        return Fraction(m + 1, 2) + 2, lambda axis: in_W_raster(axis, m)
    if args.m is not None:
        raise ArgumentError(f"--m is for kind W only, not for kind {kind}")
    if args.group is None:
        raise ArgumentError(f"--group is required for kind {kind}")
    g = _parse_group(args.group, args.p)
    prm = group_params(g)
    if g.n != 2:
        raise ArgumentError(f"kind {kind} needs a rank-2 group, got n = {g.n}")
    if kind == "U0" and g.p != 0:
        raise ArgumentError("kind U0 is defined for p = 0")
    if kind == "rank2-B" and g.d > 2:
        # in_B's three tests miss q_(2,2) < 0 in T2 for d >= 3 (README)
        raise ArgumentError(f"kind rank2-B is the positivity set only for d <= 2, got d = {g.d}")
    rho = prm.rho
    if rho[0] + 1 <= 0:
        raise ArgumentError(f"the window [0, rho1 + 1] is empty: rho1 + 1 = {rho[0] + 1}")
    if kind == "rank2-B" and prm.alpha < -Fraction(g.d, 4):
        # With rho1 = alpha + d/2 and rho2 = alpha, |rho2| <= rho1 exactly
        # when alpha >= -d/4, and only then do the gates keep |x1| <= rho1,
        # off the poles of the series at rho1 -+ x1 = 0: if
        # x1^2 > rho1^2 >= rho2^2, phi_2 = (rho2^2 - x1^2)(rho2^2 - x2^2) >= 0
        # forces x2^2 >= rho2^2, and then phi_1 = rho1^2 + rho2^2 - x1^2 - x2^2 < 0.
        raise ArgumentError(f"kind rank2-B needs alpha >= -d/4, got alpha = {prm.alpha} for d = {g.d}")
    rows = {
        "G": lambda axis: in_G_raster(axis, prm),
        "A": lambda axis: in_A_raster(axis, prm, 6 if args.max_weight is None else args.max_weight),
        "square": lambda axis: in_square_raster(axis, prm),
        "U0": lambda axis: in_U0_raster(axis, g.b),
        "rank2-B": lambda axis: in_B_raster(axis, g.d, rho),
    }
    return rho[0] + 1, rows[kind]


def _cell(v: Verdict) -> str:
    """The member and witness columns of a Verdict, joined."""
    return ("1," if v.member else "0,") + (v.witness_str() or "")


def cmd_region(args):
    _check_int("grid", args.grid, 2)
    top, rows = _region_window(args)
    try:
        float(top)
    except OverflowError as exc:
        raise ArgumentError("the raster window is beyond float range") from exc
    # the axis top * i / (grid - 1) as numerators a over one denominator:
    # a label is a / den, rounded once, as float(Fraction) rounds it
    den = top.denominator * (args.grid - 1)
    nums = [top.numerator * i for i in range(args.grid)]
    labels = [f"{a / den:.12g}" for a in nums]
    # a raster repeats a few distinct outcomes, so each one's column texts
    # "y,member,witness" are made once, the first time it appears: a
    # Verdict's (member, witness) formatted once by _cell, a bool as its
    # member column
    texts, ys = {}, [y + "," for y in labels]

    def columns(outcome):
        key = outcome if outcome.__class__ is bool else (outcome.member, outcome.witness)
        cols = texts.get(key)
        if cols is None:
            cell = ("1," if outcome else "0,") if key is outcome else _cell(outcome)
            cols = texts[key] = [y + cell for y in ys]
        return cols

    # the raster in full, before any output, so that an error in any row
    # leaves stdout and --out untouched; its runs are few, its text is not
    raster = list(rows([Fraction(a, den) for a in nums]))

    def chunks():
        # the header, then a row a chunk: one join, under its head "x,", of
        # the slices of its runs
        yield "x,y,member,witness\n"
        for head, runs in zip([x + "," for x in labels], raster):
            cells, start = [], 0
            for stop, outcome in runs:
                cells += columns(outcome)[start:stop]
                start = stop
            yield head + ("\n" + head).join(cells) + "\n"

    return chunks(), 0


# ---------------------------------------------------------------- contour / crossing


def cmd_contour(args):
    return (contour_to_csv(trace_contour(args.m, args.grid)),), 0


def cmd_crossing(args):
    c = crossing_point(args.m)
    return _json({"c_m": c, "residual": crossing_equation(c, args.m)}), 0


# ---------------------------------------------------------------- flags
#
# Each command maps to its handler, a one-line help and its flags. Each flag
# name maps to (dest, conversion, default, help): the conversion is str, int
# or a tuple of choices, or _PATH, a path that is not empty, and a flag whose
# default is _REQUIRED must be given.

_REQUIRED = object()
_PATH = object()
_EVAL = {
    "--n": ("n", int, _REQUIRED, "number of variables"),
    "--tau": ("tau", str, _REQUIRED, 'rational "p/q"'),
    "--alpha": ("alpha", str, _REQUIRED, 'rational "p/q"'),
    "--lambda": ("lam", str, _REQUIRED, 'partition "a,b,..." ("" for empty)'),
}
_X = {"--x": ("x", str, _REQUIRED, 'point "p/q,..." of length n')}
_OUT = {"--out": ("out", _PATH, None, "output path (default stdout)")}
_M = {"--m": ("m", int, _REQUIRED, "family index")}
_COMMANDS = {
    "eval": (cmd_eval, "evaluate one polynomial at one exact point", {**_EVAL, **_X}),
    "expand": (cmd_expand, "expand into even monomials (weight capped)", _EVAL),
    "eigenvalue": (cmd_eigenvalue, "Harish-Chandra eigenvalue of one operator", {
        "--group": ("group", str, _REQUIRED, '"n,d,b"'),
        "--p": ("p", int, 0, "parameter deformation"),
        "--mu": ("mu", str, _REQUIRED, 'partition "a,b,..."'),
        **_X,
    }),
    "verify": (cmd_verify, "run one cross-formula verification suite", {
        "--suite": ("suite", tuple(_SUITES), _REQUIRED, "suite name"),
        "--budget": ("budget", int, None, "suite size knob (capped per suite)"),
        "--seed": ("seed", int, 0, "seed of the random points"),
    }),
    "region": (cmd_region, "rasterize a positivity set to CSV", {
        "--kind": ("kind", ("G", "A", "rank2-B", "U0", "W", "square"), _REQUIRED, "positivity set"),
        "--group": ("group", str, None, '"n,d,b" (all kinds except W)'),
        "--p": ("p", int, 0, "parameter deformation"),
        "--m": ("m", int, None, "family index (kind W only)"),
        "--grid": ("grid", int, 80, "points per axis"),
        "--max-weight": ("max_weight", int, None, "certification cap for kind A only (default 6)"),
        **_OUT,
    }),
    "contour": (cmd_contour, "trace the divided-difference zero curve",
                {**_M, "--grid": ("grid", int, 96, "points per axis"), **_OUT}),
    "crossing": (cmd_crossing, "diagonal crossing point of the zero curve", _M),
}


def _usage(cmd) -> str:
    """The flags of one command, or the command list if cmd is None."""
    if cmd is None:
        rows = [f"  {name:12}{text}" for name, (_, text, _) in _COMMANDS.items()]
        rows.append("bcinterp COMMAND -h lists the flags of one command.")
    else:
        rows = [_COMMANDS[cmd][1]] + [
            f"  {name:14}{text}{': ' + ', '.join(conv) if isinstance(conv, tuple) else ''}"
            f"{'' if default is None else ' (required)' if default is _REQUIRED else f' (default {default})'}"
            for name, (_, conv, default, text) in _COMMANDS[cmd][2].items()]
    return "\n".join([f"usage: bcinterp {cmd or 'COMMAND'} [--flag value | --flag=value ...]", *rows]) + "\n"


def _parse_args(argv):
    """The flags of argv as attributes named by their dests, and run, the
    command's handler. Each usage error is an ArgumentError; -h or --help in
    place of a flag gives a run whose text is the help."""
    if not argv:
        raise ArgumentError(f"a command is required: {', '.join(_COMMANDS)}")
    cmd, tokens = argv[0], iter(argv[1:])
    if cmd in ("-h", "--help"):
        return SimpleNamespace(run=lambda args: ((_usage(None),), 0))
    if cmd not in _COMMANDS:
        raise ArgumentError(f"unknown command {cmd!r}, expected one of {', '.join(_COMMANDS)}")
    run, _, flags = _COMMANDS[cmd]
    given = {}
    for token in tokens:
        if token in ("-h", "--help"):
            return SimpleNamespace(run=lambda args: ((_usage(cmd),), 0))
        name, eq, value = token.partition("=")
        if name not in flags:
            raise ArgumentError(f"unknown flag {token!r} for {cmd}")
        dest, conv = flags[name][:2]
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ArgumentError(f"{name} needs a value")
        if conv is int:
            try:
                value = int(value)
            except ValueError as exc:
                raise ArgumentError(f"{name} must be an integer, got {value!r}") from exc
        elif conv is _PATH:
            if not value:
                raise ArgumentError(f"{name} needs a value")
        elif conv is not str and value not in conv:
            raise ArgumentError(f"{name} must be one of {', '.join(conv)}, got {value!r}")
        given[dest] = value
    for name, (dest, _, default, _) in flags.items():
        if dest not in given and default is _REQUIRED:
            raise ArgumentError(f"{name} is required for {cmd}")
        given.setdefault(dest, default)
    return SimpleNamespace(run=run, **given)


def _fail(exc, code: int) -> int:
    sys.stderr.write(f"error: {exc}\n")
    return code


def main(argv=None) -> int:
    """Parse argv (sys.argv[1:] if None), run its command and write its
    chunks to --out or stdout, one at a time; return the command's exit
    code, or 2 at an ArgumentError, 3 at any other DomainError, 4 at an
    OSError."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        chunks, code = args.run(args)
        out = getattr(args, "out", None)
        fh = sys.stdout if out is None else open(out, "w")
        try:
            for chunk in chunks:
                fh.write(chunk)
        finally:
            if out is not None:
                fh.close()
    except ArgumentError as exc:
        return _fail(exc, 2)
    except DomainError as exc:
        return _fail(exc, 3)
    except OSError as exc:
        return _fail(exc, 4)
    return code


if __name__ == "__main__":
    sys.exit(main())
