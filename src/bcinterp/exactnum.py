"""Exact scalar helpers shared by every other module, and the rules for a
point (n coordinates: _check_length, _exact_point) and an integer index (an
int at or above its bound: _check_int); partitions._at_most is the rule for a
partition. Every function that takes such an argument calls its rule, and a
broken rule raises ArgumentError.

as_exact and _over_common take exact values (int, Fraction) only and raise
ArgumentError at a float. Only log_gamma and _gamma_quotient compute in
floats.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

__all__ = [
    "ArgumentError",
    "DomainError",
    "PoleError",
    "log_gamma",
    "is_exact",
    "as_exact",
    "SIGN_DEADBAND",
]

# Deadband of the two float decisions left (every polynomial sign, and every
# other comparison with a point, is decided at the exact value of the
# point): in_W on the float S_div, and the fallback of in_B on the centre
# of an enclosure of R that still contains 0 after 4096 terms.
SIGN_DEADBAND = 1e-9


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class ArgumentError(DomainError):
    """An argument that breaks the rule for its kind (a point's length, a
    partition, an integer index, a rank): a usage error, where a plain
    DomainError is the mathematics failing on valid arguments."""


class PoleError(DomainError):
    """Evaluation landed on a pole: a Gamma argument at a nonpositive
    integer, or a vanishing factor in the denominator of an exact product."""


class Frozen:
    """Base of the immutable value classes: a subclass sets its slots once,
    through _freeze, and is compared, printed and pickled by the slots named
    in _fields; it is unhashable unless it defines __hash__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _freeze(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"


def is_exact(value) -> bool:
    """True for values kept in exact arithmetic (int or Fraction)."""
    return isinstance(value, (int, Fraction))


def _check_length(pt, n: int) -> None:
    if len(pt) != n:
        raise ArgumentError(f"point has length {len(pt)}, expected {n}")


def _check_int(name: str, value, low: int = 0) -> None:
    """ArgumentError unless value is an int >= low: nonnegative, or positive."""
    if not isinstance(value, int) or value < low:
        kind = "positive" if low else "nonnegative"
        raise ArgumentError(f"{name} must be a {kind} integer ({name} >= {low}), got {value!r}")


def _exact_point(pt, n: int):
    """pt of length n at its exact value, a float coordinate as the binary
    rational it holds (an exact pt as it is); ArgumentError at nan or inf."""
    _check_length(pt, n)
    for x in pt:
        if not isinstance(x, (int, Fraction)):
            break
    else:
        return pt
    try:
        return tuple([x if isinstance(x, (int, Fraction)) else Fraction.from_float(x) for x in pt])
    except (ValueError, OverflowError):
        raise ArgumentError(f"point coordinates must be finite, got {pt!r}") from None


def as_exact(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ArgumentError(f"expected an exact rational, got {value!r}")


def _exact_str(value) -> str:
    """str of an exact value; DomainError where it has more digits than
    Python's int-to-str conversion allows (sys.get_int_max_str_digits)."""
    try:
        return str(value)
    except ValueError as exc:
        raise DomainError(f"exact result too long to print: {exc}") from None


def _over_common(values):
    """(D, [v D for v in values]) for the lcm D of the exact values' denominators; ArgumentError at a float."""
    ratios = [as_exact(v).as_integer_ratio() for v in values]
    den = math.lcm(*[d for _, d in ratios])
    return den, [a * (den // d) for a, d in ratios]


def _ascending_axis(axis):
    """The axis of a row-range raster over one denominator, (Q, [A_i]) with
    x_i = A_i / Q (_over_common); ArgumentError unless every value is exact
    and the axis is ascending (ties allowed)."""
    q, nums = _over_common(axis)
    if any(map(operator.gt, nums, nums[1:])):
        raise ArgumentError("a raster axis must be ascending")
    return q, nums


# A raster row i is a list of its maximal runs (stop, outcome): the stops
# strictly increase and end at i + 1, and run k holds the cells from the
# stop before it (0 for the first) up to its own, with one outcome, unequal
# to that of the runs beside it. Every public in_*_raster yields its rows in
# this form; _cells expands one row to its cells.


def _cells(runs):
    """The row of cells that runs stand for, one outcome per cell."""
    cells, start = [], 0
    for stop, outcome in runs:
        cells += [outcome] * (stop - start)
        start = stop
    return cells


def _add_run(runs, stop, outcome) -> None:
    """Append the run (stop, outcome) to runs, or move the stop of the last
    run to stop where it has that outcome: the same object, since the cells
    of a raster share their outcomes (bools, and one Verdict per outcome)."""
    if runs and runs[-1][1] is outcome:
        runs[-1] = (stop, outcome)
    else:
        runs.append((stop, outcome))


def _span_runs(n: int, spans, gap):
    """The runs of a row of n cells from spans, tuples (lo, hi, outcome):
    taken by lo, each gives outcome to its cells lo..hi - 1 that no span
    before it holds, and the cells no span holds have the outcome gap."""
    runs, at = [], 0  # the runs so far hold the cells below at
    for lo, hi, outcome in sorted(spans, key=operator.itemgetter(0)):
        if hi > max(lo, at):
            if lo > at:
                _add_run(runs, lo, gap)
            _add_run(runs, hi, outcome)
            at = hi
    if at < n:
        _add_run(runs, n, gap)
    return runs


def _add_flag_runs(runs, start: int, flags: bytes) -> None:
    """Append to runs the cells start, start + 1, ... whose outcomes are
    the bools flags (bytes of 0 and 1), one run per maximal stretch of
    equal flags, each stretch found by one bytes.find."""
    k, n = 0, len(flags)
    while k < n:
        flag = flags[k]
        stop = flags.find(1 - flag, k)
        if stop < 0:
            stop = n
        _add_run(runs, start + stop, flag == 1)
        k = stop


def log_gamma(t) -> tuple[float, int]:
    """log |Gamma(t)| together with the sign of Gamma(t).

    Works for negative non-integer t via the sign of the reflection; raises
    PoleError at 0, -1, -2, ...  Accuracy rides on math.lgamma, assumed within
    5 ulps or 1e-15 absolute, the bounds CPython's Lib/test/test_math.py tests.
    """
    tf = float(t)
    if tf <= 0.0 and tf == math.floor(tf):
        raise PoleError(f"Gamma pole at {t}")
    sign = 1
    if tf < 0.0 and int(math.floor(tf)) % 2 != 0:
        sign = -1
    return math.lgamma(tf), sign


def _gamma_quotient(nums, dens) -> float:
    """prod Gamma(a) for a in nums over prod Gamma(b) for b in dens, through
    log_gamma: PoleError at a pole of a numerator Gamma, else 0.0 at a pole
    of a denominator Gamma."""
    logs = [log_gamma(a) for a in nums]
    try:
        logs += [(-lg, sg) for lg, sg in map(log_gamma, dens)]
    except PoleError:
        return 0.0
    return math.prod(sg for _, sg in logs) * math.exp(sum(lg for lg, _ in logs))
