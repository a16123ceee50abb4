"""Exact scalar helpers shared by every other module.

Arithmetic is generic over exact values (int, Fraction) and floats: exact in,
exact out. Nothing here converts a Fraction to a float silently.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "DomainError",
    "PoleError",
    "poch_rising",
    "poch_pm",
    "gen_pochhammer",
    "log_gamma",
    "is_exact",
    "as_exact",
    "SIGN_DEADBAND",
]

# Relative sign deadband for decisions taken at float points: a float value
# v with scale s counts as negative only when v < -SIGN_DEADBAND * (1 + s).
# Exact points never use it.
SIGN_DEADBAND = 1e-9


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation landed on a pole: a Gamma argument at a nonpositive
    integer, or a vanishing factor in the denominator of an exact product."""


def is_exact(value) -> bool:
    """True for values kept in exact arithmetic (int or Fraction)."""
    return isinstance(value, (int, Fraction))


def as_exact(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(f"expected an exact rational, got {value!r}")


def poch_rising(a, k: int):
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); empty product for k = 0."""
    if k < 0:
        raise DomainError(f"rising factorial needs k >= 0, got {k}")
    out = a ** 0  # 1 of the same kind as a
    for i in range(k):
        out = out * (a + i)
    return out


def poch_pm(a, x, k: int):
    """The symmetric product (a+x)_k (a-x)_k."""
    return poch_rising(a + x, k) * poch_rising(a - x, k)


def gen_pochhammer(a, mu, d):
    """Generalized rising factorial (a)_mu = prod_i (a - (d/2)(i-1))_{mu_i}.

    d is the step parameter; a and d must be exact rationals.
    """
    half = as_exact(d) / 2
    out = Fraction(1)
    for i, part in enumerate(mu):
        out = out * poch_rising(as_exact(a) - half * i, int(part))
    return out


def log_gamma(t) -> tuple[float, int]:
    """log |Gamma(t)| together with the sign of Gamma(t).

    Works for negative non-integer t via the sign of the reflection; raises
    PoleError at 0, -1, -2, ...  Accuracy rides on math.lgamma, which is
    comfortably inside 1e-12 relative error on the ranges used here.
    """
    tf = float(t)
    if tf <= 0.0 and tf == math.floor(tf):
        raise PoleError(f"Gamma pole at {t}")
    sign = 1
    if tf < 0.0 and int(math.floor(tf)) % 2 != 0:
        sign = -1
    return math.lgamma(tf), sign
