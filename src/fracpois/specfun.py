"""Scalar special functions and the fixed series constants of the package.

Everything here is plain-float and pure: log-gamma, falling factorials and
one compensated-summation step, with the pole tolerance, the one magnitude
limit, and the stop rule and refusal tolerance of the one k-series,
``processes._saigo_series``, which applies both.
:func:`log_gamma` takes positive arguments only, as the C_k products and the
decomposition's power rule need.  :func:`log_abs_gamma` returns ``(sign,
log|Gamma|)`` for any finite real argument; the Saigo operator multiplier
calls it for denominators that may sit at a pole, while the distribution
series inline its sign and pole rule in their batch fills.
"""

from __future__ import annotations

import math

from .errors import ParameterError

# Nearest-integer tolerance for detecting gamma poles.  Arguments like
# k*nu + 1 - n are produced by float multiplication, so an argument that is
# "morally" a non-positive integer can miss it by a few ulp.
POLE_TOL = 1e-9

# The one magnitude limit (LOG_HUGE for log-space terms): past it a series
# term, an engine coefficient or the equation check's 1/x has no digits left.
HUGE = 1e300
LOG_HUGE = math.log(HUGE)

# The fixed stop rule of every k-series: stop on two consecutive terms
# <= SERIES_TOL * max(1, |partial sum|), and give up after TERM_CAP terms;
# refuse at the term where the rounding bound eps * err passes ROUNDING_TOL.
SERIES_TOL = 1e-12
TERM_CAP = 10_000
ROUNDING_TOL = 1e-9
# The series refuses err past this: eps = ulp(1) is a power of two, so
# err > ROUNDING_TOL / eps exactly when eps * err > ROUNDING_TOL.
_ROUNDING_GATE = ROUNDING_TOL / math.ulp(1.0)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Thin wrapper over the C library's Lanczos-class ``lgamma`` with the
    positivity precondition made explicit.
    """
    if not math.isfinite(x):
        raise ParameterError(f"log_gamma: argument must be finite, got {x!r}")
    if x <= 0.0:
        raise ParameterError(f"log_gamma: argument must be > 0, got {x}")
    return math.lgamma(x)


def log_abs_gamma(x: float) -> tuple[float, float]:
    """Return ``(sign, ln|Gamma(x)|)`` for any finite x.

    At a pole the sign is 0.0 and the log-magnitude is +inf, which makes
    ``sign * exp(-logmag)`` the correct reciprocal (exactly zero).  For
    negative non-integer x the C ``lgamma`` already computes ln|Gamma| via
    reflection; the sign of Gamma alternates per unit interval: negative on
    (-1, 0), positive on (-2, -1), and so on.
    """
    if not math.isfinite(x):
        raise ParameterError(f"log_abs_gamma: argument must be finite, got {x!r}")
    if x > 0.0:
        return 1.0, math.lgamma(x)
    if abs(x - round(x)) <= POLE_TOL:  # within POLE_TOL of an integer <= 0
        return 0.0, math.inf
    sign = -1.0 if math.floor(x) % 2 else 1.0
    return sign, math.lgamma(x)


def falling_factorial(x: float, r: int) -> float:
    """(x)_r = x (x-1) ... (x-r+1); the empty product for r = 0."""
    if r < 0:
        raise ParameterError(f"falling_factorial: order must be >= 0, got {r}")
    out = 1.0
    for j in range(r):
        out *= x - j
    return out


def _kahan_add(total: float, comp: float, term: float) -> tuple[float, float]:
    """One compensated-summation step; returns (new_total, new_compensation)."""
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp
