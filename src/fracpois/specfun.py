"""Scalar special functions and the fixed series constants of the package.

Everything here is plain-float and pure: log-gamma, falling factorials, one
compensated-summation step and the one-parameter Mittag-Leffler function,
with the pole tolerance and the stop rule every k-series shares.
:func:`log_gamma` takes positive arguments only, as the C_k products and the
decomposition's power rule need.  :func:`log_abs_gamma` returns ``(sign,
log|Gamma|)`` for any finite real argument; the Saigo operator multiplier
calls it for denominators that may sit at a pole, while the distribution
series inline its sign and pole rule in their batch fills.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, ParameterError

# Nearest-integer tolerance for detecting gamma poles.  Arguments like
# k*nu + 1 - n are produced by float multiplication, so an argument that is
# "morally" a non-positive integer can miss it by a few ulp.
POLE_TOL = 1e-9

# Largest magnitude any series term may reach before we refuse to continue:
# beyond this, double precision has no digits left to cancel.
LOG_HUGE = math.log(1e300)

# The fixed stop rule of every k-series: stop on two consecutive terms
# <= SERIES_TOL * max(1, |partial sum|), and give up after TERM_CAP terms.
SERIES_TOL = 1e-12
TERM_CAP = 10_000

# mittag_leffler stops on one decreasing term below this.
ML_TOL = 1e-14


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


def is_gamma_pole(x: float) -> bool:
    """True when x is within POLE_TOL of a non-positive integer."""
    if x > 0.5:
        return False
    n = round(x)
    return n <= 0 and abs(x - n) <= POLE_TOL


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
    if is_gamma_pole(x):
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


def mittag_leffler(alpha: float, x: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(x) = sum x^k / Gamma(k alpha + 1).

    Direct series with compensated summation.  Two guards keep the answer
    honest in double precision:

    * overflow: if the estimated peak term exceeds 1e300 we refuse;
    * cancellation: for x < -30 the alternating terms grow far beyond the
      O(1) result before decaying, so no accurate digits survive -- we raise
      instead of returning noise.
    """
    if not (0.0 < alpha <= 1.0):
        raise ParameterError(f"mittag_leffler: alpha must be in (0, 1], got {alpha}")
    if not math.isfinite(x):
        raise ParameterError(f"mittag_leffler: argument must be finite, got {x!r}")
    if x < -30.0:
        raise ConvergenceError(
            f"mittag_leffler: x = {x} is too negative for double precision "
            "(alternating-series cancellation); |x| <= 30 is supported"
        )
    if x == 0.0:
        return 1.0
    if x > 0.0 and x ** (1.0 / alpha) > LOG_HUGE:
        raise ConvergenceError(
            f"mittag_leffler: x = {x} overflows the largest series term"
        )

    log_ax = math.log(abs(x))
    total, comp = 0.0, 0.0
    prev = math.inf
    for k in range(TERM_CAP):
        logmag = k * log_ax - math.lgamma(k * alpha + 1.0)
        if logmag > LOG_HUGE:
            raise ConvergenceError("mittag_leffler: series term overflow")
        term = math.exp(logmag)
        if x < 0.0 and k % 2:
            term = -term
        total, comp = _kahan_add(total, comp, term)
        if k >= 1 and abs(term) <= ML_TOL and abs(term) < prev:
            return total
        prev = abs(term)
    raise ConvergenceError(
        f"mittag_leffler: no convergence within {TERM_CAP} terms "
        f"(alpha={alpha}, x={x})"
    )
