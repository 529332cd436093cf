"""Saigo fractional operators acting on power terms.

The Saigo integral generalizes Riemann-Liouville with a Gauss-hypergeometric
kernel; on monomials it acts by a pure gamma-ratio multiplier, which is all
the decomposition engine ever needs.  This module provides that multiplier,
the corrected Caputo-type Saigo derivative of one power built from it
(the governing-equation check in :mod:`fracpois.processes` applies it to
each term of the term cache's truncated rows at a time), the composition
identity check, the commutation counterexample, and the C_k coefficient
products that appear in the general state-probability series.  The
quadrature evaluation of the defining integral, the independent side of the
power rule, is a test oracle (``tests/oracles.py``).

Conventions: operators are written for f(t) = t^{rho-1} (integral) or t^rho
(derivative); beta = -alpha recovers Riemann-Liouville and beta = 0 recovers
Erdelyi-Kober.  The power domain is the operators' own rule: the integral
takes rho > max(0, beta - gamma) (Saigo 1978), the derivative its inner
integral's, and either returns the image's power, whatever its sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .adm import PowerTerm
from .errors import ConvergenceError, ParameterError
from .specfun import LOG_HUGE, log_abs_gamma, log_gamma

SEMIGROUP_REL_TOL = 1e-9


@dataclass(frozen=True)
class SaigoParams:
    """The (alpha, beta, gamma) triple of a Saigo integral.

    gamma is stored as ``gamma_p`` to keep clear of the gamma function.
    """

    alpha: float
    beta: float
    gamma_p: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma_p"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ParameterError(f"SaigoParams: {name} must be finite, got {v!r}")
        if self.alpha <= 0.0:
            raise ParameterError(f"SaigoParams: alpha must be > 0, got {self.alpha}")


def _integral_multiplier(alpha: float, beta: float, gamma_p: float, rho: float) -> float:
    """Gamma(rho) Gamma(rho - beta + gamma) / (Gamma(rho - beta) Gamma(rho + alpha + gamma)).

    Internal: permits alpha >= 0 (order zero arises inside the Caputo-type
    derivative when alpha = 1).  The numerator arguments are positive by the
    operator preconditions; the denominator is pole-safe -- a pole there
    sends the multiplier to zero.  A multiplier past HUGE raises
    ConvergenceError, as the series kernel refuses its terms.
    """
    num = log_gamma(rho) + log_gamma(rho - beta + gamma_p)
    s1, l1 = log_abs_gamma(rho - beta)
    s2, l2 = log_abs_gamma(rho + alpha + gamma_p)
    if s1 == 0.0 or s2 == 0.0:
        return 0.0
    log_mult = num - l1 - l2
    if log_mult > LOG_HUGE:
        raise ConvergenceError(f"Saigo multiplier overflow at rho = {rho!r}")
    return s1 * s2 * math.exp(log_mult)


def _check_integral_domain(p_beta: float, p_gamma: float, rho: float, who: str) -> None:
    if rho <= 0.0:
        raise ParameterError(f"{who}: requires rho > 0, got rho = {rho}")
    if rho <= p_beta - p_gamma:
        raise ParameterError(
            f"{who}: requires rho > beta - gamma "
            f"(rho = {rho}, beta - gamma = {p_beta - p_gamma})"
        )


def saigo_integral_power(p: SaigoParams, rho: float) -> PowerTerm:
    """Image of t^{rho-1} under the Saigo integral, as multiplier * t^{rho-beta-1}."""
    _check_integral_domain(p.beta, p.gamma_p, rho, "saigo_integral_power")
    mult = _integral_multiplier(p.alpha, p.beta, p.gamma_p, rho)
    return PowerTerm(mult, rho - p.beta - 1.0)


def saigo_caputo_derivative_power(p: SaigoParams, rho: float) -> PowerTerm:
    """Image of t^rho under the corrected Caputo-type Saigo derivative.

    The operator is the Saigo integral with parameters
    (1 - alpha, -beta - 1, alpha + gamma) applied to the first ordinary
    derivative, the order every process equation uses (0 < alpha <= 1).
    On a power this collapses to

        Gamma(rho+1) Gamma(rho+alpha+beta+gamma+1)
        ------------------------------------------ * t^{rho+beta}.
        Gamma(rho+beta+1) Gamma(rho+gamma+1)
    """
    if not (0.0 < p.alpha <= 1.0):
        raise ParameterError(
            f"saigo_caputo_derivative_power: requires 0 < alpha <= 1, got {p.alpha}"
        )
    # The inner integral's parameters, and its domain condition on t^{rho-1}.
    ia, ib, ig = 1.0 - p.alpha, -p.beta - 1.0, p.alpha + p.gamma_p
    _check_integral_domain(ib, ig, rho, "saigo_caputo_derivative_power")
    mult = rho * _integral_multiplier(ia, ib, ig, rho)
    return PowerTerm(mult, rho + p.beta)


class SemigroupCheck(NamedTuple):
    lhs: float
    rhs: float
    exponent: float
    differ: bool


def semigroup_counterexample(p1: SaigoParams, p2: SaigoParams, rho: float) -> SemigroupCheck:
    """Apply the two operator orders to t^{rho-1} and report whether they differ.

    Both orders produce t^{rho - beta1 - beta2 - 1}; only the multipliers can
    disagree.  Commutation holds in the Riemann-Liouville sub-family but is
    false for general Saigo parameters, and this function exhibits that.
    Each order is two :func:`saigo_integral_power` steps, whose domain rule
    refuses a rho outside either step's domain.
    """
    # Order A: p2 first, then p1 (each application shifts rho by -beta).
    lhs = saigo_integral_power(p2, rho).coeff * saigo_integral_power(p1, rho - p2.beta).coeff
    # Order B: p1 first, then p2.
    rhs = saigo_integral_power(p1, rho).coeff * saigo_integral_power(p2, rho - p1.beta).coeff
    scale = max(abs(lhs), abs(rhs), 1e-300)
    differ = abs(lhs - rhs) > SEMIGROUP_REL_TOL * scale
    return SemigroupCheck(lhs, rhs, rho - p1.beta - p2.beta - 1.0, differ)


def composition_check(p: SaigoParams, rho: float, t: float) -> float:
    """|I^{a,b,g}( d^{a,b,g} t^rho ) - t^rho| evaluated at t.

    The identity I(D f) = f - f(0) holds exactly for powers because the
    integral composed with the derivative's inner integral telescopes, via
    the Saigo semigroup, into an ordinary antiderivative of f'.  The check
    deliberately evaluates the two-step gamma-ratio route rather than the
    telescoped form, so it actually exercises the operator arithmetic.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ParameterError(f"composition_check: t must be > 0, got {t!r}")
    deriv = saigo_caputo_derivative_power(p, rho)
    outer = saigo_integral_power(p, deriv.exponent + 1.0)
    recovered = deriv.coeff * outer.coeff
    # exponent bookkeeping: (rho + beta) - beta = rho, always exact
    return abs(recovered - 1.0) * t ** rho


def ck_log_coefficients(p: SaigoParams, start: int, stop: int, ln_prev: float) -> list[float]:
    """ln C_k for k = start .. stop - 1, continuing the running sum from
    ln_prev = ln C_{start-1} (0.0 at start = 0, C_0 being the empty product).

    Factor j of C_k = prod_{j<=k} G(1+g-j b)/G(1+g+a-(j-1) b) is added to
    the sum once, so a table built by runs holds the same floats as one
    built in one go.  Requires beta < 0 and every gamma argument positive.
    """
    a, b, g = p.alpha, p.beta, p.gamma_p
    if b >= 0.0:
        raise ParameterError(f"ck_log_coefficients: requires beta < 0, got {b}")
    out = [0.0] if start == 0 else []
    acc = ln_prev
    for j in range(max(start, 1), stop):
        num = 1.0 + g - j * b
        den = 1.0 + g + a - (j - 1) * b
        if num <= 0.0 or den <= 0.0:
            raise ParameterError(
                f"ck_log_coefficients: gamma argument <= 0 at j = {j} "
                f"(num = {num}, den = {den}); gamma_p out of admissible range"
            )
        acc += log_gamma(num) - log_gamma(den)
        out.append(acc)
    return out
