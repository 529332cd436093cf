"""Saigo fractional operators acting on power terms.

The Saigo integral generalizes Riemann-Liouville with a Gauss-hypergeometric
kernel; on monomials it acts by a pure gamma-ratio multiplier, which is all
the decomposition engine ever needs.  This module provides that multiplier,
the corrected Caputo-type Saigo derivative built from it, a quadrature
evaluation of the defining integral (used as an independent cross-check),
the composition identity check, the commutation counterexample, and the C_k
coefficient products that appear in the general state-probability series.

Conventions: operators are written for f(t) = t^{rho-1} (integral) or t^rho
(derivative); beta = -alpha recovers Riemann-Liouville and beta = 0 recovers
Erdelyi-Kober.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .adm import PowerSeries, PowerTerm
from .errors import ConvergenceError, ParameterError
from .specfun import log_abs_gamma, log_gamma

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
    sends the multiplier to zero.
    """
    num = log_gamma(rho) + log_gamma(rho - beta + gamma_p)
    s1, l1 = log_abs_gamma(rho - beta)
    s2, l2 = log_abs_gamma(rho + alpha + gamma_p)
    if s1 == 0.0 or s2 == 0.0:
        return 0.0
    return s1 * s2 * math.exp(num - l1 - l2)


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


def saigo_integrate(p: SaigoParams, series: PowerSeries) -> PowerSeries:
    """Term-wise Saigo integral of a power series (terms are c * t^e, rho = e + 1)."""

    def one(term: PowerTerm) -> PowerTerm:
        image = saigo_integral_power(p, term.exponent + 1.0)
        return PowerTerm(term.coeff * image.coeff, image.exponent)

    return series.map_terms(one)


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
    if rho <= 0.0:
        raise ParameterError(
            f"saigo_caputo_derivative_power: requires rho > 0, got {rho}"
        )
    # Inner integral parameters and their domain condition on t^{rho-1}.
    ia, ib, ig = 1.0 - p.alpha, -p.beta - 1.0, p.alpha + p.gamma_p
    if rho <= ib - ig:
        raise ParameterError(
            "saigo_caputo_derivative_power: inner Saigo-integral domain violated "
            f"(rho = {rho} <= {ib - ig})"
        )
    mult = rho * _integral_multiplier(ia, ib, ig, rho)
    return PowerTerm(mult, rho + p.beta)


def saigo_derivative_series(p: SaigoParams, series: PowerSeries) -> PowerSeries:
    """Term-wise Caputo-type Saigo derivative; constants are annihilated."""

    def one(term: PowerTerm) -> PowerTerm | None:
        if term.exponent == 0.0:
            return None
        image = saigo_caputo_derivative_power(p, term.exponent)
        return PowerTerm(term.coeff * image.coeff, image.exponent)

    return series.map_terms(one)


def saigo_integral_quadrature(p: SaigoParams, rho: float, t: float) -> float:
    """Saigo integral of t^{rho-1} straight from its defining integral.

    Substituting s = t(1-u) turns the definition into

        t^{rho-beta-1} / Gamma(alpha) *
            int_0^1 u^{alpha-1} (1-u)^{rho-1} 2F1(alpha+beta, -gamma; alpha; u) du,

    evaluated with an adaptive rule carrying the algebraic endpoint weights
    exactly.  This route shares no gamma-ratio code with
    :func:`saigo_integral_power`, which is the point: it is the oracle side
    of that pair.
    """
    # scipy is imported here, not at module level, so that importing fracpois
    # (and every series command of the CLI) does not pay for it.
    from scipy import integrate, special

    _check_integral_domain(p.beta, p.gamma_p, rho, "saigo_integral_quadrature")
    if not (t > 0.0 and math.isfinite(t)):
        raise ParameterError(f"saigo_integral_quadrature: t must be > 0, got {t!r}")

    a, b, g = p.alpha, p.beta, p.gamma_p

    def kernel(u: float) -> float:
        return float(special.hyp2f1(a + b, -g, a, u))

    value, abserr = integrate.quad(
        kernel, 0.0, 1.0, weight="alg", wvar=(a - 1.0, rho - 1.0),
        epsabs=1e-12, epsrel=1e-9, limit=200,
    )
    if not math.isfinite(value) or abserr > 1e-6 * max(1.0, abs(value)):
        raise ConvergenceError(
            f"saigo_integral_quadrature: estimated error {abserr:.3e} too large"
        )
    return t ** (rho - b - 1.0) / math.gamma(a) * value


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
    """
    if rho <= 0.0:
        raise ParameterError(f"semigroup_counterexample: requires rho > 0, got {rho}")
    b1, g1 = p1.beta, p1.gamma_p
    b2, g2 = p2.beta, p2.gamma_p
    bound = max(b1 - g1, b2 - g2, b1 - g1 + b2, b2 - g2 + b1)
    if rho <= bound:
        raise ParameterError(
            f"semigroup_counterexample: requires rho > {bound} for both orders"
        )
    # Order A: p2 first, then p1 (each application shifts rho by -beta).
    if rho - b2 <= 0.0 or rho - b1 <= 0.0:
        raise ParameterError("semigroup_counterexample: intermediate exponent not integrable")
    lhs = _integral_multiplier(p2.alpha, b2, g2, rho) \
        * _integral_multiplier(p1.alpha, b1, g1, rho - b2)
    # Order B: p1 first, then p2.
    rhs = _integral_multiplier(p1.alpha, b1, g1, rho) \
        * _integral_multiplier(p2.alpha, b2, g2, rho - b1)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    differ = abs(lhs - rhs) > SEMIGROUP_REL_TOL * scale
    return SemigroupCheck(lhs, rhs, rho - b1 - b2 - 1.0, differ)


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


def ck_log_run(p: SaigoParams, start: int, stop: int, ln_prev: float) -> list[float]:
    """ln C_k for k = start .. stop - 1, continuing the running sum from
    ln_prev = ln C_{start-1} (0.0 at start = 0, C_0 being the empty product).

    Factor j of C_k = prod_{j<=k} G(1+g-j b)/G(1+g+a-(j-1) b) is added to
    the sum once, so a table built by runs holds the same floats as one
    built in one go.  Every gamma argument must be positive.
    """
    a, b, g = p.alpha, p.beta, p.gamma_p
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


def ck_log_coefficients(p: SaigoParams, k_max: int) -> list[float]:
    """ln C_k for k = 0 .. k_max (see :func:`ck_log_run`).

    Requires beta < 0 and every gamma argument positive; computed
    cumulatively in log space so k_max in the hundreds stays exact.
    """
    if p.beta >= 0.0:
        raise ParameterError(f"ck_log_coefficients: requires beta < 0, got {p.beta}")
    if k_max < 0:
        raise ParameterError(f"ck_log_coefficients: k_max must be >= 0, got {k_max}")
    return ck_log_run(p, 0, k_max + 1, 0.0)
