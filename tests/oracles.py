"""The printed per-variant pmf formulas, kept as test oracles.

The package evaluates every variant through one Saigo k-series kernel with
C_k = 1 exactly on beta = -alpha.  These are the formulas as printed for each
variant, with their own term arithmetic and summation loop, so that tests can
compare independent arithmetic against the production ``pmf``.  tfpp is the
reindexed (k+n)!/k! form, algebraically distinct from the kernel's; sstfpp
builds C_k from the Saigo product even on beta = -alpha.

``ml_half`` is a reference that cancels nothing: E_{1/2}(-x) = e^{x^2}
erfc(x), the tfpp survival at alpha = 1/2, from ``math.erfc``.  So is
``panjer_sfpp``, the space-fractional pmf by a recursion over nonnegative
terms.

The Riemann-Liouville integral of a power is kept here too, as the oracle
for the Saigo integral at beta = -alpha, from its own gamma ratio; so is the
quadrature evaluation of the Saigo integral's defining integral (scipy), the
oracle for its power rule.

Three checks that no command runs live here too, each reading the package's
own values: ``normalization_residual`` (the untruncated pmf_table row and
tail against 1), ``kolmogorov_tail_bound`` (an estimate of the size of
``kolmogorov_residual``, which undershoots it at some points, so it is no
threshold for verify) and ``pgf_cauchy_residual`` (the generating-function
equation order by order).

The one-shot subordination sampler is kept here too: every step of the
stable draw, the clock and the histogram as one whole-array expression, the
form the package had before its kernel ran in place block by block.  The
package must reproduce its draws bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable

from fracpois.adm import PowerTerm
from fracpois.errors import ConvergenceError, ParameterError
from fracpois.processes import (
    VARIANT_TOL,
    FractionalParams,
    _check_state,
    _coupling_weight,
    _index,
    _kahan_sum,
    _series_x,
    pmf_table,
)
from fracpois.saigo import (
    SaigoParams,
    _check_integral_domain,
    ck_log_coefficients,
    saigo_caputo_derivative_power,
)
from fracpois.simulate import _LAM_CLAMP, _as_rng, _uniform_open
from fracpois.specfun import LOG_HUGE, SERIES_TOL, TERM_CAP, _kahan_add, log_abs_gamma, log_gamma

# The printed formulas' own refusal: past this series argument their
# alternating sums cancel away every double-precision digit.  Digits are lost
# well inside it too; the kernel refuses by its measured rounding bound.
ARG_GUARD = 30.0


def _guard_argument(x: float, label: str) -> None:
    if x > ARG_GUARD:
        raise ConvergenceError(
            f"series argument {label} = {x:.6g} exceeds {ARG_GUARD}; "
            "double-precision cancellation would destroy the result"
        )


def ml_half(x: float) -> float:
    """E_{1/2}(-x) = e^{x^2} erfc(x), finite and accurate for 0 <= x <= 26.

    Both factors are positive, so nothing cancels: the relative error is a
    few ulp of erfc and exp plus the rounding of x*x, at most eps * x^2.
    """
    return math.exp(x * x) * math.erfc(x)


def panjer_sfpp(x: float, nu: float, n_max: int) -> list[float]:
    """p_0 .. p_{n_max} of the space-fractional process at x = lam^nu t.

    The process is compound Poisson with rate x and Sibuya(nu) jumps
    (Orsingher & Polito 2012): its pgf exp(-x (1-u)^nu) is exp(x (Q(u) - 1))
    with Q(u) = 1 - (1-u)^nu, whose jump probabilities are q_1 = nu and
    q_{m+1} = q_m (m - nu) / (m + 1).  The Panjer recursion (Panjer 1981)
    gives p_0 = e^{-x} and n p_n = x sum_{m=1}^{n} m q_m p_{n-m}, a sum of
    nonnegative terms, so nothing cancels.  nu = 1 gives the Poisson pmf.
    """
    q = [0.0, nu]
    for m in range(1, n_max):
        q.append(q[m] * (m - nu) / (m + 1))
    p = [math.exp(-x)]
    for n in range(1, n_max + 1):
        p.append(x / n * math.fsum(m * q[m] * p[n - m] for m in range(1, n + 1)))
    return p


def _sum_k_series(
    term: Callable[[int], tuple[float, float]],
    k_min: int,
    label: str,
) -> float:
    """Sum term(k) = (sign, log-magnitude) over k with a two-term stop rule.

    The stop requires two consecutive below-tolerance terms past k_min:
    single terms can vanish exactly at gamma poles, but (for nu < 1) two
    consecutive pole zeros are impossible, so a pair of small terms really
    does mean the superexponential decay regime has begun.
    """
    total, comp = 0.0, 0.0
    prev = math.inf
    for k in range(TERM_CAP):
        sign, logmag = term(k)
        if sign != 0.0:
            if logmag > LOG_HUGE:
                raise ConvergenceError(f"{label}: series term overflow at k = {k}")
            value = sign * math.exp(logmag)
        else:
            value = 0.0
        total, comp = _kahan_add(total, comp, value)
        mag = abs(value)
        if k >= k_min:
            bound = SERIES_TOL * max(1.0, abs(total))
            if mag <= bound and prev <= bound:
                return total
        prev = mag
    raise ConvergenceError(f"{label}: no convergence within {TERM_CAP} terms")


def _state_factor(nu: float, n: int, k: int) -> tuple[float, float]:
    """(sign, log-magnitude) of Gamma(k nu + 1) / Gamma(k nu + 1 - n).

    Zero at the denominator's poles -- those series terms vanish.
    """
    s, l = log_abs_gamma(k * nu + 1.0 - n)
    if s == 0.0:
        return 0.0, -math.inf
    return s, math.lgamma(k * nu + 1.0) - l


def tfpp_pmf(params: FractionalParams, t: float, n: int) -> float:
    """Time-fractional pmf: (lam t^a)^n/n! sum_k (k+n)!/k! (-lam t^a)^k / G((k+n)a+1)."""
    if abs(params.nu - 1.0) > VARIANT_TOL:
        raise ParameterError("tfpp_pmf: requires the nu = 1 variant")
    _check_state(t, n)
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    a = params.alpha
    y = params.lam * t ** a
    _guard_argument(y, "lambda*t^alpha")
    ly = math.log(y)
    lgn = math.lgamma(n + 1.0)

    def term(k: int) -> tuple[float, float]:
        logmag = (
            (n + k) * ly
            + math.lgamma(k + n + 1.0)
            - math.lgamma(k + 1.0)
            - math.lgamma((k + n) * a + 1.0)
            - lgn
        )
        return (-1.0 if k % 2 else 1.0), logmag

    return _sum_k_series(term, 2, "tfpp_pmf")


def sfpp_pmf(params: FractionalParams, t: float, n: int) -> float:
    """Space-fractional pmf: (-1)^n/n! sum_k (-lam^nu t)^k/k! * G(k nu+1)/G(k nu+1-n)."""
    if abs(params.alpha - 1.0) > VARIANT_TOL or abs(params.beta + 1.0) > VARIANT_TOL:
        raise ParameterError("sfpp_pmf: requires the alpha = 1, beta = -1 variant")
    _check_state(t, n)
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    nu = params.nu
    x = params.lam ** nu * t
    _guard_argument(x, "lambda^nu*t")
    lx = math.log(x)
    lgn = math.lgamma(n + 1.0)
    sign_n = -1.0 if n % 2 else 1.0

    def term(k: int) -> tuple[float, float]:
        s, lf = _state_factor(nu, n, k)
        if s == 0.0:
            return 0.0, -math.inf
        logmag = k * lx - math.lgamma(k + 1.0) + lf - lgn
        sign = sign_n * (-1.0 if k % 2 else 1.0) * s
        return sign, logmag

    return _sum_k_series(term, int(n / nu) + 2, "sfpp_pmf")


def stfpp_pmf(params: FractionalParams, t: float, n: int) -> float:
    """Space-time-fractional pmf:
    (-1)^n/n! sum_k (-lam^nu t^a)^k/G(k a+1) * G(k nu+1)/G(k nu+1-n)."""
    if abs(params.beta + params.alpha) > VARIANT_TOL:
        raise ParameterError("stfpp_pmf: requires the beta = -alpha variant")
    _check_state(t, n)
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    a, nu = params.alpha, params.nu
    x = params.lam ** nu * t ** a
    _guard_argument(x, "lambda^nu*t^alpha")
    lx = math.log(x)
    lgn = math.lgamma(n + 1.0)
    sign_n = -1.0 if n % 2 else 1.0

    def term(k: int) -> tuple[float, float]:
        s, lf = _state_factor(nu, n, k)
        if s == 0.0:
            return 0.0, -math.inf
        logmag = k * lx - math.lgamma(k * a + 1.0) + lf - lgn
        sign = sign_n * (-1.0 if k % 2 else 1.0) * s
        return sign, logmag

    return _sum_k_series(term, int(n / nu) + 2, "stfpp_pmf")


def stfpp_pmf_mp(params: FractionalParams, t: float, n_max: int) -> list[float]:
    """p_0 .. p_{n_max} and the tail 1 - sum p_n at t > 0 on beta = -alpha,
    from the k-series summed at 50 digits (mpmath).

    One k loop serves every state: term k of state n is (-x)^k / Gamma(k a + 1)
    times w_n = (-1)^n (k nu)_n / n!, built by w_{n+1} = -w_n (k nu - n) / (n + 1),
    with x = lam^nu t^a.  The loop stops past k = n_max/nu + 2 on two
    consecutive k whose terms are all below 1e-40.  The sum cancels as the
    double-precision one does, so it keeps 50 - log10(largest term) digits:
    more than 40 wherever the package's rounding bound lets a value through.
    """
    import mpmath

    if abs(params.beta + params.alpha) > VARIANT_TOL:
        raise ParameterError("stfpp_pmf_mp: requires the beta = -alpha variant")
    with mpmath.workdps(50):
        a, nu = mpmath.mpf(params.alpha), mpmath.mpf(params.nu)
        x = mpmath.mpf(params.lam) ** nu * mpmath.mpf(t) ** a
        tiny = mpmath.mpf(10) ** -40
        sums = [mpmath.mpf(0)] * (n_max + 1)
        small = 0
        for k in range(TERM_CAP):
            w = (-x) ** k * mpmath.rgamma(k * a + 1)
            big = mpmath.mpf(0)
            for n in range(n_max + 1):
                sums[n] += w
                big = max(big, abs(w))
                w *= -(k * nu - n) / (n + 1)
            small = small + 1 if big < tiny else 0
            if small >= 2 and k > n_max / params.nu + 2:
                return [float(s) for s in sums] + [float(1 - mpmath.fsum(sums))]
    raise ConvergenceError(f"stfpp_pmf_mp: no convergence within {TERM_CAP} terms")


class _CkLogTable:
    """Incrementally extended ln C_k table for a fixed parameter triple."""

    def __init__(self, sp: SaigoParams) -> None:
        self.sp = sp
        self.values = ck_log_coefficients(sp, 0, 1, 0.0)

    def __getitem__(self, k: int) -> float:
        if k >= len(self.values):
            stop = max(2 * len(self.values), k + 1) + 1
            self.values = ck_log_coefficients(self.sp, 0, stop, 0.0)
        return self.values[k]


def sstfpp_pmf(params: FractionalParams, t: float, n: int) -> float:
    """General Saigo space-time pmf:
    (-1)^n/n! sum_k C_k (-lam^nu t^{-b})^k/G(1-k b) * G(k nu+1)/G(k nu+1-n)."""
    _check_state(t, n)
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    b, nu = params.beta, params.nu
    x = params.lam ** nu * t ** (-b)
    _guard_argument(x, "lambda^nu*t^(-beta)")
    lx = math.log(x)
    lgn = math.lgamma(n + 1.0)
    sign_n = -1.0 if n % 2 else 1.0
    logck = _CkLogTable(params.saigo())

    def term(k: int) -> tuple[float, float]:
        s, lf = _state_factor(nu, n, k)
        if s == 0.0:
            return 0.0, -math.inf
        logmag = logck[k] + k * lx - math.lgamma(1.0 - k * b) + lf - lgn
        sign = sign_n * (-1.0 if k % 2 else 1.0) * s
        return sign, logmag

    return _sum_k_series(term, int(n / nu) + 2, "sstfpp_pmf")


def rl_integral_power(alpha: float, rho: float) -> PowerTerm:
    """Image of t^{rho-1} under the Riemann-Liouville integral of order alpha:
    Gamma(rho)/Gamma(rho+alpha) * t^{rho+alpha-1}."""
    if not (0.0 < alpha <= 1.0):
        raise ParameterError(f"rl_integral_power: alpha must be in (0, 1], got {alpha}")
    mult = math.exp(log_gamma(rho) - log_gamma(rho + alpha))
    return PowerTerm(mult, rho + alpha - 1.0)


def saigo_integral_quadrature(p: SaigoParams, rho: float, t: float) -> float:
    """Saigo integral of t^{rho-1} straight from its defining integral.

    Substituting s = t(1-u) turns the definition into

        t^{rho-beta-1} / Gamma(alpha) *
            int_0^1 u^{alpha-1} (1-u)^{rho-1} 2F1(alpha+beta, -gamma; alpha; u) du,

    evaluated with an adaptive rule carrying the algebraic endpoint weights
    exactly.  For beta > gamma the 2F1 grows like (1-u)^(gamma-beta) at
    u = 1, so there the kernel is Euler's transformation,

        2F1(alpha+beta, -gamma; alpha; u)
            = (1-u)^(gamma-beta) 2F1(-beta, alpha+gamma; alpha; u),

    with (1-u)^(gamma-beta) moved into the endpoint weight.  This route
    shares no gamma-ratio code with ``saigo_integral_power``, which is the
    point: it is the oracle side of that pair.
    """
    from scipy import integrate, special

    _check_integral_domain(p.beta, p.gamma_p, rho, "saigo_integral_quadrature")
    if not (t > 0.0 and math.isfinite(t)):
        raise ParameterError(f"saigo_integral_quadrature: t must be > 0, got {t!r}")

    a, b, g = p.alpha, p.beta, p.gamma_p
    if g - b < 0.0:
        h1, h2, right = -b, a + g, rho - 1.0 + g - b
    else:
        h1, h2, right = a + b, -g, rho - 1.0

    def kernel(u: float) -> float:
        return float(special.hyp2f1(h1, h2, a, u))

    value, abserr = integrate.quad(
        kernel, 0.0, 1.0, weight="alg", wvar=(a - 1.0, right),
        epsabs=1e-12, epsrel=1e-9, limit=200,
    )
    if not math.isfinite(value) or abserr > 1e-6 * max(1.0, abs(value)):
        raise ConvergenceError(
            f"saigo_integral_quadrature: estimated error {abserr:.3e} too large"
        )
    return t ** (rho - b - 1.0) / math.gamma(a) * value


def normalization_residual(params: FractionalParams, t: float, n_max: int) -> float:
    """|sum_{n<=n_max} pmf + tail_mass - 1| at one time point."""
    table = pmf_table(params, [t], n_max)
    return abs(_kahan_sum(table.probs[0] + table.tail_mass) - 1.0)


def kolmogorov_tail_bound(
    params: FractionalParams, t: float, n: int, k_trunc: int
) -> float:
    """Size of kolmogorov_residual, in its units: the RHS's unmatched top-order
    term plus a float-evaluation floor, 64 ulp(1) max(1, scale) max(1, |ln x|),
    scale being the total evaluated magnitude.  The |ln x| factor covers the
    log-space rounding: each term is exp of a log-magnitude holding k ln x,
    whose rounding becomes relative error once the LHS multiplies by 1/x.
    It is an estimate, not a bound: at some sstfpp points the residual
    exceeds it by up to 1.27 times."""
    n = _index(n, "state index")
    if not (t > 0.0 and math.isfinite(t)):
        raise ParameterError(f"t must be finite and > 0, got {t!r}")
    x = _series_x(params._terms, params.lam ** params.nu, t, "kolmogorov_tail_bound")
    rows = params._terms.state_rows(n, x, _index(k_trunc, "k_trunc") + 1)
    top = 0.0
    scale = 0.0
    for r in range(n + 1):
        w = abs(_coupling_weight(params, r))
        terms = rows[n - r]
        top += w * abs(terms[-1])
        scale += w * sum(abs(c) for c in terms)
    return top + 64.0 * math.ulp(1.0) * max(scale, 1.0) * max(1.0, abs(math.log(x)))


def pgf_cauchy_residual(
    params: FractionalParams, u: float, k_trunc: int
) -> float:
    """Coefficient-level residual of the generating-function equation.

    The pgf series G = sum_k a_k t^{-k beta} must satisfy
    (Saigo-Caputo derivative of G) = -lam^nu (1-u)^nu G; order by order this
    reads  D-multiplier(-k beta) * a_k = -lam^nu (1-u)^nu * a_{k-1}.
    Returns the worst |lhs - rhs| / max(1, |rhs|) over k = 1 .. k_trunc.
    """
    if not (math.isfinite(u) and abs(u) < 1.0):
        raise ParameterError(f"pgf_cauchy_residual: requires |u| < 1, got {u!r}")
    sp = params.saigo()
    z = params.lam ** params.nu * (1.0 - u) ** params.nu
    # a_k: the pgf's series terms at t = 1, those of state 0 at x = z
    a = params._terms.state_rows(0, z, _index(k_trunc, "k_trunc") + 1)[0]
    worst = 0.0
    for k in range(1, len(a)):
        dmult = saigo_caputo_derivative_power(sp, -k * params.beta).coeff
        lhs = dmult * a[k]
        rhs = -z * a[k - 1]
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def stable_standard(nu: float, rng, size: int):
    """One-sided stable variates A with E[e^{-s A}] = e^{-s^nu} (Kanter/CMS)."""
    import numpy as np

    U = _uniform_open(rng, size) * np.pi
    E = rng.exponential(1.0, size)
    ratio = np.sin(nu * U) / np.sin(U) ** (1.0 / nu)
    return ratio * (np.sin((1.0 - nu) * U) / E) ** ((1.0 - nu) / nu)


def sample_stable(nu: float, t: float, seed, size: int):
    return t ** (1.0 / nu) * stable_standard(nu, _as_rng(seed), size)


def sample_inverse_stable(alpha: float, t: float, seed, size: int):
    a = stable_standard(alpha, _as_rng(seed), size)
    return t ** alpha * a ** (-alpha)


def poisson_counts(rng, lam_eff):
    import numpy as np

    lam_eff = np.minimum(np.nan_to_num(lam_eff, posinf=_LAM_CLAMP), _LAM_CLAMP)
    return rng.poisson(lam_eff)


def sample_process(params: FractionalParams, t: float, seed, size: int):
    """Counts of a simulable variant at t > 0."""
    import numpy as np

    rng = _as_rng(seed)
    variant = params.variant
    if variant == "classical":
        clock = np.full(size, t)
    elif variant == "tfpp":
        clock = sample_inverse_stable(params.alpha, t, rng, size)
    elif variant == "sfpp":
        clock = sample_stable(params.nu, t, rng, size)
    else:  # stfpp: the stable subordinator run at an inverse-stable time
        inner = sample_inverse_stable(params.alpha, t, rng, size)
        clock = inner ** (1.0 / params.nu) * stable_standard(params.nu, rng, size)
    return poisson_counts(rng, params.lam * clock)


def empirical_histogram(params: FractionalParams, t: float, n_samples: int, n_max: int, seed):
    """(counts of states 0..n_max, overflow) of sample_process's draws."""
    import numpy as np

    draws = sample_process(params, t, seed, n_samples)
    overflow = int(np.count_nonzero(draws > n_max))
    clipped = draws[draws <= n_max]
    counts = np.bincount(clipped, minlength=n_max + 1)
    return tuple(int(c) for c in counts), overflow
