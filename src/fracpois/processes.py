"""Closed-form distributions of the fractional Poisson family.

Five variants live on one parameter lattice (lambda, alpha, nu, beta, gamma):

* classical        alpha = nu = 1, beta = -1
* time-fractional  (tfpp)   nu = 1, beta = -alpha
* space-fractional (sfpp)   alpha = 1, beta = -1
* space-time       (stfpp)  beta = -alpha
* Saigo space-time (sstfpp) beta < 0, gamma free

Every series here is one Saigo k-series,

    sum_k C_k (-x)^k / Gamma(1 - k beta) * f_k / e^s,   x = lam^nu t^(-beta),

summed by :func:`_saigo_series` in log-magnitude/sign form so that huge
numerators against huge denominators never overflow, with reciprocal gammas
vanishing at poles.  The state probability takes f_k = (-1)^n
Gamma(k nu + 1)/Gamma(k nu + 1 - n) and s = ln n!; the tail mass and the
generating function take other f_k and s.  On beta = -alpha every C_k is
exactly 1, which yields the tfpp, sfpp and stfpp results; the classical
variant uses the closed-form Poisson pmf.  The space-fractional variants
have power-law state tails, so truncating the state index n at N leaves
mass that cannot be recovered by summing further states at any feasible N;
the tail is instead computed exactly from partial sums of the generalized
binomial series (see :func:`pmf_tail_mass`), which is what makes the
normalization checks meaningful.

Only k ln x in a term depends on the time; the rest of each term (the sign,
ln C_k, ln Gamma(1 - k beta) and ln|f_k|) is kept per series key and k in a
:class:`_SeriesTerms` object.  :func:`pmf_table` shares one across its
times x states grid and its tails, so that work runs once per table; the
single-value entry points build a fresh one per call.  A term is formed
from the same floats in the same order whether its entry was just filled
or read back, so sharing the cache changes no bit of any result.

Every series stops by one fixed rule (``SERIES_TOL`` and ``TERM_CAP`` in
:mod:`fracpois.specfun`); the only truncation a caller chooses is the
decomposition order ``k_trunc``/``max_k`` of the cross-checks below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .adm import (
    PowerSeries,
    PowerTerm,
    adm_solve_linear,
    rl_integrate,
)
from .errors import ConvergenceError, ParameterError
from .saigo import (
    SaigoParams,
    ck_log_coefficients,
    saigo_caputo_derivative_power,
    saigo_derivative_series,
    saigo_integrate,
)
from .specfun import (
    LOG_HUGE,
    SERIES_TOL,
    TERM_CAP,
    _kahan_add,
    falling_factorial,
    log_abs_gamma,
)

# Beyond this value of lambda^nu * t^(-beta) (equivalently lambda t^alpha,
# lambda^nu t) the alternating series cancels away all double-precision
# digits.  Digits are lost well inside it too, at small alpha and large n:
# the guard does not make a returned value accurate.
ARG_GUARD = 30.0

VARIANT_TOL = 1e-12


@dataclass(frozen=True)
class FractionalParams:
    """Parameter tuple (lambda, alpha, nu, beta, gamma) of a process variant.

    ``beta`` defaults to -alpha, which selects the space-time-fractional
    sub-family; ``gamma_p`` only matters when beta != -alpha.
    """

    lam: float
    alpha: float = 1.0
    nu: float = 1.0
    beta: float | None = None
    gamma_p: float = 0.0

    def __post_init__(self) -> None:
        if self.beta is None:
            object.__setattr__(self, "beta", -self.alpha)
        for name in ("lam", "alpha", "nu", "beta", "gamma_p"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ParameterError(f"FractionalParams: {name} must be finite, got {v!r}")
        if self.lam <= 0.0:
            raise ParameterError(f"FractionalParams: lambda must be > 0, got {self.lam}")
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterError(f"FractionalParams: alpha must be in (0, 1], got {self.alpha}")
        if not (0.0 < self.nu <= 1.0):
            raise ParameterError(f"FractionalParams: nu must be in (0, 1], got {self.nu}")
        if self.beta >= 0.0:
            raise ParameterError(f"FractionalParams: beta must be < 0, got {self.beta}")

    @property
    def variant(self) -> str:
        rl = abs(self.beta + self.alpha) <= VARIANT_TOL
        a1 = abs(self.alpha - 1.0) <= VARIANT_TOL
        n1 = abs(self.nu - 1.0) <= VARIANT_TOL
        if rl and a1 and n1:
            return "classical"
        if rl and n1:
            return "tfpp"
        if a1 and abs(self.beta + 1.0) <= VARIANT_TOL:
            return "sfpp"
        if rl:
            return "stfpp"
        return "sstfpp"

    def saigo(self) -> SaigoParams:
        return SaigoParams(self.alpha, self.beta, self.gamma_p)


def _check_state(t: float, n: int) -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ParameterError(f"t must be finite and >= 0, got {t!r}")
    if n < 0:
        raise ParameterError(f"state index must be >= 0, got {n}")


# The first ln C_k build covers k = 0 .. LNCK_FIRST_BUILD, after which the
# table doubles.  On the benchmark's grid-table and lattice-sweep decks half
# or more of the pmf series and every pgf series stop by k = 32, so one
# build serves them where doubling up from one entry takes up to five.
LNCK_FIRST_BUILD = 32


class _SeriesTerms:
    """The time-independent part of every series term of one parameter set.

    Term k of a series is sign_k exp(ln C_k + k ln x - ln Gamma(1 - k beta)
    + ln|f_k| - s): only k ln x depends on the time.  Each series key (state
    n, ("tail", N), or "pgf") owns a row that grows on demand; entry k is
    (sign of f_k times (-1)^k, ln C_k, ln Gamma(1 - k beta), ln|f_k|), or
    None where f_k vanishes at a gamma pole.  A pmf_table shares one object,
    so the factor callables, the gamma functions and the tail's O(N) product
    run once per key and k instead of once per time.  An entry holds the
    same floats as forming term k afresh, and _saigo_series combines them in
    the same order, so a cached term is bit-identical to a fresh one.

    ln C_k is 0.0 off the sstfpp variant (beta = -alpha makes every factor of
    the product Gamma(1+g+j a)/Gamma(1+g+j a)); on sstfpp its table is built
    to LNCK_FIRST_BUILD and then doubled, entry k of the cumulative product
    being the same whatever length it is built to.
    """

    def __init__(self, params: FractionalParams) -> None:
        self.beta = params.beta
        self.saigo = params.saigo() if params.variant == "sstfpp" else None
        self.lnck = [0.0]
        self.rows: dict[object, list[tuple[float, float, float, float] | None]] = {}

    def log_ck(self, k: int) -> float:
        if k >= len(self.lnck):
            if self.saigo is None:
                return 0.0
            k_max = max(2 * len(self.lnck), k + 1, LNCK_FIRST_BUILD)
            self.lnck = ck_log_coefficients(self.saigo, k_max)
        return self.lnck[k]

    def extend(self, row: list, factor: Callable[[int], tuple[float, float]]) -> None:
        """Append entry k = len(row), calling factor(k) for the first time."""
        k = len(row)
        sign, lf = factor(k)
        if sign == 0.0:
            row.append(None)
        else:
            row.append((-sign if k % 2 else sign, self.log_ck(k),
                        math.lgamma(1.0 - k * self.beta), lf))


def _saigo_series(
    terms: _SeriesTerms,
    key: object,
    x: float,
    factor: Callable[[int], tuple[float, float]],
    s: float,
    k_min: int,
    label: str,
) -> float:
    """sum_k C_k (-x)^k / Gamma(1 - k beta) * f_k / e^s, the one k-series.

    factor(k) returns (sign, ln|f_k|) of the caller's k-dependent factor;
    a zero sign drops the term (gamma poles).  It is called only for the
    entries of key's row in terms that no earlier series has filled.  Terms
    are formed in log-magnitude/sign form, so huge gamma ratios never
    overflow, and summed with compensation.  The stop requires two
    consecutive terms at most SERIES_TOL * max(1, |partial sum|) past k_min:
    single terms can vanish exactly at gamma poles, but (for nu < 1) two
    consecutive pole zeros are impossible, so a pair of small terms really
    does mean the superexponential decay regime has begun.  x = 0 (t = 0, or
    t^(-beta) underflowed) leaves the k = 0 term.
    """
    if x > ARG_GUARD:
        raise ConvergenceError(
            f"{label}: series argument {x:.6g} exceeds {ARG_GUARD}; "
            "double-precision cancellation would destroy the result"
        )
    if x == 0.0:
        sign, lf = factor(0)
        return sign * math.exp(lf - s)
    lx = math.log(x)
    row = terms.rows.setdefault(key, [])
    total, comp = 0.0, 0.0
    prev = math.inf
    for k in range(TERM_CAP):
        if k == len(row):
            terms.extend(row, factor)
        entry = row[k]
        if entry is not None:
            sign, lnck, lg, lf = entry
            logmag = lnck + k * lx - lg + lf - s
            if logmag > LOG_HUGE:
                raise ConvergenceError(f"{label}: series term overflow at k = {k}")
            value = sign * math.exp(logmag)
        else:
            value = 0.0
        # _kahan_add inlined: this loop runs once per term of every series
        y = value - comp
        moved = total + y
        comp = (moved - total) - y
        total = moved
        mag = abs(value)
        if k >= k_min:
            bound = SERIES_TOL * max(1.0, abs(total))
            if mag <= bound and prev <= bound:
                return total
        prev = mag
    raise ConvergenceError(f"{label}: no convergence within {TERM_CAP} terms")


def poisson_pmf(lam: float, t: float, n: int) -> float:
    """Classical Poisson pmf e^{-lam t} (lam t)^n / n!, in log space."""
    if lam <= 0.0:
        raise ParameterError(f"poisson_pmf: lambda must be > 0, got {lam}")
    _check_state(t, n)
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    m = lam * t
    return math.exp(n * math.log(m) - m - math.lgamma(n + 1.0))


def _pmf(params: FractionalParams, terms: _SeriesTerms, t: float, n: int) -> float:
    if params.variant == "classical":
        return poisson_pmf(params.lam, t, n)
    _check_state(t, n)
    nu = params.nu
    sign_n = -1.0 if n % 2 else 1.0

    def state_factor(k: int) -> tuple[float, float]:
        # (-1)^n Gamma(k nu + 1) / Gamma(k nu + 1 - n), zero at the poles
        sign, l = log_abs_gamma(k * nu + 1.0 - n)
        if sign == 0.0:
            return 0.0, -math.inf
        return sign_n * sign, math.lgamma(k * nu + 1.0) - l

    x = params.lam ** nu * t ** (-params.beta)
    return _saigo_series(terms, n, x, state_factor, math.lgamma(n + 1.0),
                         int(n / nu) + 2, "pmf")


def pmf(params: FractionalParams, t: float, n: int) -> float:
    """State probability p_n(t): the Poisson pmf on the classical variant,
    (-1)^n/n! sum_k C_k (-lam^nu t^{-b})^k/G(1-k b) * G(k nu+1)/G(k nu+1-n)
    on every other, with C_k = 1 exactly unless the variant is sstfpp."""
    return _pmf(params, _SeriesTerms(params), t, n)


def _tail_mass(params: FractionalParams, terms: _SeriesTerms, t: float, n_max: int) -> float:
    _check_state(t, 0)
    if n_max < 0:
        raise ParameterError(f"pmf_tail_mass: n_max must be >= 0, got {n_max}")
    nu = params.nu

    def binomial_factor(k: int) -> tuple[float, float]:
        # The partial binomial sum factor -prod_{i<=N}(i - k nu), zero at k = 0.
        if k == 0:
            return 0.0, -math.inf
        sign_p, log_p = 1.0, 0.0
        knu = k * nu
        for i in range(1, n_max + 1):
            f = i - knu
            if f == 0.0:
                return 0.0, -math.inf
            if f < 0.0:
                sign_p = -sign_p
                f = -f
            log_p += math.log(f)
        return -sign_p, log_p

    x = params.lam ** nu * t ** (-params.beta)
    return _saigo_series(terms, ("tail", n_max), x, binomial_factor,
                         math.lgamma(n_max + 1.0), int(n_max / nu) + 2, "pmf_tail_mass")


def pmf_tail_mass(params: FractionalParams, t: float, n_max: int) -> float:
    """Exact mass above state n_max: sum_{n > n_max} pmf(n, t).

    Interchanging the (absolutely convergent) state and series sums, the
    partial state sum against each series order k is a partial sum of the
    generalized binomial expansion of (1-1)^{k nu}:

        sum_{n=0}^{N} (k nu)_n (-1)^n / n!  =  - prod_{i=1}^{N} (i - k nu) / N!
                                               + [1 if k = 0]

    so the tail collapses to a single k-series.  This is how the
    space-fractional variants (whose state tails decay like N^{-k nu}) get
    an honest tail figure without summing billions of states.
    """
    return _tail_mass(params, _SeriesTerms(params), t, n_max)


@dataclass(frozen=True)
class PmfTable:
    """State probabilities over a (time x state) grid with explicit tail mass."""

    params: FractionalParams
    times: tuple[float, ...]
    n_max: int
    probs: tuple[tuple[float, ...], ...]
    tail_mass: tuple[float, ...]


def pmf_table(params: FractionalParams, times: Sequence[float], n_max: int) -> PmfTable:
    """pmf and pmf_tail_mass over times x states, sharing one term cache."""
    terms = _SeriesTerms(params)
    probs = []
    tails = []
    for t in times:
        probs.append(tuple(_pmf(params, terms, t, n) for n in range(n_max + 1)))
        tails.append(_tail_mass(params, terms, t, n_max))
    return PmfTable(params, tuple(times), n_max, tuple(probs), tuple(tails))


def normalization_residual(params: FractionalParams, t: float, n_max: int) -> float:
    """|sum_{n<=n_max} pmf + tail_mass - 1| at one time point."""
    table = pmf_table(params, [t], n_max)
    total, comp = 0.0, 0.0
    for p in table.probs[0] + table.tail_mass:
        total, comp = _kahan_add(total, comp, p)
    return abs(total - 1.0)


def truncated_normalization_residual(
    params: FractionalParams, t: float, n_max: int, max_k: int
) -> float:
    """|row sum + tail - 1| with the row sum hard-truncated at order max_k.

    The tail is the fully-converged collapsed series; truncating it at the
    same order as the states would telescope exactly (the interchange
    identity holds order-by-order) and hide any truncation error.  Pairing
    the truncated rows with the exact tail makes an inadequate max_k show
    up as a normalization failure.  This is the route the CLI's verify
    command uses.
    """
    _check_state(t, 0)
    if t == 0.0:
        return 0.0
    total, comp = 0.0, 0.0
    for n in range(n_max + 1):
        total, comp = _kahan_add(total, comp, state_series(params, n, max_k).evaluate(t))
    total, comp = _kahan_add(total, comp, pmf_tail_mass(params, t, n_max))
    return abs(total - 1.0)


def composition_tuples_residual(params: FractionalParams) -> float:
    """Worst composition-identity residual over a small deterministic grid
    built from the process's own Saigo parameters."""
    from .saigo import composition_check

    sp = params.saigo()
    return max(
        composition_check(sp, rho, t)
        for rho in (0.8, 1.0, 1.7, 2.5)
        for t in (0.5, 1.0, 2.0)
    )


def sstfpp_pgf(params: FractionalParams, u: float, t: float) -> float:
    """Probability generating function sum_k C_k (-lam^nu (1-u)^nu t^{-b})^k / G(1-k b)."""
    if not (math.isfinite(u) and abs(u) < 1.0):
        raise ParameterError(f"sstfpp_pgf: requires |u| < 1, got {u!r}")
    _check_state(t, 0)
    nu = params.nu
    x = params.lam ** nu * (1.0 - u) ** nu * t ** (-params.beta)
    return _saigo_series(_SeriesTerms(params), "pgf", x, lambda k: (1.0, 0.0), 0.0, 2,
                         "sstfpp_pgf")


def waiting_survival(params: FractionalParams, t: float) -> float:
    """Pr{first event after t}; identical to the n = 0 state probability."""
    return pmf(params, t, 0)


# ---------------------------------------------------------------------------
# Decomposition cross-checks: closed-form iterate coefficients, the governing
# difference-differential equation, and the generating-function equation.
# ---------------------------------------------------------------------------


def closed_iterate_coefficient(
    params: FractionalParams, logck: Sequence[float], n: int, k: int
) -> float:
    """Coefficient of t^{-k beta} in the k-th decomposition iterate of state n:

        (-1)^n / n! * (k nu)_n * C_k * (-lam^nu)^k / Gamma(1 - k beta).
    """
    ff = falling_factorial(k * params.nu, n)
    if ff == 0.0:
        return 0.0
    logmag = (
        logck[k]
        + k * params.nu * math.log(params.lam)
        - math.lgamma(1.0 - k * params.beta)
        - math.lgamma(n + 1.0)
    )
    sign = -1.0 if (n + k) % 2 else 1.0
    return sign * ff * math.exp(logmag)


def state_series(
    params: FractionalParams, n: int, k_trunc: int
) -> PowerSeries:
    """Truncated power series sum_{k<=k_trunc} c_{n,k} t^{-k beta} for state n."""
    logck = ck_log_coefficients(params.saigo(), k_trunc)
    terms = []
    for k in range(k_trunc + 1):
        c = closed_iterate_coefficient(params, logck, n, k)
        if c != 0.0:
            terms.append(PowerTerm(c, -k * params.beta))
    return PowerSeries(terms)


def _coupling_weight(params: FractionalParams, r: int) -> float:
    """-lam^nu (-1)^r (nu)_r / r!, the fractional-difference coupling to state n-r."""
    w = falling_factorial(params.nu, r) / math.factorial(r)
    return -(params.lam ** params.nu) * (-w if r % 2 else w)


def kolmogorov_residual(params: FractionalParams, t: float, n: int, k_trunc: int) -> float:
    """Residual of the governing equation on truncated series at time t.

    LHS: the Caputo-type Saigo derivative applied term-wise to state n's
    series.  RHS: the fractional-difference coupling of states n-r.  On
    truncated series the two sides agree except for the RHS's top order,
    so the residual is a pure truncation quantity, bounded by
    :func:`kolmogorov_tail_bound`.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ParameterError(f"kolmogorov_residual: t must be > 0, got {t!r}")
    series = [state_series(params, m, k_trunc) for m in range(n + 1)]
    lhs = saigo_derivative_series(params.saigo(), series[n]).evaluate(t)
    rhs, comp = 0.0, 0.0
    for r in range(n + 1):
        rhs, comp = _kahan_add(rhs, comp, _coupling_weight(params, r) * series[n - r].evaluate(t))
    return abs(lhs - rhs)


def kolmogorov_tail_bound(
    params: FractionalParams, t: float, n: int, k_trunc: int
) -> float:
    """Bound on the residual: the RHS's unmatched top-order term plus a
    float-evaluation floor proportional to the total evaluated magnitude."""
    logck = ck_log_coefficients(params.saigo(), k_trunc)
    top = 0.0
    scale = 0.0
    for r in range(n + 1):
        w = abs(_coupling_weight(params, r))
        top += w * abs(closed_iterate_coefficient(params, logck, n - r, k_trunc))
        for k in range(k_trunc + 1):
            c = closed_iterate_coefficient(params, logck, n - r, k)
            scale += w * abs(c) * t ** (-k * params.beta)
    eps = math.ulp(1.0)
    return top * t ** (-k_trunc * params.beta) + 64.0 * eps * max(scale, 1.0)


def adm_closed_form_diff(params: FractionalParams, n_max: int, k_trunc: int) -> float:
    """Run the decomposition engine and compare every iterate coefficient
    against the closed-form term; returns the worst normalized discrepancy.

    The engine route applies the fractional integral operator k times
    (Riemann-Liouville when beta = -alpha, the Saigo integral otherwise),
    so it shares no arithmetic with the closed-form coefficients.
    """
    if abs(params.beta + params.alpha) <= VARIANT_TOL:
        integral_op = lambda s: rl_integrate(s, params.alpha)
    else:
        sp = params.saigo()
        integral_op = lambda s: saigo_integrate(sp, s)
    state = adm_solve_linear(
        integral_op,
        lambda n, r: _coupling_weight(params, r),
        [1.0 if n == 0 else 0.0 for n in range(n_max + 1)],
        n_max,
        k_trunc,
    )
    logck = ck_log_coefficients(params.saigo(), k_trunc)
    worst = 0.0
    for n in range(n_max + 1):
        for k in range(k_trunc + 1):
            closed = closed_iterate_coefficient(params, logck, n, k)
            it = state.iterates[n][k]
            if len(it) == 0:
                got = 0.0
            elif len(it) == 1:
                term = it.terms[0]
                if abs(term.exponent - (-k * params.beta)) > 1e-9:
                    raise ConvergenceError(
                        f"adm_closed_form_diff: iterate (n={n}, k={k}) has exponent "
                        f"{term.exponent}, expected {-k * params.beta}"
                    )
                got = term.coeff
            else:
                raise ConvergenceError(
                    f"adm_closed_form_diff: iterate (n={n}, k={k}) is not a monomial"
                )
            diff = abs(got - closed) / max(1.0, abs(closed))
            worst = max(worst, diff)
    return worst


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
    logck = ck_log_coefficients(sp, k_trunc)
    z = params.lam ** params.nu * (1.0 - u) ** params.nu
    lz = math.log(z)

    def a(k: int) -> float:
        sign = -1.0 if k % 2 else 1.0
        return sign * math.exp(logck[k] + k * lz - math.lgamma(1.0 - k * params.beta))

    worst = 0.0
    for k in range(1, k_trunc + 1):
        dmult = saigo_caputo_derivative_power(sp, -k * params.beta).coeff
        lhs = dmult * a(k)
        rhs = -z * a(k - 1)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst
