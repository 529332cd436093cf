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

Only k ln x in a term depends on the time; the rest of each term is kept in
a :class:`_SeriesTerms` object: ln C_k and ln Gamma(1 - k beta) once per k,
in one per-k store whose ln C_k column grows by its running sum as far as a
row needs, and the sign and ln|f_k| per series key and k.  Each
:class:`FractionalParams` owns one, created on first use, and every entry
point evaluated on it (:func:`pmf`, :func:`pmf_tail_mass`,
:func:`sstfpp_pgf`, :func:`waiting_survival` and :func:`pmf_table`) shares
it, so that work runs once per parameter set.  The
cache lives and dies with the params object (a pickle or copy of it starts
empty); it grows with the set of states, tail cut-offs and the pgf evaluated
on that object, one row each.  Rows are filled in batches, one loop per
kind of series over a run of k.  The k-part of a term, (ln C_k + k ln x) -
ln Gamma(1 - k beta), is the same for every series at one x, so it is kept
for the last x evaluated and shared by the states and the tail of one time.
The cache needs no lock: every fill ends in one slice store of the values
any thread would compute for those slots, and no list a reader holds ever
shrinks (see :class:`_SeriesTerms`).  A term is formed from the same floats
in the same order whether its entries were just filled or read back, so
sharing the cache changes no bit of any result.

Every series stops by one fixed rule (``SERIES_TOL`` and ``TERM_CAP`` in
:mod:`fracpois.specfun`); the only truncation a caller chooses is the
decomposition order ``k_trunc``/``max_k`` of the cross-checks below.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

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
    ck_log_run,
    saigo_caputo_derivative_power,
    saigo_derivative_series,
    saigo_integrate,
)
from .specfun import (
    LOG_HUGE,
    POLE_TOL,
    SERIES_TOL,
    TERM_CAP,
    _kahan_add,
    falling_factorial,
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

    Each instance owns one term cache (``_terms``, a :class:`_SeriesTerms`)
    that the series entry points evaluated on it share.  It is created on
    first use, lives and dies with the instance, and is no part of its
    equality, hash, repr or pickle; ``dataclasses.replace``, ``copy`` and
    unpickling start a fresh one.  It grows with the set of states, tail
    cut-offs and the pgf evaluated on the instance.  It needs no lock,
    because concurrent fills only repeat work and store equal values (see
    :class:`_SeriesTerms`).
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
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ParameterError(
                    f"FractionalParams: {name} must be a finite real number, got {v!r}"
                )
        if self.lam <= 0.0:
            raise ParameterError(f"FractionalParams: lambda must be > 0, got {self.lam}")
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterError(f"FractionalParams: alpha must be in (0, 1], got {self.alpha}")
        if not (0.0 < self.nu <= 1.0):
            raise ParameterError(f"FractionalParams: nu must be in (0, 1], got {self.nu}")
        if self.beta >= 0.0:
            raise ParameterError(f"FractionalParams: beta must be < 0, got {self.beta}")

    @cached_property
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

    @cached_property
    def _terms(self) -> _SeriesTerms:
        return _SeriesTerms(self)

    def __getstate__(self) -> dict[str, object]:
        # the fields alone: a pickle or copy starts without the caches
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _index(value: object, name: str) -> int:
    """value as an int >= 0; anything with __index__ (numpy ints) but bool passes."""
    if isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    try:
        i = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if i < 0:
        raise ParameterError(f"{name} must be >= 0, got {i}")
    return i


def _check_state(t: float, n: int) -> int:
    """Check the time and return the state index n as an int."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ParameterError(f"t must be finite and >= 0, got {t!r}")
    if type(n) is int and n >= 0:  # the common case, without a call
        return n
    return _index(n, "state index")


# Past k_min a series fills its row this many entries at a time: a larger
# chunk pays fewer fill calls, but fills more entries that no term reads.  On the benchmark's lattice-sweep and grid-table decks
# chunks of 4 to 12 ran within 5 % of each other, and 1 or 2 slower.
FILL_CHUNK = 8

# The entry of a term that vanishes: f_k = 0 (a gamma pole, a zero factor).
_NO_TERM = (0.0, -math.inf)


class _SeriesTerms:
    """The time-independent part of every series term of one parameter set.

    Term k of a series is sign_k exp(ln C_k + k ln x - ln Gamma(1 - k beta)
    + ln|f_k| - s).  Three stores hold its parts:

    * ``per_k[k]`` = (ln C_k, ln Gamma(1 - k beta), ln Gamma(k nu + 1)), the
      values no series key changes, the last being the numerator of the
      state factor;
    * ``rows``: one row per series key (state n, ("tail", N), or "pgf"),
      holding flat at row[2k] and row[2k+1] the sign of f_k times (-1)^k
      (0.0 where f_k vanishes) and ln|f_k|;
    * ``kpart`` = (x, its k-part) for the last x evaluated; k-part[k] =
      (ln C_k + k ln x) - ln Gamma(1 - k beta) is the same float for every
      key at one x, so the states and the tail of one time share it.

    A term's log-magnitude is k-part[k] + ln|f_k| - s: the same floats added
    in the same order as forming the whole sum afresh, so a cached term is
    bit-identical to a fresh one.

    Each store grows by batch fills of the entries [start, stop), start
    being the store's length: :meth:`fill` for a key's row (one loop per
    kind of key; the state loop inlines log_abs_gamma's rule for its
    argument k nu + 1 - n), :meth:`fill_kpart` for a k-part and
    :meth:`_per_k_to` for ``per_k``.  The ln C_k column continues the
    running sum of :func:`fracpois.saigo.ck_log_run` from per_k[start - 1],
    so each C_k factor is evaluated once per parameter set, and only as far
    as a row needs; off the sstfpp variant it is 0.0 (beta = -alpha makes
    every factor of the product Gamma(1+g+j a)/Gamma(1+g+j a)).

    One object is the ``_terms`` of one FractionalParams and lives as long as
    it does.  It holds one row per key evaluated on it, each as long as the
    longest series of that key so far, ``per_k`` as long as the longest row
    and one k-part.  Threads share it without a lock.  Every fill ends in
    one slice store, ``store[start:stop] = entries`` (rows by pairs), which
    the GIL makes one atomic step: it appends when no other thread got there
    first and otherwise overwrites the equal values another thread stored
    (an append would put a late duplicate at the wrong k).  The (x, k-part)
    pair is replaced whole and read through a local, so a series fills and
    reads the k-part of its own x.  No list a reader holds ever shrinks: a
    race can only repeat work; it never changes a value.
    """

    def __init__(self, params: FractionalParams) -> None:
        self.beta = params.beta
        self.nu = params.nu
        self.saigo = params.saigo() if params.variant == "sstfpp" else None
        self.per_k: list[tuple[float, float, float]] = []
        self.rows: dict[object, list[float]] = {}
        self.kpart: tuple[float, list[float]] = (0.0, [])  # x = 0 reads no k-part

    def _per_k_to(self, stop: int) -> list[tuple[float, float, float]]:
        """per_k, filled up to k = stop - 1."""
        per_k = self.per_k
        start = len(per_k)
        if start < stop:
            if self.saigo is None:
                lnck = [0.0] * (stop - start)
            else:
                lnck = ck_log_run(self.saigo, start, stop, per_k[start - 1][0] if start else 0.0)
            beta, nu, lgamma = self.beta, self.nu, math.lgamma
            per_k[start:stop] = [(c, lgamma(1.0 - k * beta), lgamma(k * nu + 1.0))
                                 for k, c in enumerate(lnck, start)]
        return per_k

    def fill_kpart(self, kpart: list[float], lx: float, stop: int) -> None:
        """Fill the k-part of x = e^lx up to k = stop - 1."""
        start = len(kpart)
        per_k = self._per_k_to(stop)
        kpart[start:stop] = [lnck + k * lx - lg
                             for k, (lnck, lg, _) in enumerate(per_k[start:stop], start)]

    def fill(self, key: object, row: list[float], stop: int) -> None:
        """Fill key's row up to k = stop - 1."""
        start = len(row) >> 1
        if type(key) is int:
            entries = self._state_entries(key, start, stop)
        elif key == "pgf":  # f_k = 1
            entries = []
            for k in range(start, stop):
                entries += (-1.0 if k & 1 else 1.0, 0.0)
        else:
            entries = self._tail_entries(key[1], start, stop)
        row[2 * start:2 * stop] = entries

    def _state_entries(self, n: int, start: int, stop: int) -> list[float]:
        # f_k = (-1)^n Gamma(k nu + 1) / Gamma(a), a = k nu + 1 - n, zero at
        # the poles of Gamma(a); log_abs_gamma's rule, inlined: Gamma(a) has
        # the sign (-1)^floor(a) for a < 0 and a pole within POLE_TOL of
        # every non-positive integer
        per_k = self._per_k_to(stop)
        nu = self.nu
        lgamma, floor = math.lgamma, math.floor
        entries: list[float] = []
        for k in range(start, stop):
            a = k * nu + 1.0 - n
            if a > 0.0:
                odd = n + k
            elif abs(a - round(a)) <= POLE_TOL:
                entries += _NO_TERM
                continue
            else:
                odd = n + k + floor(a)
            entries += (-1.0 if odd & 1 else 1.0, per_k[k][2] - lgamma(a))
        return entries

    def _tail_entries(self, n_max: int, start: int, stop: int) -> list[float]:
        # f_k = -prod_{i<=N}(i - k nu), the partial binomial sum factor,
        # zero at k = 0 and wherever a factor vanishes
        nu, log = self.nu, math.log
        entries: list[float] = []
        for k in range(start, stop):
            if k == 0:
                entries += _NO_TERM
                continue
            knu = k * nu
            neg, log_p = 0, 0.0
            for i in range(1, n_max + 1):
                f = i - knu
                if f < 0.0:
                    neg += 1
                    f = -f
                elif f == 0.0:
                    entries += _NO_TERM
                    break
                log_p += log(f)
            else:
                # sign -(-1)^neg of f_k, times (-1)^k
                entries += (1.0 if (neg + k) & 1 else -1.0, log_p)
        return entries


def _argument_error(x: float, label: str) -> ConvergenceError:
    """The refusal of a series argument x > ARG_GUARD."""
    return ConvergenceError(
        f"{label}: series argument {x:.6g} exceeds {ARG_GUARD}; "
        "double-precision cancellation would destroy the result"
    )


def _saigo_series(
    terms: _SeriesTerms, key: object, x: float, s: float, k_min: int, label: str
) -> float:
    """sum_k C_k (-x)^k / Gamma(1 - k beta) * f_k / e^s, the one k-series.

    key names the series and so its f_k: state n, ("tail", N) or "pgf" (see
    :meth:`_SeriesTerms.fill`); a zero sign drops the term (gamma poles).
    The loop reads key's row and the k-part of x from terms and fills what
    no earlier series has: the row first to k = k_min, which it always
    reads, then FILL_CHUNK entries at a time, and the k-part as far as any
    row goes.  Terms are formed in log-magnitude/sign form, so huge gamma
    ratios never overflow, and summed with compensation.  The stop requires
    two consecutive terms at most SERIES_TOL * max(1, |partial sum|) past
    k_min: single terms can vanish exactly at gamma poles, but (for nu < 1)
    two consecutive pole zeros are impossible, so a pair of small terms
    really does mean the superexponential decay regime has begun.  x = 0
    (t = 0, or t^(-beta) underflowed) leaves the k = 0 term, and fills
    nothing past it, so it needs no C_k factor.
    """
    if x > ARG_GUARD:
        raise _argument_error(x, label)
    row = terms.rows.get(key)
    if row is None:  # setdefault alone would build a list per call
        row = terms.rows.setdefault(key, [])
    if x == 0.0:
        if not row:
            terms.fill(key, row, 1)
        return row[0] * math.exp(row[1] - s)
    lx = math.log(x)
    pair = terms.kpart
    if pair[0] != x:
        pair = (x, [])
        terms.kpart = pair
    kpart = pair[1]
    exp, huge, tol = math.exp, LOG_HUGE, SERIES_TOL
    filled = min(len(row) >> 1, len(kpart))  # both only grow
    total, comp = 0.0, 0.0
    prev = math.inf
    for k in range(TERM_CAP):
        if k >= filled:
            # the loop reads k = 0 .. max(k, k_min) in any case; a row too
            # short for that grows by a chunk, so that repeating a series
            # fills nothing
            need = max(k, k_min) + 1
            if len(row) < 2 * need:
                terms.fill(key, row, min(max(need, k + FILL_CHUNK), TERM_CAP))
            if len(kpart) < need:
                # as far as any row goes, so that the next series at this x
                # may read on without a C_k factor no row needed
                terms.fill_kpart(kpart, lx, max(len(row) >> 1, len(terms.per_k)))
            filled = min(len(row) >> 1, len(kpart))
        j = 2 * k
        sign = row[j]
        if sign != 0.0:
            logmag = kpart[k] + row[j + 1] - s
            if logmag > huge:
                raise ConvergenceError(f"{label}: series term overflow at k = {k}")
            mag = exp(logmag)
            value = mag if sign > 0.0 else -mag  # sign * mag, exactly
        else:
            value = mag = 0.0
        # _kahan_add inlined: this loop runs once per term of every series
        y = value - comp
        moved = total + y
        comp = (moved - total) - y
        total = moved
        if k >= k_min:
            size = abs(total)  # bound = SERIES_TOL * max(1, size), without the call
            bound = tol * size if size > 1.0 else tol
            if mag <= bound and prev <= bound:
                return total
        prev = mag
    raise ConvergenceError(f"{label}: no convergence within {TERM_CAP} terms")


def poisson_pmf(lam: float, t: float, n: int) -> float:
    """Classical Poisson pmf e^{-lam t} (lam t)^n / n!, in log space."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise ParameterError(f"poisson_pmf: lambda must be finite and > 0, got {lam!r}")
    n = _check_state(t, n)
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    m = lam * t
    return math.exp(n * math.log(m) - m - math.lgamma(n + 1.0))


def _poisson_tail(m: float, n_max: int) -> float:
    """sum_{n > n_max} e^{-m} m^n / n!, summed upward over positive terms.

    m^n / n! is formed as a product of ratios m / j, which keeps it within
    a few ulps where exp of its logarithm would lose the log's absolute
    error; e^{-m} multiplies the sum once.  Past n = 2m each term is at most
    half the one before, so the rest of the sum is below the last term,
    which the loop runs on until it is below a quarter ulp of the sum.
    """
    term = 1.0
    for j in range(1, n_max + 2):
        term *= m / j
    total, comp = 0.0, 0.0
    n = n_max + 1
    while True:
        total, comp = _kahan_add(total, comp, term)
        n += 1
        term *= m / n
        if n >= 2.0 * m and term <= math.ulp(total) / 4.0:
            return math.exp(-m) * total


def _pmf(params: FractionalParams, t: float, n: int) -> float:
    if params.variant == "classical":
        return poisson_pmf(params.lam, t, n)
    n = _check_state(t, n)
    nu = params.nu
    x = params.lam ** nu * t ** (-params.beta)
    return _saigo_series(params._terms, n, x, math.lgamma(n + 1.0), int(n / nu) + 2, "pmf")


def pmf(params: FractionalParams, t: float, n: int) -> float:
    """State probability p_n(t): the Poisson pmf on the classical variant,
    (-1)^n/n! sum_k C_k (-lam^nu t^{-b})^k/G(1-k b) * G(k nu+1)/G(k nu+1-n)
    on every other, with C_k = 1 exactly unless the variant is sstfpp."""
    return _pmf(params, t, n)


def _tail_mass(params: FractionalParams, t: float, n_max: int) -> float:
    _check_state(t, 0)
    n_max = _index(n_max, "pmf_tail_mass: n_max")
    if params.variant == "classical":
        m = params.lam * t
        if m > ARG_GUARD:
            raise _argument_error(m, "pmf_tail_mass")
        return _poisson_tail(m, n_max)
    nu = params.nu
    x = params.lam ** nu * t ** (-params.beta)
    return _saigo_series(params._terms, ("tail", n_max), x, math.lgamma(n_max + 1.0),
                         int(n_max / nu) + 2, "pmf_tail_mass")


def pmf_tail_mass(params: FractionalParams, t: float, n_max: int) -> float:
    """Exact mass above state n_max: sum_{n > n_max} pmf(n, t).

    On the classical variant this is the Poisson tail, summed upward from
    n_max + 1.  On every other, interchanging the (absolutely convergent)
    state and series sums, the partial state sum against each series order
    k is a partial sum of the generalized binomial expansion of (1-1)^{k nu}:

        sum_{n=0}^{N} (k nu)_n (-1)^n / n!  =  - prod_{i=1}^{N} (i - k nu) / N!
                                               + [1 if k = 0]

    so the tail collapses to a single k-series.  This is how the
    space-fractional variants (whose state tails decay like N^{-k nu}) get
    an honest tail figure without summing billions of states.
    """
    return _tail_mass(params, t, n_max)


@dataclass(frozen=True)
class PmfTable:
    """State probabilities over a (time x state) grid with explicit tail mass."""

    params: FractionalParams
    times: tuple[float, ...]
    n_max: int
    probs: tuple[tuple[float, ...], ...]
    tail_mass: tuple[float, ...]


def pmf_table(params: FractionalParams, times: Sequence[float], n_max: int) -> PmfTable:
    """pmf and pmf_tail_mass over times x states, on params' term cache."""
    n_max = _index(n_max, "pmf_table: n_max")
    probs = []
    tails = []
    for t in times:
        probs.append(tuple(_pmf(params, t, n) for n in range(n_max + 1)))
        tails.append(_tail_mass(params, t, n_max))
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
    return _saigo_series(params._terms, "pgf", x, 0.0, 2, "sstfpp_pgf")


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
