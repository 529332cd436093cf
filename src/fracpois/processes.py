"""Closed-form distributions of the fractional Poisson family.

Five variants live on one parameter lattice (lambda, alpha, nu, beta, gamma):

* classical        alpha = nu = 1, beta = -1
* time-fractional  (tfpp)   nu = 1, beta = -alpha
* space-fractional (sfpp)   alpha = 1, beta = -1
* space-time       (stfpp)  beta = -alpha
* Saigo space-time (sstfpp) beta < 0, gamma free

Every series here is one Saigo k-series,

    sum_k C_k (-x)^k / Gamma(1 - k beta) * f_k / e^s,   x = lam^nu t^(-beta),

summed by :func:`_saigo_series` at the x :func:`_series_x` forms, in
log-magnitude/sign form so that huge numerators against huge denominators
never overflow, with reciprocal gammas vanishing at poles.  The state
probability takes f_k = (-1)^n Gamma(k nu + 1)/Gamma(k nu + 1 - n) and
s = ln n!; the tail mass takes other f_k and s, and the generating function
is the n = 0 series at x = lam^nu (1-u)^nu t^(-beta).  The decomposition
cross-checks below read the kernel's own terms at the kernel's own x,
unsummed (:meth:`_SeriesTerms.state_rows`): term k of state n at t is the
k-th iterate c_{n,k} t^{-k beta}.  On beta = -alpha every C_k is
exactly 1, which yields the tfpp, sfpp and stfpp results; the classical
variant uses the closed-form Poisson pmf, tail and pgf.  The
space-fractional variants have power-law state tails, so truncating the
state index n at N leaves mass that cannot be recovered by summing further
states at any feasible N; the tail is instead computed exactly from partial
sums of the generalized binomial series (see :func:`pmf_tail_mass`), which
is what makes the normalization checks meaningful.

Only k ln x in a term depends on the time; the rest of each term is kept in
a :class:`_SeriesTerms` object: ln C_k and ln Gamma(1 - k beta) once per k,
in one per-k store whose ln C_k column grows by its running sum, a block at
a time, as far as a row needs, and per series key its s, k_min and row of
sign and ln|f_k|.  Each :class:`FractionalParams` owns one, created on
first use, and every entry point evaluated on it (:func:`pmf`,
:func:`pmf_tail_mass`, :func:`sstfpp_pgf`, :func:`waiting_survival` and
:func:`pmf_table`) shares it, so that work runs once per parameter set.
The cache lives and dies with the params object (a pickle or copy of it
starts empty); it grows with the set of states and tail cut-offs evaluated
on that object, one row each, by one rule (:meth:`_SeriesTerms.grow`).
The k-part of a term, (ln C_k + k ln x) - ln Gamma(1 - k beta), is the same
for every series at one x, so it is kept for the last x evaluated and shared
by the states, the tail and the checks of one time.  :func:`pmf_table`
forms x once per time and calls the sum step for each state and the tail.
The cache needs no lock: every fill ends in one slice store of the values
any thread would compute for those slots, and no list a reader holds ever
shrinks (see :class:`_SeriesTerms`).  A term is formed from the same floats
in the same order whether its entries were just filled or read back, so
sharing the cache changes no bit of any result.

Every series stops by one fixed rule (``SERIES_TOL`` and ``TERM_CAP`` in
:mod:`fracpois.specfun`) and is refused by one measured rule, its rounding
bound against ``ROUNDING_TOL``.  The decomposition order a state needs in
the cross-checks below is the k its series stopped at (:func:`_state_series`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable

from .adm import adm_solve_linear
from .errors import ConvergenceError, ParameterError
from .saigo import (
    SaigoParams,
    ck_log_coefficients,
    composition_check,
    saigo_caputo_derivative_power,
    saigo_integral_power,
)
from .specfun import (
    HUGE,
    LOG_HUGE,
    POLE_TOL,
    ROUNDING_TOL,
    SERIES_TOL,
    TERM_CAP,
    _ROUNDING_GATE,
    _kahan_add,
    falling_factorial,
)

VARIANT_TOL = 1e-12


@dataclass(frozen=True)
class FractionalParams:
    """Parameter tuple (lambda, alpha, nu, beta, gamma) of a process variant.

    ``beta`` defaults to -alpha, which selects the space-time-fractional
    sub-family; ``gamma_p`` only matters when beta != -alpha, and there it
    must keep 1 + gamma - beta and 1 + gamma + alpha, the smallest gamma
    arguments of C_k, positive.

    Each instance owns one term cache (``_terms``, a :class:`_SeriesTerms`)
    that the series entry points and checks evaluated on it share.  It is
    created on first use, lives and dies with the instance, and is no part
    of its equality, hash, repr or pickle; ``dataclasses.replace``, ``copy``
    and unpickling start a fresh one.  It needs no lock (see
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
        if self.variant == "sstfpp":
            # the j = 1 factor of C_k holds its smallest gamma arguments
            num = 1.0 + self.gamma_p - self.beta
            den = 1.0 + self.gamma_p + self.alpha
            if num <= 0.0 or den <= 0.0:
                raise ParameterError(
                    f"FractionalParams: gamma_p = {self.gamma_p} makes a C_k gamma argument "
                    f"<= 0 (1 + gamma - beta = {num}, 1 + gamma + alpha = {den})"
                )

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


# A row too short for a series grows by at least this many entries, and
# per_k (so ln C_k) in whole blocks of it: a larger chunk pays fewer growth
# calls, but fills more entries that no term reads.  On the benchmark's
# lattice-sweep and grid-table decks chunks of 4 to 12 ran within 5 % of
# each other, and 1 or 2 slower.
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
    * ``rows``: one record (row, s, k_min) per series key, made by
      :meth:`record` when the key is first used; the row holds flat at
      row[2k] and row[2k+1] the sign of f_k times (-1)^k (0.0 where f_k
      vanishes) and ln|f_k|;
    * ``kpart`` = (x, its k-part) for the last x evaluated, the one k-part
      store; k-part[k] = (ln C_k + k ln x) - ln Gamma(1 - k beta) is the
      same float for every key at one x, so the states, the tail and the
      checks of one time share it.

    A term's log-magnitude is k-part[k] + ln|f_k| - s: the same floats added
    in the same order as forming the whole sum afresh, so a cached term is
    bit-identical to a fresh one.

    The stores grow only in :meth:`grow`, each by a batch fill of the
    entries [start, stop), start being the store's length, by one rule: a
    row too short for a series grows by at least FILL_CHUNK entries (one
    loop per kind of key; the state loop inlines log_abs_gamma's rule for
    its argument k nu + 1 - n), ``per_k`` to the whole FILL_CHUNK block that
    covers the row, and x's k-part as far as ``per_k`` goes.  The ln C_k
    column continues the running sum of
    :func:`fracpois.saigo.ck_log_coefficients` from per_k[start - 1], so
    each C_k factor is evaluated once per parameter set, at most a block
    past the longest row; off the sstfpp variant it is 0.0 (beta = -alpha
    makes every factor of the product Gamma(1+g+j a)/Gamma(1+g+j a)).

    One object is the ``_terms`` of one FractionalParams and lives as long as
    it does.  It holds one row per key evaluated on it, each as long as the
    longest series of that key so far, ``per_k`` to the block that covers
    the longest row, and one k-part.  Threads share it without a lock.
    Every fill ends in one slice store, ``store[start:stop] = entries``
    (rows by pairs), which the GIL makes one atomic step: it appends when no
    other thread got there first and otherwise overwrites the equal values
    another thread stored (an append would put a late duplicate at the wrong
    k).  A record is stored by setdefault, so every thread reads the first
    one made for its key.  The (x, k-part) pair is replaced whole, and :meth:`grow` returns
    the k-part list it filled, so a series reads the k-part of its own x.
    No list a reader holds ever shrinks: a race can only repeat work; it
    never changes a value.
    """

    def __init__(self, params: FractionalParams) -> None:
        self.beta = params.beta
        self.nu = params.nu
        self.saigo = params.saigo() if params.variant == "sstfpp" else None
        self.per_k: list[tuple[float, float, float]] = []
        self.rows: dict[object, tuple[list[float], float, int]] = {}
        self.kpart: tuple[float, list[float]] = (0.0, [])  # x = 0 reads no k-part

    def record(self, key: object) -> tuple[list[float], float, int]:
        """key's (row, s, k_min), made on first use: s = ln n! and
        k_min = floor(n / nu) + 2, n being state key or the tail's N (the tail
        takes state N's s and k_min, the pgf is state 0's series)."""
        n = key if type(key) is int else key[1]
        return self.rows.setdefault(key, ([], math.lgamma(n + 1.0), int(n / self.nu) + 2))

    def grow(self, key: object, row: list[float], x: float, need: int) -> list[float]:
        """Grow key's row to at least need entries, and per_k and x's k-part
        with it (see the class); return the k-part of x, begun afresh at a new
        x ([] at x = 0).  Chunk and block stop at TERM_CAP; only a need past it
        (a check's) grows a row further."""
        start = len(row) >> 1
        if start < need:
            stop = max(need, min(start + FILL_CHUNK, TERM_CAP))
            per_k = self.per_k
            have = len(per_k)
            top = max(stop, min(-(-stop // FILL_CHUNK) * FILL_CHUNK, TERM_CAP))
            if have < top:
                if self.saigo is None:
                    lnck = [0.0] * (top - have)
                else:
                    lnck = ck_log_coefficients(self.saigo, have, top,
                                               per_k[have - 1][0] if have else 0.0)
                beta, nu, lgamma = self.beta, self.nu, math.lgamma
                per_k[have:top] = [(c, lgamma(1.0 - k * beta), lgamma(k * nu + 1.0))
                                   for k, c in enumerate(lnck, have)]
            if type(key) is int:
                entries = self._state_entries(key, start, stop)
            else:
                entries = self._tail_entries(key[1], start, stop)
            row[2 * start:2 * stop] = entries
        if x == 0.0:
            return []
        pair = self.kpart
        if pair[0] != x:
            pair = (x, [])
            self.kpart = pair
        kpart, per_k = pair[1], self.per_k
        start, stop = len(kpart), len(per_k)
        if start < stop:
            lx = math.log(x)
            kpart[start:stop] = [lnck + k * lx - lg
                                 for k, (lnck, lg, _) in enumerate(per_k[start:stop], start)]
        return kpart

    def state_rows(self, n_max: int, x: float, stop: int) -> list[list[float]]:
        """The terms k < stop of the series of states 0 .. n_max at x > 0,
        unsummed, one row per state, read against the shared k-part: the floats
        :func:`_saigo_series` adds at x (a vanishing term's ln|f_k| is -inf, so
        it is 0.0); a term past LOG_HUGE raises ConvergenceError, as there."""
        rows: list[list[float]] = []
        for n in range(n_max + 1):
            row, s, _ = self.record(n)
            kpart = self.grow(n, row, x, stop)
            out: list[float] = []
            for k, part in enumerate(kpart[:stop]):
                logmag = part + row[2 * k + 1] - s
                if logmag > LOG_HUGE:
                    raise ConvergenceError(f"series coefficient overflow at k = {k}")
                out.append(row[2 * k] * math.exp(logmag))
            rows.append(out)
        return rows

    def _state_entries(self, n: int, start: int, stop: int) -> list[float]:
        # f_k = (-1)^n Gamma(k nu + 1) / Gamma(a), a = k nu + 1 - n, zero at
        # the poles of Gamma(a); log_abs_gamma's rule, inlined: Gamma(a) has
        # the sign (-1)^floor(a) for a < 0 and a pole within POLE_TOL of
        # every non-positive integer
        per_k, nu = self.per_k, self.nu
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


def _series_x(terms: _SeriesTerms, scale: float, t: float, label: str) -> float:
    """The argument x = scale * t^(-beta) of every series at t; refused if it overflows."""
    try:
        x = scale * t ** (-terms.beta)
    except OverflowError:  # float pow raises where a product gives inf
        x = math.inf
    if not x < math.inf:  # inf, or nan from inf * 0
        raise ConvergenceError(f"{label}: series argument overflows at t = {t!r}")
    return x


def _saigo_series(terms: _SeriesTerms, key: object, x: float, label: str) -> tuple[float, int]:
    """sum_k C_k (-x)^k / Gamma(1 - k beta) * f_k / e^s, the one k-series at
    x (see :func:`_series_x`), and the k it stopped at.

    key names the series and so its f_k, s and k_min: state n or ("tail", N)
    (see :meth:`_SeriesTerms.record`); a vanished entry (0.0, -inf) adds 0.0
    (gamma poles).
    The loop reads key's row and the k-part of x from terms; where either
    runs out, one :meth:`_SeriesTerms.grow` call extends them past k_min,
    which the loop always reads, or past the next term, never past
    TERM_CAP.  Terms are formed in log-magnitude/sign form, so huge gamma
    ratios never overflow, and summed with compensation.  The stop requires
    two consecutive terms at most SERIES_TOL * max(1, |partial sum|) past
    k_min: single terms can vanish exactly at gamma poles, but (for nu < 1)
    two consecutive pole zeros are impossible, so a pair of small terms
    really does mean the superexponential decay regime has begun.  A sum is
    refused at the term where its rounding bound eps * err first exceeds
    ROUNDING_TOL, err being sum |term| (1 + ln|term|) over the terms above 1
    (Higham 2002, ch. 4; TERM_CAP terms below 1 would add at most 2.2e-12);
    the bound only grows, so a sum that stops has passed it.  x = 0 (t = 0,
    or t^(-beta) underflowed) leaves the k = 0 term and stops at k = 0; its
    row grows by one chunk, which may form ln C_k, as FractionalParams
    refuses every gamma that would make a C_k factor inadmissible.
    """
    row, s, k_min = terms.rows.get(key) or terms.record(key)  # record alone forms one per call
    if x == 0.0:
        if not row:
            terms.grow(key, row, 0.0, 1)
        return row[0] * math.exp(row[1] - s), 0
    pair = terms.kpart
    kpart = pair[1] if pair[0] == x else []  # another x's: grow below begins x's
    exp, huge, tol, gate = math.exp, LOG_HUGE, SERIES_TOL, _ROUNDING_GATE
    total, comp, err = 0.0, 0.0, 0.0
    prev = math.inf
    k = 0
    while k < TERM_CAP:
        end = min(len(row) >> 1, len(kpart), TERM_CAP)  # a check's row may run past it
        for k in range(k, end):
            j = 2 * k
            logmag = kpart[k] + row[j + 1] - s
            if logmag > 0.0:
                if logmag > huge:
                    raise ConvergenceError(f"{label}: series term overflow at k = {k}")
                mag = exp(logmag)
                err += mag * (1.0 + logmag)
                if err > gate:  # err only grows: refuse at the term it passes
                    bound, digits = math.ulp(1.0) * err, 3  # > ROUNDING_TOL, exactly
                    while float(f"{bound:.{digits}g}") <= ROUNDING_TOL:  # ends by 17
                        digits += 1
                    raise ConvergenceError(f"{label}: rounding error bound "
                                           f"{bound:.{digits}g} exceeds {ROUNDING_TOL:g}")
            else:
                mag = exp(logmag)  # 0.0 where the term vanishes
            # sign * mag, exactly; _kahan_add inlined: this loop runs once
            # per term of every series
            y = row[j] * mag - comp
            moved = total + y
            comp = (moved - total) - y
            total = moved
            if k >= k_min:
                size = abs(total)  # bound = SERIES_TOL * max(1, size), without the call
                bound = tol * size if size > 1.0 else tol
                if mag <= bound and prev <= bound:
                    return total, k
            prev = mag
        k = end
        # the loop reads k = 0 .. max(k, k_min) in any case, and no further
        # than TERM_CAP
        kpart = terms.grow(key, row, x, min(max(k, k_min) + 1, TERM_CAP))
    raise ConvergenceError(f"{label}: no convergence within {TERM_CAP} terms")


def poisson_pmf(lam: float, t: float, n: int) -> float:
    """Classical Poisson pmf e^{-lam t} (lam t)^n / n!, in log space."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise ParameterError(f"poisson_pmf: lambda must be finite and > 0, got {lam!r}")
    n = _check_state(t, n)
    m = lam * t
    if m == 0.0:  # t = 0, or lam t underflowed: e^-m m^n / n! rounds to [n = 0]
        return 1.0 if n == 0 else 0.0
    if m == math.inf:  # e^-m underflowed long before; 0 ln(inf) would be nan
        return 0.0
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


def _state_series(params: FractionalParams, t: float, n: int, label: str) -> tuple[float, int]:
    """State n's k-series at t on every variant: its sum and the k it stopped at."""
    n = _check_state(t, n)
    terms = params._terms
    return _saigo_series(terms, n, _series_x(terms, params.lam ** params.nu, t, label), label)


def _pmf(params: FractionalParams, t: float, n: int, label: str = "pmf") -> float:
    if params.variant == "classical":
        return poisson_pmf(params.lam, t, n)
    return _state_series(params, t, n, label)[0]


def pmf(params: FractionalParams, t: float, n: int) -> float:
    """State probability p_n(t): the Poisson pmf on the classical variant,
    (-1)^n/n! sum_k C_k (-lam^nu t^{-b})^k/G(1-k b) * G(k nu+1)/G(k nu+1-n)
    on every other, with C_k = 1 exactly unless the variant is sstfpp."""
    return _pmf(params, t, n)


def _tail_mass(params: FractionalParams, t: float, n_max: int) -> float:
    _check_state(t, 0)
    n_max = _index(n_max, "pmf_tail_mass: n_max")
    if params.variant == "classical":
        # The upward sum cancels nothing, but its terms reach about e^m,
        # which nears overflow past LOG_HUGE; its rounding may pass 1.
        m = params.lam * t
        if m > LOG_HUGE:
            raise ConvergenceError(
                f"pmf_tail_mass: Poisson mean {m:.6g} exceeds {LOG_HUGE:.6g}; "
                "the tail's terms would overflow"
            )
        return min(1.0, _poisson_tail(m, n_max))
    terms, label = params._terms, "pmf_tail_mass"
    x = _series_x(terms, params.lam ** params.nu, t, label)
    return _saigo_series(terms, ("tail", n_max), x, label)[0]


def pmf_tail_mass(params: FractionalParams, t: float, n_max: int) -> float:
    """Exact mass above state n_max: sum_{n > n_max} pmf(n, t).

    On the classical variant this is the Poisson tail, summed upward from
    n_max + 1 and clamped to 1.  On every other, interchanging the
    (absolutely convergent) state and series sums, the partial state sum
    against each series order k is a partial sum of the generalized
    binomial expansion of (1-1)^{k nu}:

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


def pmf_table(params: FractionalParams, times: Iterable[float], n_max: int) -> PmfTable:
    """pmf and pmf_tail_mass over times x states, on params' term cache: their
    floats, and their first refusal, time by time and the states before the tail."""
    n_max = _index(n_max, "pmf_table: n_max")
    times = tuple(times)  # read once: an iterator would leave PmfTable.times empty
    probs = []
    tails = []
    if params.variant == "classical":
        for t in times:
            probs.append(tuple(poisson_pmf(params.lam, t, n) for n in range(n_max + 1)))
            tails.append(_tail_mass(params, t, n_max))
    else:
        terms, scale, tail_key = params._terms, params.lam ** params.nu, ("tail", n_max)
        for t in times:
            _check_state(t, 0)
            x = _series_x(terms, scale, t, "pmf")
            probs.append(tuple(_saigo_series(terms, n, x, "pmf")[0] for n in range(n_max + 1)))
            tails.append(_saigo_series(terms, tail_key, x, "pmf_tail_mass")[0])
    return PmfTable(params, times, n_max, tuple(probs), tuple(tails))


def _kahan_sum(values: Iterable[float]) -> float:
    """The compensated sum of values, in their order."""
    total, comp = 0.0, 0.0
    for v in values:
        total, comp = _kahan_add(total, comp, v)
    return total


def truncated_normalization_residual(
    params: FractionalParams, t: float, n_max: int, max_k: int
) -> float:
    """|row sum + tail - 1| with the row sum hard-truncated at order max_k.

    The tail is the fully-converged collapsed series; truncating it at the
    same order as the states would telescope exactly (the interchange
    identity holds order-by-order) and hide any truncation error.  Pairing
    the truncated rows with the exact tail makes an inadequate max_k show
    up as a normalization failure.  The CLI's verify command takes this
    route at the largest order the states' series stopped at.  At x = 0 (t =
    0, or x underflowed) the series keep only p_0 = 1: the residual is 0.
    """
    _check_state(t, 0)
    n_max, max_k = _index(n_max, "n_max"), _index(max_k, "max_k")
    x = _series_x(params._terms, params.lam ** params.nu, t, "truncated_normalization_residual")
    if x == 0.0:
        return 0.0
    rows = params._terms.state_rows(n_max, x, max_k + 1)
    terms = [c for row in rows for c in row]
    terms.append(pmf_tail_mass(params, t, n_max))
    return abs(_kahan_sum(terms) - 1.0)


def composition_tuples_residual(params: FractionalParams) -> float:
    """Worst composition-identity residual on the process's own Saigo
    parameters over its series terms' powers t^rho, rho = -k beta, k = 1..10,
    at t = 1 (t scales it by t^rho).  FractionalParams keeps each rho in the
    operators' domain: 1 + alpha + gamma - (k-1) beta > 0 for the derivative's
    inner integral and 1 + gamma - k beta > 0 for the outer one."""
    sp, beta = params.saigo(), params.beta
    return max(composition_check(sp, -k * beta, 1.0) for k in range(1, 11))


def sstfpp_pgf(params: FractionalParams, u: float, t: float) -> float:
    """Probability generating function sum_k C_k (-lam^nu (1-u)^nu t^{-b})^k / G(1-k b),
    and e^{-lam (1-u) t} on the classical variant."""
    if not (math.isfinite(u) and abs(u) < 1.0):
        raise ParameterError(f"sstfpp_pgf: requires |u| < 1, got {u!r}")
    _check_state(t, 0)
    if params.variant == "classical":
        # lam t first: at u = 0 this is poisson_pmf's p_0(t), bit for bit,
        # and 0.0 where lam t overflows
        return math.exp(-(params.lam * t * (1.0 - u)))
    terms, nu, label = params._terms, params.nu, "sstfpp_pgf"
    x = _series_x(terms, params.lam ** nu * (1.0 - u) ** nu, t, label)
    return _saigo_series(terms, 0, x, label)[0]


def waiting_survival(params: FractionalParams, t: float) -> float:
    """Pr{first event after t}; identical to the n = 0 state probability."""
    return _pmf(params, t, 0, "waiting_survival")


# ---------------------------------------------------------------------------
# Decomposition cross-checks: closed-form iterate coefficients and the
# governing difference-differential equation.
# ---------------------------------------------------------------------------


def _coupling_weight(params: FractionalParams, r: int) -> float:
    """(-1)^(r+1) (nu)_r / r!, the coupling to state n-r of the governing
    equation divided by lam^nu: the checks see lam only through x."""
    w = falling_factorial(params.nu, r) / math.factorial(r)
    return w if r % 2 else -w


def kolmogorov_residual(params: FractionalParams, t: float, n: int, k_trunc: int) -> float:
    """Residual of the governing equation over lam^nu on truncated series at
    time t: like the series it checks, a function of x = lam^nu t^(-beta).

    LHS: the Caputo-type Saigo derivative applied term-wise to state n's
    series; it maps term k, c t^{-k beta}, to D(-k beta) c t^{-(k-1) beta},
    over lam^nu D(-k beta) c / x, and annihilates the constant k = 0.  RHS:
    the coupling of states n-r.  On truncated series the two sides agree
    except for the RHS's top order, so the residual is a pure truncation
    quantity.  A time with 1/x past HUGE, where the terms have lost their
    digits to underflow, raises ConvergenceError.
    """
    n, stop = _index(n, "state index"), _index(k_trunc, "k_trunc") + 1
    if not (t > 0.0 and math.isfinite(t)):
        raise ParameterError(f"t must be finite and > 0, got {t!r}")
    sp, beta, terms = params.saigo(), params.beta, params._terms
    x = _series_x(terms, params.lam ** params.nu, t, "kolmogorov_residual")
    if x < 1.0 / HUGE:
        raise ConvergenceError(f"kolmogorov_residual: 1/x overflows at t = {t!r}")
    rows = terms.state_rows(n, x, stop)
    lhs = _kahan_sum(
        saigo_caputo_derivative_power(sp, -k * beta).coeff * c
        for k, c in enumerate(rows[n]) if k and c != 0.0
    ) / x
    rhs = _kahan_sum(_coupling_weight(params, r) * _kahan_sum(rows[n - r]) for r in range(n + 1))
    return abs(lhs - rhs)


def adm_closed_form_diff(params: FractionalParams, n_max: int, k_trunc: int) -> float:
    """Run the decomposition engine on the equation over lam^nu and compare
    every iterate coefficient against the closed-form term at x = 1, so no
    lam can overflow either; returns the worst normalized discrepancy.

    The engine route applies the Saigo integral k times (the
    Riemann-Liouville integral when beta = -alpha), so it shares no
    arithmetic with the closed-form coefficients, the cache's rows at x = 1.
    Each iterate's exponent must be -k beta within 1e-9 max(1, |k beta|):
    past |k beta| ~ 8e6 an absolute 1e-9 is below the exponent's ulp.
    """
    n_max, k_trunc = _index(n_max, "n_max"), _index(k_trunc, "k_trunc")
    sp = params.saigo()
    states = adm_solve_linear(
        lambda rho: saigo_integral_power(sp, rho),
        [_coupling_weight(params, r) for r in range(n_max + 1)],
        k_trunc,
    )
    worst = 0.0
    for n, row in enumerate(params._terms.state_rows(n_max, 1.0, k_trunc + 1)):
        for k, closed in enumerate(row):
            term = states[n].terms[k]
            expect = -k * params.beta
            if abs(term.exponent - expect) > 1e-9 * max(1.0, abs(expect)):
                raise ConvergenceError(
                    f"adm_closed_form_diff: iterate (n={n}, k={k}) has exponent "
                    f"{term.exponent}, expected {expect}"
                )
            worst = max(worst, abs(term.coeff - closed) / max(1.0, abs(closed)))
    return worst
