"""Monte-Carlo cross-validation by subordination.

The fractional variants are time-changed Poisson processes: the
time-fractional process runs the clock through an inverse alpha-stable
subordinator, the space-fractional one through a nu-stable subordinator,
and the space-time one through both.  Sampling therefore needs exactly one
nontrivial ingredient -- a one-sided stable variate with Laplace transform
e^{-t s^nu} -- plus a Poisson draw at the randomized intensity.

The samplers work in place, one cache-sized block at a time.  The stable
kernel draws its uniforms whole, then its exponentials, then the Poisson
counts, each block after block, and forms each variate in the uniforms' own
array; scaling, the clock and the Poisson clamp reuse that array, and the
counts reuse the exponentials', whose block the kernel has spent.
``empirical_pmf`` therefore holds about two float64 arrays of the sample
size at its peak, three for stfpp.

With two or more blocks and usable CPUs, a call starts one helper thread
that runs the kernel and the clock arithmetic on each block as soon as its
exponentials are drawn, while the calling thread draws the next ones and
then the counts of each finished block, in order; a kernel with no counts
to draw (the stfpp inner clock, ``sample_stable``) splits its blocks between
the two threads.  The thread adds one block of scratch and is joined before
the call returns.  With one usable CPU or one block, the same steps run on
the calling thread alone.  Only the calling thread draws random numbers, in
the same order either way, so the draws equal, bit for bit, the one-shot
whole-array evaluation of the same formulas that ``tests/oracles.py``
keeps.

Empirical histograms feed a chi-square comparison against the closed-form
pmf, with the (possibly heavy) tail above the histogram range accounted for
by the exact tail mass.

The p-value is the chi-square law's upper tail, summed in closed form.
numpy is imported inside the functions that use it, so that importing
fracpois, which loads this module, stays free of it.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import ParameterError, UnsupportedVariantError
from .processes import FractionalParams, PmfTable, _index, pmf_table

if TYPE_CHECKING:
    import numpy as np

# Poisson intensities beyond this land every draw far above any histogram
# range we use; clamping keeps the generator in its supported domain without
# touching the distribution of the recorded (clipped) counts.
_LAM_CLAMP = 1e15

# Draws per block of the in-place stable kernel, a multiple of 64 so that
# every block starts where the SIMD lanes of one unblocked pass would.  Its
# three 64 KiB slices (U, E, scratch) stay in L2.  Timing empirical_pmf at
# 2e5 stfpp draws on a 2-vCPU AVX-512 Xeon (2 MiB L2 per core), blocks of
# 4,096 to 16,384 ran within 1 % of each other (47 ms); 512 took 66 ms,
# 65,536 took 49 ms and one unblocked pass 52 ms.
_BLOCK = 8192

# Smallest expected count a chi-square bin may have after pooling.
_MIN_EXPECTED = 5.0

# Up to this y = stat / 2, e^{-y} and erfc(sqrt(y)) are normal floats
# (e^{-708.4} is the smallest), so the p-value's terms grow from e^{-y}.
_EXP_Y_MAX = 700.0


def _as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_index(seed, "seed"))


def _size(size: int | None, caller: str) -> int:
    """The number of draws: 1 for a scalar call, else size as an int >= 0."""
    return 1 if size is None else _index(size, f"{caller}: size")


def _uniform_open(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform draws on the open interval (0, 1)."""
    import numpy as np

    u = rng.random(size)
    bad = u == 0.0
    while np.any(bad):
        u[bad] = rng.random(int(np.count_nonzero(bad)))
        bad = u == 0.0
    return u


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stable_block(nu: float, u: np.ndarray, e: np.ndarray, x: np.ndarray) -> None:
    """One block of the stable kernel, in place: u holds U on entry and A on
    return, e (E on entry) is spent, x is scratch of u's length.

    Chambers-Mallows-Stuck in Kanter's one-sided form:
        A = [sin(nu U) / sin(U)^{1/nu}] * [sin((1-nu) U) / E]^{(1-nu)/nu}
    with U uniform on (0, pi) and E unit exponential.
    """
    import numpy as np

    u *= np.pi
    np.sin(np.multiply(u, 1.0 - nu, out=x), out=x)
    np.divide(x, e, out=e)
    e **= (1.0 - nu) / nu
    np.sin(np.multiply(u, nu, out=x), out=x)
    np.sin(u, out=u)
    u **= 1.0 / nu
    np.divide(x, u, out=u)
    u *= e


def _in_blocks(size: int, feed: Callable, work: Callable, drain: Callable | None) -> None:
    """Run feed(lo), then work(lo, scratch), then drain(lo) over the blocks.

    Every feed runs first, in block order, on the calling thread; then every
    work, each before its block's drain, and the drains in block order on
    the calling thread.  With two or more blocks and CPUs, one helper thread
    runs the works: each as soon as its block is fed, beside the caller's
    feeds and drains, or, without drain, sharing the blocks with the caller.
    The helper adopts the caller's numpy error state and is joined before
    return; an exception in either thread reaches the caller and stops the
    other thread at its next block.
    """
    import numpy as np

    starts = range(0, size, _BLOCK)
    if len(starts) < 2 or _usable_cpus() < 2:
        for lo in starts:
            feed(lo)
        scratch = np.empty(min(size, _BLOCK))
        for lo in starts:
            work(lo, scratch)
            if drain is not None:
                drain(lo)
        return

    from queue import SimpleQueue

    todo: SimpleQueue = SimpleQueue()  # fed blocks; None ends a worker
    done: SimpleQueue = SimpleQueue()  # the helper's finished blocks; None on failure
    stop = threading.Event()
    failed: list[BaseException] = []
    errors, errcall = np.geterr(), np.geterrcall()

    def helper() -> None:
        try:
            scratch = np.empty(_BLOCK)
            with np.errstate(call=errcall, **errors):
                while (lo := todo.get()) is not None and not stop.is_set():
                    work(lo, scratch)
                    done.put(lo)
        except BaseException as exc:  # handed to the caller, which raises it
            failed.append(exc)
            stop.set()
            done.put(None)

    thread = threading.Thread(target=helper, name="fracpois-sampler")
    thread.start()
    try:
        for lo in starts:
            if stop.is_set():
                break
            feed(lo)
            todo.put(lo)
        todo.put(None)
        if drain is None:
            todo.put(None)
            scratch = np.empty(_BLOCK)
            while (lo := todo.get()) is not None and not stop.is_set():
                work(lo, scratch)
        else:
            for lo in starts:
                if done.get() is None:
                    break
                drain(lo)
    finally:
        stop.set()
        todo.put(None)
        thread.join()
    if failed:
        raise failed[0]


def _stable_sample(
    nu: float, rng: np.random.Generator, size: int, finish: Callable, count: bool = False,
) -> np.ndarray:
    """Standard one-sided nu-stable variates A, each block passed through
    finish(block, lo) after the kernel; with count, the Poisson counts drawn
    at those finished values instead.

    U is drawn whole, then E and then the counts block by block, which
    consumes the random stream exactly as drawing each whole does.  A is
    formed in U's own array and the counts in E's, whose block the kernel
    has spent, so the only further memory is a block of scratch per thread
    and one block of counts.
    """
    import numpy as np

    U = _uniform_open(rng, size)
    E = np.empty(size)
    counts = E.view(np.int64)

    def feed(lo: int) -> None:
        rng.standard_exponential(out=E[lo:lo + _BLOCK])

    def work(lo: int, scratch: np.ndarray) -> None:
        u = U[lo:lo + _BLOCK]
        _stable_block(nu, u, E[lo:lo + _BLOCK], scratch[:len(u)])
        finish(u, lo)

    def drain(lo: int) -> None:
        counts[lo:lo + _BLOCK] = _poisson_counts(rng, U[lo:lo + _BLOCK])

    _in_blocks(size, feed, work, drain if count else None)
    return counts if count else U


def _stable_scale(nu: float, t: float) -> Callable:
    """The block step A -> t^{1/nu} A, which makes D_nu(t) of A.

    A scale past the float range makes the draws +inf, quietly.
    """
    import numpy as np

    try:
        scale = t ** (1.0 / nu)
    except OverflowError:
        scale = math.inf

    def step(a: np.ndarray, lo: int) -> None:
        with np.errstate(over="ignore"):
            a *= scale

    return step


def _inverse_stable_time(alpha: float, t: float) -> Callable:
    """The block step A -> (t / A)^alpha, which makes E_alpha(t) of A."""
    scale = t ** alpha

    def step(a: np.ndarray, lo: int) -> None:
        a **= -alpha
        a *= scale

    return step


def sample_stable(
    nu: float,
    t: float,
    seed: int | np.random.Generator,
    size: int | None = None,
) -> float | np.ndarray:
    """Draws of the nu-stable subordinator D_nu(t), Laplace transform e^{-t s^nu}.

    Self-similarity gives D_nu(t) = t^{1/nu} * A in distribution with A the
    standardized variate.  A scale past the float range makes the draws
    +inf, quietly.  nu = 1 is degenerate (D(t) = t) and rejected here;
    callers handle it directly.
    """
    if not (0.0 < nu < 1.0):
        raise ParameterError(f"sample_stable: nu must be in (0, 1), got {nu}")
    if not (t > 0.0 and math.isfinite(t)):
        raise ParameterError(f"sample_stable: t must be > 0, got {t!r}")
    rng, m = _as_rng(seed), _size(size, "sample_stable")
    out = _stable_sample(nu, rng, m, _stable_scale(nu, t))
    return out if size is not None else float(out[0])


def sample_inverse_stable(
    alpha: float,
    t: float,
    seed: int | np.random.Generator,
    size: int | None = None,
) -> float | np.ndarray:
    """Draws of the inverse alpha-stable subordinator E_alpha(t).

    At a fixed time, E_alpha(t) equals (t / D_alpha(1))^alpha in
    distribution, so no path-level first passage is needed.
    """
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"sample_inverse_stable: alpha must be in (0, 1), got {alpha}")
    if not (t > 0.0 and math.isfinite(t)):
        raise ParameterError(f"sample_inverse_stable: t must be > 0, got {t!r}")
    rng, m = _as_rng(seed), _size(size, "sample_inverse_stable")
    out = _stable_sample(alpha, rng, m, _inverse_stable_time(alpha, t))
    return out if size is not None else float(out[0])


def _poisson_counts(rng: np.random.Generator, lam_eff: np.ndarray) -> np.ndarray:
    """Poisson draws at the intensities lam_eff, which are clamped in place:
    +inf to ``_LAM_CLAMP`` and NaN to 0."""
    import numpy as np

    np.minimum(lam_eff, _LAM_CLAMP, out=lam_eff)
    lam_eff[np.isnan(lam_eff)] = 0.0
    return rng.poisson(lam_eff)


def sample_process(
    params: FractionalParams,
    t: float,
    seed: int | np.random.Generator,
    size: int | None = None,
) -> int | np.ndarray:
    """Subordinated counts of the requested variant at time t.

    classical: N(t); tfpp: N(E_alpha(t)); sfpp: N(D_nu(t));
    stfpp: N(D_nu(E_alpha(t))).  The Saigo variant has no subordination
    representation and is rejected.
    """
    import numpy as np

    variant = params.variant
    if variant == "sstfpp":
        raise UnsupportedVariantError(
            "sample_process: no subordination representation exists for the "
            "Saigo space-time variant"
        )
    if not (t >= 0.0 and math.isfinite(t)):
        raise ParameterError(f"sample_process: t must be >= 0, got {t!r}")
    rng = _as_rng(seed)
    m = _size(size, "sample_process")
    lam = params.lam
    if t == 0.0:
        counts = np.zeros(m, dtype=np.int64)
    elif variant == "classical":
        counts = rng.poisson(min(lam * t, _LAM_CLAMP), m)
    else:
        if variant == "tfpp":
            nu, clock = params.alpha, _inverse_stable_time(params.alpha, t)
        elif variant == "sfpp":
            nu, clock = params.nu, _stable_scale(params.nu, t)
        else:  # stfpp: the stable subordinator run at an inverse-stable time
            inner_time = _inverse_stable_time(params.alpha, t)

            def inner_clock(a: np.ndarray, lo: int) -> None:
                inner_time(a, lo)
                with np.errstate(over="ignore"):  # an inf clock is clamped below
                    a **= 1.0 / params.nu

            inner = _stable_sample(params.alpha, rng, m, inner_clock)
            nu = params.nu

            def clock(a: np.ndarray, lo: int) -> None:
                a *= inner[lo:lo + _BLOCK]

        def intensity(a: np.ndarray, lo: int) -> None:
            clock(a, lo)
            with np.errstate(over="ignore"):  # an inf intensity is clamped below
                a *= lam

        counts = _stable_sample(nu, rng, m, intensity, count=True)
    return counts if size is not None else int(counts[0])


@dataclass(frozen=True)
class EmpiricalPmf:
    """Histogram of process draws at a fixed time."""

    params: FractionalParams
    t: float
    n_max: int
    sample_count: int
    counts: tuple[int, ...]
    overflow: int

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ParameterError(
                f"EmpiricalPmf: sample_count must be >= 1, got {self.sample_count}"
            )
        if len(self.counts) != self.n_max + 1:
            raise ParameterError(
                f"EmpiricalPmf: {len(self.counts)} counts for states 0..{self.n_max}"
            )
        if min(self.counts, default=0) < 0 or self.overflow < 0:
            raise ParameterError("EmpiricalPmf: counts and overflow must be >= 0")
        if sum(self.counts) + self.overflow != self.sample_count:
            raise ParameterError("EmpiricalPmf: counts + overflow must equal sample_count")

    def frequency(self, n: int) -> float:
        return self.counts[n] / self.sample_count


def empirical_pmf(
    params: FractionalParams,
    t: float,
    n_samples: int,
    n_max: int,
    seed: int | np.random.Generator,
) -> EmpiricalPmf:
    import numpy as np

    n_samples = _index(n_samples, "empirical_pmf: n_samples")
    if n_samples < 1:
        raise ParameterError(f"empirical_pmf: n_samples must be >= 1, got {n_samples}")
    n_max = _index(n_max, "empirical_pmf: n_max")
    draws = sample_process(params, t, seed, size=n_samples)
    # every draw above n_max is counted in one last bin, the overflow
    np.minimum(draws, n_max + 1, out=draws)
    *counts, overflow = np.bincount(draws, minlength=n_max + 2).tolist()
    return EmpiricalPmf(params, t, n_max, n_samples, tuple(counts), overflow)


def chi_square_gof(emp: EmpiricalPmf) -> tuple[float, float, int]:
    """Chi-square goodness of fit of the histogram against the closed form.

    Expected counts come from the variant's pmf, with the overflow bin given
    the exact tail mass above n_max.  Bins are pooled from the right until
    every bin's expected count reaches ``_MIN_EXPECTED``.  Returns
    (statistic, p_value, degrees_of_freedom); raises ``ParameterError`` when
    pooling leaves fewer than two bins.
    """
    result = _chi_square(emp, pmf_table(emp.params, [emp.t], emp.n_max))
    if result is None:
        raise ParameterError("chi_square_gof: fewer than two usable bins")
    return result


def _chi_square(emp: EmpiricalPmf, table: PmfTable) -> tuple[float, float, int] | None:
    """``chi_square_gof`` against a prebuilt one-time ``table``; None below two bins."""
    expected = [q * emp.sample_count for q in table.probs[0] + table.tail_mass]
    observed = [float(c) for c in emp.counts] + [float(emp.overflow)]

    # Pool from the right: an undersized bin merges into its left neighbour,
    # so the (possibly tiny) overflow and tail bins collect until the pooled
    # bin is comfortably populated, and so does any undersized interior bin.
    for i in range(len(expected) - 1, 0, -1):
        if expected[i] < _MIN_EXPECTED:
            expected[i - 1] += expected[i]
            observed[i - 1] += observed[i]
            del expected[i], observed[i]
    if len(expected) < 2:
        return None

    stat = math.fsum((o - e) ** 2 / e for o, e in zip(observed, expected))
    dof = len(expected) - 1
    return stat, _chi2_sf(dof, stat), dof


def _chi2_sf(dof: int, stat: float) -> float:
    """The chi-square upper tail Q(dof/2, y) at y = stat / 2, for a whole dof >= 1.

    With a = dof / 2, n = floor(a) and h = a - n, term j is
    t_j = e^{-y} y^(j+h) / Gamma(j+h+1), so that t_j = t_{j-1} y / (j+h), and
    (Abramowitz & Stegun 26.4.4-26.4.5; DLMF 8.4)

        Q = sum_{j<n} t_j + [h = 1/2] erfc(sqrt(y)),   1 - Q = sum_{j>=n} t_j.

    For y >= a the terms below n rise and Q is their sum; below a the terms
    from n on fall, and 1 minus their sum keeps Q accurate, and at most 1,
    where it is near 1.  A falling run stops at a term below 2^-60 of its
    sum.  Up to ``_EXP_Y_MAX`` the terms grow from t_0; past it e^{-y}
    underflows, so the first term summed, t_{n-1} or t_n, is formed in log
    space and the rest by the recurrence away from it.  Run below j = 0, that
    recurrence is the asymptotic series of erfc(sqrt(y)) (DLMF 7.12), whose
    terms are 0 for even dof.
    """
    y = 0.5 * stat
    if y == math.inf:
        return 0.0
    a = 0.5 * dof
    n = dof // 2
    h = a - n
    if y <= _EXP_Y_MAX:
        term = math.exp(-y) * (2.0 * math.sqrt(y / math.pi) if h else 1.0)
        total = 0.0
        for j in range(1, n + 1):
            total += term
            term *= y / (j + h)
        if y >= a:
            return total + math.erfc(math.sqrt(y)) if h else total
        j = n
    else:
        j = n if y < a else n - 1
        term = math.exp((j + h) * math.log(y) - y - math.lgamma(j + h + 1.0))
        if y >= a:
            total = 0.0
            while abs(term) > total * 2.0 ** -60:
                total += term
                term *= (j + h) / y
                j -= 1
            return total
    total = 0.0
    while term > total * 2.0 ** -60:
        total += term
        j += 1
        term *= y / (j + h)
    return 1.0 - total
