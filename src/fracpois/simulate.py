"""Monte-Carlo cross-validation by subordination.

The fractional variants are time-changed Poisson processes: the
time-fractional process runs the clock through an inverse alpha-stable
subordinator, the space-fractional one through a nu-stable subordinator,
and the space-time one through both.  Sampling therefore needs exactly one
nontrivial ingredient -- a one-sided stable variate with Laplace transform
e^{-t s^nu} -- plus a Poisson draw at the randomized intensity.

The samplers work in place.  The stable kernel draws its uniforms and
exponentials whole, in that order, and forms each variate in the uniforms'
own array one cache-sized block at a time; scaling, the clock and the
Poisson clamp reuse that array.  ``empirical_pmf`` therefore holds about two
float64 arrays of the sample size at its peak, three for stfpp.  The draws
equal, bit for bit, the one-shot whole-array evaluation of the same formulas
that ``tests/oracles.py`` keeps.

Empirical histograms feed a chi-square comparison against the closed-form
pmf, with the (possibly heavy) tail above the histogram range accounted for
by the exact tail mass.

numpy and scipy are imported inside the functions that use them, so that
importing fracpois, which loads this module, stays free of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

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


def _stable_standard(nu: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """One-sided stable variates A with E[e^{-s A}] = e^{-s^nu}.

    Chambers-Mallows-Stuck in Kanter's one-sided form:
        A = [sin(nu U) / sin(U)^{1/nu}] * [sin((1-nu) U) / E]^{(1-nu)/nu}
    with U uniform on (0, pi) and E unit exponential.

    U and E are drawn whole, in that order, which fixes the random stream;
    A is then formed in U's own array, block by block, so the only further
    memory is one block of scratch.
    """
    import numpy as np

    U = _uniform_open(rng, size)
    E = rng.exponential(1.0, size)
    scratch = np.empty(min(size, _BLOCK))
    for lo in range(0, size, _BLOCK):
        u, e = U[lo:lo + _BLOCK], E[lo:lo + _BLOCK]
        x = scratch[:len(u)]
        u *= np.pi
        np.sin(np.multiply(u, 1.0 - nu, out=x), out=x)
        np.divide(x, e, out=e)
        e **= (1.0 - nu) / nu
        np.sin(np.multiply(u, nu, out=x), out=x)
        np.sin(u, out=u)
        u **= 1.0 / nu
        np.divide(x, u, out=u)
        u *= e
    return U


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
    import numpy as np

    if not (0.0 < nu < 1.0):
        raise ParameterError(f"sample_stable: nu must be in (0, 1), got {nu}")
    if not (t > 0.0 and math.isfinite(t)):
        raise ParameterError(f"sample_stable: t must be > 0, got {t!r}")
    out = _stable_standard(nu, _as_rng(seed), _size(size, "sample_stable"))
    try:
        scale = t ** (1.0 / nu)
    except OverflowError:
        scale = math.inf
    with np.errstate(over="ignore"):
        out *= scale
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
    out = _stable_standard(alpha, _as_rng(seed), _size(size, "sample_inverse_stable"))
    out **= -alpha
    out *= t ** alpha
    return out if size is not None else float(out[0])


def _poisson_counts(rng: np.random.Generator, lam_eff: np.ndarray) -> np.ndarray:
    """Poisson draws at the intensities lam_eff, which are clamped in place."""
    import numpy as np

    np.nan_to_num(lam_eff, copy=False, posinf=_LAM_CLAMP)
    np.minimum(lam_eff, _LAM_CLAMP, out=lam_eff)
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
    if t == 0.0:
        counts = np.zeros(m, dtype=np.int64)
        return counts if size is not None else int(counts[0])

    if variant == "classical":
        clock = np.full(m, t)
    elif variant == "tfpp":
        clock = sample_inverse_stable(params.alpha, t, rng, m)
    elif variant == "sfpp":
        clock = sample_stable(params.nu, t, rng, m)
    else:  # stfpp: the stable subordinator run at an inverse-stable time
        inner = sample_inverse_stable(params.alpha, t, rng, m)
        with np.errstate(over="ignore"):  # an inf clock is clamped below
            inner **= 1.0 / params.nu
        clock = _stable_standard(params.nu, rng, m)
        clock *= inner
        del inner  # freed before the Poisson draw allocates the counts
    with np.errstate(over="ignore"):  # an inf intensity is clamped below
        clock *= params.lam
    counts = _poisson_counts(rng, clock)
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

    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    dof = len(expected) - 1
    # The upper tail of the chi-square law; scipy.stats.chi2.sf calls the
    # same function, and scipy.stats costs several times more to import.
    from scipy.special import chdtrc

    pvalue = float(chdtrc(dof, stat))
    return stat, pvalue, dof
