"""Exact power-series algebra and the Adomian decomposition engine.

Every decomposition iterate in this project is a finite sum of c * t^rho
terms, and fractional integrals act on such terms analytically.  The engine
therefore never discretizes time: :func:`adm_solve_linear` produces the
iterate series exactly (up to float rounding in the gamma-ratio
multipliers), and evaluation at a time point happens only at the very end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ConvergenceError, ParameterError
from .specfun import SERIES_TOL, _kahan_add, log_gamma

# Exponents arise from repeated addition of fractional orders, so two terms
# that should share an exponent can differ by accumulated rounding.
EXPONENT_MERGE_TOL = 1e-12

# Coefficients below this are numerically indistinguishable from zero.
COEFF_DROP_TOL = 1e-300

COEFF_OVERFLOW = 1e300


@dataclass(frozen=True)
class PowerTerm:
    """A single monomial c * t^rho."""

    coeff: float
    exponent: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.coeff):
            raise ParameterError(f"PowerTerm: coefficient must be finite, got {self.coeff!r}")
        if not math.isfinite(self.exponent) or self.exponent <= -1.0:
            raise ParameterError(
                f"PowerTerm: exponent must be finite and > -1, got {self.exponent!r}"
            )


class PowerSeries:
    """A finite sum of PowerTerm, normalized to strictly increasing exponents.

    Instances are immutable in practice: all operations return new series.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[PowerTerm] = ()) -> None:
        self.terms: tuple[PowerTerm, ...] = _normalize(terms)

    @classmethod
    def constant(cls, c: float) -> "PowerSeries":
        return cls((PowerTerm(c, 0.0),))

    @classmethod
    def zero(cls) -> "PowerSeries":
        return cls(())

    def __iter__(self) -> Iterator[PowerTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        body = " + ".join(f"{p.coeff!r}*t^{p.exponent!r}" for p in self.terms)
        return f"PowerSeries({body or '0'})"

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return PowerSeries(self.terms + other.terms)

    def scale(self, a: float) -> "PowerSeries":
        if a == 0.0:
            return PowerSeries.zero()
        return PowerSeries(PowerTerm(a * p.coeff, p.exponent) for p in self.terms)

    def __rmul__(self, a: float) -> "PowerSeries":
        return self.scale(a)

    def map_terms(self, f: Callable[[PowerTerm], PowerTerm | None]) -> "PowerSeries":
        """Apply a term-wise linear operator; f may return None to drop a term."""
        out = []
        for p in self.terms:
            q = f(p)
            if q is not None:
                out.append(q)
        return PowerSeries(out)

    def max_abs_coeff(self) -> float:
        return max((abs(p.coeff) for p in self.terms), default=0.0)

    def evaluate(self, t: float) -> float:
        """sum c * t^rho with compensated summation; t >= 0 required."""
        if not math.isfinite(t) or t < 0.0:
            raise ParameterError(f"PowerSeries.evaluate: t must be finite and >= 0, got {t!r}")
        if t == 0.0:
            if any(p.exponent < 0.0 for p in self.terms):
                raise ParameterError(
                    "PowerSeries.evaluate: negative exponent present, t = 0 is singular"
                )
            # t^0 at t = 0 is the constant term by convention.
            return sum(p.coeff for p in self.terms if p.exponent == 0.0)
        total, comp = 0.0, 0.0
        for p in self.terms:
            total, comp = _kahan_add(total, comp, p.coeff * t ** p.exponent)
        return total


def _normalize(terms: Iterable[PowerTerm]) -> tuple[PowerTerm, ...]:
    ordered = sorted(terms, key=lambda p: p.exponent)
    out: list[PowerTerm] = []
    for p in ordered:
        if out and abs(p.exponent - out[-1].exponent) <= EXPONENT_MERGE_TOL:
            merged = PowerTerm(out[-1].coeff + p.coeff, out[-1].exponent)
            out[-1] = merged
        else:
            out.append(p)
    return tuple(p for p in out if abs(p.coeff) >= COEFF_DROP_TOL)


def rl_integrate(series: PowerSeries, alpha: float) -> PowerSeries:
    """Riemann-Liouville fractional integral of order alpha on a power series.

    Each monomial c * t^{rho-1} maps to c * Gamma(rho)/Gamma(rho+alpha) *
    t^{rho+alpha-1}; with terms stored as c * t^e this reads rho = e + 1.
    """
    if not (0.0 < alpha <= 1.0):
        raise ParameterError(f"rl_integrate: alpha must be in (0, 1], got {alpha}")

    def one(p: PowerTerm) -> PowerTerm:
        rho = p.exponent + 1.0
        mult = math.exp(log_gamma(rho) - log_gamma(rho + alpha))
        return PowerTerm(p.coeff * mult, p.exponent + alpha)

    return series.map_terms(one)


@dataclass
class AdmState:
    """All decomposition iterates: iterates[n][k] is the k-th series for state n."""

    iterates: list[list[PowerSeries]]
    truncation_warning: bool = False


def adm_solve_linear(
    integral_op: Callable[[PowerSeries], PowerSeries],
    coupling: Callable[[int, int], float],
    initial: Sequence[float],
    n_max: int,
    max_k: int,
) -> AdmState:
    """Run the decomposition recursion for a linear lower-triangular system.

    The k-th iterate of state n is the integral operator applied to
    sum_{r=0}^{n} coupling(n, r) * iterate_{k-1}(n - r); the zeroth iterate
    is the initial condition.  Linearity means the Adomian polynomials are
    the iterates themselves, so no polynomial generation is needed here.
    Iterates k = 0 .. max_k are built.
    """
    if max_k < 1:
        raise ParameterError(f"adm_solve_linear: max_k must be >= 1, got {max_k}")
    if n_max < 0:
        raise ParameterError(f"adm_solve_linear: n_max must be >= 0, got {n_max}")
    if len(initial) < n_max + 1:
        raise ParameterError("adm_solve_linear: need an initial value per state")

    iterates: list[list[PowerSeries]] = []
    for n in range(n_max + 1):
        c0 = initial[n]
        iterates.append([PowerSeries.constant(c0) if c0 != 0.0 else PowerSeries.zero()])

    for k in range(1, max_k + 1):
        for n in range(n_max + 1):
            rhs = PowerSeries.zero()
            for r in range(n + 1):
                w = coupling(n, r)
                if w != 0.0:
                    rhs = rhs + iterates[n - r][k - 1].scale(w)
            nxt = integral_op(rhs)
            if nxt.max_abs_coeff() > COEFF_OVERFLOW:
                raise ConvergenceError(
                    f"adm_solve_linear: coefficient overflow at iterate k={k}, state n={n}"
                )
            iterates[n].append(nxt)

    # The last iterate is what truncation throws away; flag it when it is
    # still above tolerance at the t = 1 horizon (where |c * t^e| = |c|).
    worst_last = max(iterates[n][max_k].max_abs_coeff() for n in range(n_max + 1))
    return AdmState(iterates, truncation_warning=worst_last > SERIES_TOL)
