"""Power series and the Adomian decomposition engine.

Every decomposition iterate in this project is a finite sum of c * t^rho
terms, and fractional integrals act on such terms analytically.  The engine
therefore never discretizes time: :func:`adm_solve_linear` produces the
iterate series exactly (up to float rounding in the gamma-ratio
multipliers), and evaluation at a time point happens only at the very end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import ConvergenceError, ParameterError
from .specfun import _kahan_add

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

    Instances are immutable in practice: build a new series from terms.
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


def adm_solve_linear(
    integral_op: Callable[[PowerSeries], PowerSeries],
    weights: Sequence[float],
    max_k: int,
) -> list[list[PowerSeries]]:
    """Run the decomposition recursion of the fractional Kolmogorov system.

    States n = 0 .. len(weights) - 1 start at p_n(0) = [n = 0].  The k-th
    iterate of state n is the integral operator applied to
    sum_{r=0}^{n} weights[r] * iterate_{k-1}(n - r).  Linearity means the
    Adomian polynomials are the iterates themselves, so no polynomial
    generation is needed here.  Returns iterates[n][k] for k = 0 .. max_k.
    """
    if max_k < 1:
        raise ParameterError(f"adm_solve_linear: max_k must be >= 1, got {max_k}")
    if len(weights) < 1:
        raise ParameterError("adm_solve_linear: need a weight per state")

    iterates = [[PowerSeries.constant(1.0)]] + [[PowerSeries.zero()] for _ in weights[1:]]
    for k in range(1, max_k + 1):
        for n, row in enumerate(iterates):
            # Every state's iterate k - 1 has the same exponent, so the
            # stable sort adds the terms in the order r = 0, 1, ...
            rhs = PowerSeries(
                PowerTerm(w * p.coeff, p.exponent)
                for r, w in enumerate(weights[: n + 1]) if w != 0.0
                for p in iterates[n - r][k - 1].terms
            )
            nxt = integral_op(rhs)
            if nxt.max_abs_coeff() > COEFF_OVERFLOW:
                raise ConvergenceError(
                    f"adm_solve_linear: coefficient overflow at iterate k={k}, state n={n}"
                )
            row.append(nxt)
    return iterates
