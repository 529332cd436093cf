"""Power terms and the Adomian decomposition engine.

In the paper's system every decomposition iterate is one monomial
c_{n,k} t^{e_k}, and the Saigo integral maps a monomial to a monomial by a
gamma-ratio multiplier.  The engine therefore never discretizes time:
:func:`adm_solve_linear` forms the iterate coefficients exactly (up to float
rounding in the multipliers), and each state's solution is one
:class:`PowerSeries`, evaluated at a time point only at the very end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import ConvergenceError, ParameterError
from .specfun import HUGE, _kahan_add


@dataclass(frozen=True)
class PowerTerm:
    """A single monomial c * t^rho, c and rho finite; which rho an operator
    takes is its own domain rule (:mod:`fracpois.saigo`)."""

    coeff: float
    exponent: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.coeff):
            raise ParameterError(f"PowerTerm: coefficient must be finite, got {self.coeff!r}")
        if not math.isfinite(self.exponent):
            raise ParameterError(f"PowerTerm: exponent must be finite, got {self.exponent!r}")


class PowerSeries:
    """A finite sum of PowerTerm, kept in the order given."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[PowerTerm] = ()) -> None:
        self.terms: tuple[PowerTerm, ...] = tuple(terms)

    def __repr__(self) -> str:
        body = " + ".join(f"{p.coeff!r}*t^{p.exponent!r}" for p in self.terms)
        return f"PowerSeries({body or '0'})"

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


def adm_solve_linear(
    integral_power: Callable[[float], PowerTerm],
    weights: Sequence[float],
    max_k: int,
) -> list[PowerSeries]:
    """Run the decomposition recursion of the fractional Kolmogorov system.

    States n = 0 .. len(weights) - 1 start at p_n(0) = [n = 0].  Iterate k of
    state n is the integral applied to sum_{r=0}^{n} weights[r] *
    iterate_{k-1}(n - r); linearity means the Adomian polynomials are the
    iterates themselves.  Every iterate k - 1 is a monomial of one shared
    exponent e, so ``integral_power(e + 1)``, the image of t^e, is formed once
    per order.  Returns one series per state, term k being iterate k; a
    vanishing iterate has coefficient 0.0.
    """
    if max_k < 1:
        raise ParameterError(f"adm_solve_linear: max_k must be >= 1, got {max_k}")
    if len(weights) < 1:
        raise ParameterError("adm_solve_linear: need a weight per state")

    coeffs = [[1.0]] + [[0.0] for _ in weights[1:]]
    exponents = [0.0]
    for k in range(1, max_k + 1):
        image = integral_power(exponents[-1] + 1.0)
        exponents.append(image.exponent)
        for n, row in enumerate(coeffs):
            rhs = 0.0
            for r, w in enumerate(weights[: n + 1]):
                c = coeffs[n - r][k - 1]
                if w != 0.0 and c != 0.0:
                    rhs += w * c
            nxt = rhs * image.coeff if rhs else 0.0
            if not abs(nxt) <= HUGE:
                raise ConvergenceError(
                    f"adm_solve_linear: coefficient overflow at iterate k={k}, state n={n}"
                )
            row.append(nxt)
    return [PowerSeries(map(PowerTerm, row, exponents)) for row in coeffs]
