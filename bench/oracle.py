"""Reference arithmetic that shares no code with fracpois.

* ``rounding_bound``: a plain-float estimate of how much double-precision
  rounding can move |sum_{n<=N} p_n + tail - 1| at one point, from the
  magnitudes of every series term.  A failed op whose bound exceeds the
  check tolerance is the known cancellation defect (the program returns an
  answer double precision cannot deliver) rather than a new fault.
* ``pmf_ref`` / ``tail_ref``: the stfpp and sstfpp state probabilities
  summed in mpmath at 50 significant digits or more (precision is raised by
  the number of digits the alternating series cancels).  mpmath is not a
  declared dependency; ``HAVE_MPMATH`` is False when it is missing.

A point is the tuple (lam, alpha, nu, beta, gamma_p, t).  The state series
is

    p_n(t) = (-1)^n / n! sum_k C_k (-x)^k / G(1 - k beta) * G(k nu + 1) / G(k nu + 1 - n)

with x = lam^nu t^(-beta) and C_k = prod_{j<=k} G(1+g-j b) / G(1+g+a-(j-1) b),
which is identically 1 on the stfpp line beta = -alpha.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

try:
    import mpmath
    HAVE_MPMATH = True
except ImportError:  # pragma: no cover - depends on the environment
    mpmath = None
    HAVE_MPMATH = False

EPS = 2.0 ** -52
REF_DIGITS = 50
K_CAP = 5000
STFPP_TOL = 1e-12


def _is_pole(z: float) -> bool:
    return z <= 0.5 and abs(z - round(z)) <= 1e-9


def _series_logmags(point: tuple, n: int | None, n_max: int) -> list[float]:
    """Log-magnitudes of the state-n terms (n = None: the collapsed tail)."""
    lam, alpha, nu, beta, gamma_p, t = point
    lx = nu * math.log(lam) - beta * math.log(t)
    with_ck = abs(beta + alpha) > STFPP_TOL
    lck = 0.0
    out = []
    small = 0
    k_min = int((n if n is not None else n_max) / nu) + 2
    for k in range(K_CAP):
        if k > 0 and with_ck:
            lck += math.lgamma(1.0 + gamma_p - k * beta) - math.lgamma(1.0 + gamma_p + alpha - (k - 1) * beta)
        base = lck + k * lx - math.lgamma(1.0 - k * beta)
        if n is None:
            # -prod_{i<=N}(i - k nu) / N!, zero at k = 0 and at its roots.
            factors = [i - k * nu for i in range(1, n_max + 1)]
            if k == 0 or any(f == 0.0 for f in factors):
                logmag = -math.inf
            else:
                logmag = base + sum(math.log(abs(f)) for f in factors) - math.lgamma(n_max + 1.0)
        elif _is_pole(k * nu + 1.0 - n):
            logmag = -math.inf
        else:
            # lgamma of a negative non-integer is ln|Gamma|.
            logmag = (base + math.lgamma(k * nu + 1.0) - math.lgamma(k * nu + 1.0 - n)
                      - math.lgamma(n + 1.0))
        out.append(logmag)
        if k >= k_min and logmag < -80.0:
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    return out


def rounding_bound(point: tuple, n_max: int) -> float:
    """eps * sum over every term of p_0..p_N and the tail of |term| (1 + |ln|term||)."""
    if point[5] == 0.0:
        return 0.0
    total = 0.0
    for n in [*range(n_max + 1), None]:
        for logmag in _series_logmags(point, n, n_max):
            if logmag > 700.0:
                return math.inf
            if logmag > -745.0:
                total += math.exp(logmag) * (1.0 + abs(logmag))
    return EPS * total


def _peak_digits(point: tuple, n: int) -> int:
    peak = max(_series_logmags(point, n, n))
    return max(0, math.ceil(peak / math.log(10.0)))


def _pmf_mp(point: tuple, n: int):
    lam, alpha, nu, beta, gamma_p, t = point
    mp = mpmath.mp
    if t == 0.0:
        return mp.mpf(1 if n == 0 else 0)
    with mpmath.workdps(REF_DIGITS + _peak_digits(point, n) + 10):
        a, b, g, v = mp.mpf(alpha), mp.mpf(beta), mp.mpf(gamma_p), mp.mpf(nu)
        x = mp.mpf(lam) ** v * mp.mpf(t) ** (-b)
        with_ck = abs(beta + alpha) > STFPP_TOL
        ck = mp.mpf(1)
        total = mp.mpf(0)
        tiny = mp.mpf(10) ** (-(REF_DIGITS + 5))
        k_min = int(n / nu) + 2
        small = 0
        k = 0
        while k < K_CAP:
            if k > 0 and with_ck:
                ck *= mp.gamma(1 + g - k * b) / mp.gamma(1 + g + a - (k - 1) * b)
            term = ck * (-x) ** k * mp.rgamma(1 - k * b) * mp.gamma(k * v + 1) * mp.rgamma(k * v + 1 - n)
            total += term
            if k >= k_min and abs(term) <= tiny * max(1, abs(total)):
                small += 1
                if small >= 2:
                    break
            else:
                small = 0
            k += 1
        else:
            raise ArithmeticError(f"pmf_ref: no convergence at {point}, n = {n}")
        return (-1) ** n * total / mp.factorial(n)


def pmf_ref(point: tuple, n: int) -> float:
    """p_n(t) from the series in mpmath; needs HAVE_MPMATH."""
    return float(_pmf_mp(point, n))


def tail_ref(point: tuple, n_max: int) -> float:
    """Mass above state n_max as 1 - sum_{n<=N} p_n in mpmath."""
    with mpmath.workdps(REF_DIGITS + 10):
        return float(1 - mpmath.fsum(_pmf_mp(point, n) for n in range(n_max + 1)))


class RefCache:
    """mpmath references keyed by point and state, persisted as JSON."""

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            self.values = json.loads(path.read_text())
        except (OSError, ValueError):
            self.values = {}

    def get(self, kind: str, point: tuple, n: int) -> float:
        key = f"{kind}:{point!r}:{n}"
        if key not in self.values:
            self.values[key] = pmf_ref(point, n) if kind == "pmf" else tail_ref(point, n)
        return self.values[key]

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.values, indent=0, sort_keys=True))
