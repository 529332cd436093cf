import math

import pytest
import scipy.special
from hypothesis import given, strategies as st

from fracpois.errors import ParameterError
from fracpois.specfun import falling_factorial, log_abs_gamma, log_gamma
from oracles import ml_half


class TestLogGamma:
    def test_trivial_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(0.5) == pytest.approx(0.5723649429247001, rel=1e-13)
        assert log_gamma(6.0) == pytest.approx(math.log(120.0), rel=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            log_gamma(0.0)
        with pytest.raises(ParameterError):
            log_gamma(-2.5)
        with pytest.raises(ParameterError):
            log_gamma(float("nan"))

    def test_accuracy_against_scipy(self):
        for x in [1e-3, 0.1, 0.9, 1.5, 7.0, 42.0, 170.0]:
            assert log_gamma(x) == pytest.approx(float(scipy.special.gammaln(x)), rel=1e-13)


class TestRgamma:
    """The reciprocal-gamma semantics the series rely on: sign 0 at a pole."""

    def test_log_abs_gamma_pole_signature(self):
        s, l = log_abs_gamma(-4.0)
        assert s == 0.0 and l == math.inf


class TestFallingFactorial:
    def test_trivial(self):
        assert falling_factorial(0.37, 0) == 1.0
        assert falling_factorial(3.0, 2) == 6.0
        assert falling_factorial(0.5, 2) == -0.25

    def test_rejects_negative_order(self):
        with pytest.raises(ParameterError):
            falling_factorial(1.0, -1)

    @given(st.integers(-8, 8), st.integers(0, 6))
    def test_recurrence_exact_on_integers(self, x, r):
        assert falling_factorial(x, r + 1) == falling_factorial(x, r) * (x - r)

    def test_vandermonde(self):
        # sum_r C(m,r) (x)_r (y)_{m-r} = (x+y)_m -- the binomial theorem for
        # falling factorials
        for m in range(11):
            for x, y in [(-2.0, 1.3), (0.5, 0.5), (1.7, -0.4), (2.0, 2.0)]:
                s = sum(
                    math.comb(m, r) * falling_factorial(x, r) * falling_factorial(y, m - r)
                    for r in range(m + 1)
                )
                target = falling_factorial(x + y, m)
                assert s == pytest.approx(target, rel=1e-9, abs=1e-9)

    def test_generalized_binomial_partial_sums(self):
        # sum_{n<=N} (k nu)_n (-1)^n / n! is 1 for k = 0 and decays to 0
        # (like N^{-k nu}) for k nu > 0.  Terms via the ratio recurrence
        # t_{n+1} = -t_n (x - n)/(n + 1) so nothing overflows.
        def partial(x, N):
            total, term = 0.0, 1.0
            for n in range(N + 1):
                total += term
                term *= -(x - n) / (n + 1.0)
            return total

        assert partial(0.0, 25) == 1.0
        s100 = abs(partial(2.1, 100))
        s400 = abs(partial(2.1, 400))
        assert s400 < s100 < 1e-2
        assert s400 < 1e-4
        # first few partial sums against the direct definition
        for N in range(6):
            direct = sum(
                falling_factorial(2.1, n) * (-1.0) ** n / math.factorial(n)
                for n in range(N + 1)
            )
            assert partial(2.1, N) == pytest.approx(direct, rel=1e-12)


def test_ml_half_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for y in [0.1, 0.25, 1.0, 2.7, 3.3, 7.7, 13.1, 19.9, 25.3, 26.0]:
            z = mpmath.mpf(y)
            reference = float(mpmath.exp(z * z) * mpmath.erfc(z))
            assert ml_half(y) == pytest.approx(reference, rel=1e-12)
