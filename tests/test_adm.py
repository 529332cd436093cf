import math

import pytest
from hypothesis import given, settings, strategies as st

from fracpois.adm import PowerSeries, PowerTerm, adm_solve_linear
from fracpois.errors import ParameterError
from fracpois.specfun import falling_factorial
from oracles import rl_integral_power


def series(*pairs):
    return PowerSeries(tuple(PowerTerm(c, e) for c, e in pairs))


class TestPowerSeries:
    def test_term_rejects_non_finite(self):
        # which powers are valid is the operators' rule; a term only needs
        # finite parts, so t^(-1.5) is a term
        bad = ((math.inf, 1.0), (math.nan, 1.0), (1.0, -math.inf), (1.0, math.nan))
        for coeff, exponent in bad:
            with pytest.raises(ParameterError, match="must be finite"):
                PowerTerm(coeff, exponent)
        assert PowerTerm(1.0, -1.5).exponent == -1.5

    def test_terms_keep_their_order(self):
        s = series((2.0, 1.0), (3.0, 0.0), (0.0, 1.0))
        assert [(t.coeff, t.exponent) for t in s.terms] == [(2.0, 1.0), (3.0, 0.0), (0.0, 1.0)]

    def test_evaluate(self):
        assert series((1.0, 0.0)).evaluate(5.0) == 1.0
        assert series((2.0, 1.0), (1.0, 2.0)).evaluate(2.0) == pytest.approx(8.0)
        assert PowerSeries().evaluate(3.0) == 0.0

    def test_evaluate_at_zero(self):
        assert series((4.0, 0.0), (7.0, 1.3)).evaluate(0.0) == 4.0
        # negative exponents blow up at the origin
        with pytest.raises(ParameterError):
            series((1.0, -0.5)).evaluate(0.0)

    @given(
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        st.floats(0.1, 3.0, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_linearity_of_evaluation(self, ca, cb, t):
        a = series((1.0, 0.3), (-0.5, 1.1))
        b = series((2.0, 0.0), (1.0, 0.3))
        combo = PowerSeries(
            [PowerTerm(ca * p.coeff, p.exponent) for p in a.terms]
            + [PowerTerm(cb * p.coeff, p.exponent) for p in b.terms]
        )
        lhs = combo.evaluate(t)
        rhs = ca * a.evaluate(t) + cb * b.evaluate(t)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestRlIntegrate:
    def test_order_one_is_ordinary_integral(self):
        term = rl_integral_power(1.0, 1.0)
        assert (term.coeff, term.exponent) == (1.0, 1.0)
        # I t = t^2 / 2, I t^2 = t^3 / 3
        for rho, expect in ((2.0, 0.5), (3.0, 1.0 / 3.0)):
            term = rl_integral_power(1.0, rho)
            assert term.exponent == rho
            assert term.coeff == pytest.approx(expect, rel=1e-13)

    def test_half_order_of_constant(self):
        # I^{1/2} 1 = t^{1/2} / Gamma(3/2)
        term = rl_integral_power(0.5, 1.0)
        assert term.exponent == pytest.approx(0.5)
        assert term.coeff == pytest.approx(1.0 / math.gamma(1.5), rel=1e-13)
        assert term.coeff == pytest.approx(1.1283791670955126, rel=1e-12)

    def test_power_rule(self):
        # I^alpha t^p = Gamma(p+1)/Gamma(p+1+alpha) t^{p+alpha}
        for alpha in (0.3, 0.75, 1.0):
            for p in (0.0, 0.5, 2.0):
                term = rl_integral_power(alpha, p + 1.0)
                assert term.exponent == pytest.approx(p + alpha)
                expect = math.gamma(p + 1.0) / math.gamma(p + 1.0 + alpha)
                assert term.coeff == pytest.approx(expect, rel=1e-12)

    def test_semigroup(self):
        # I^b I^a t^{rho-1} = I^{a+b} t^{rho-1}
        for rho in (1.0, 1.7):
            for a, b in [(0.3, 0.4), (0.5, 0.5), (0.25, 0.6)]:
                first = rl_integral_power(a, rho)
                second = rl_integral_power(b, first.exponent + 1.0)
                joint = rl_integral_power(a + b, rho)
                assert second.exponent == pytest.approx(joint.exponent, abs=1e-12)
                assert first.coeff * second.coeff == pytest.approx(joint.coeff, rel=1e-12)

    def test_rejects_bad_order(self):
        with pytest.raises(ParameterError):
            rl_integral_power(0.0, 1.0)
        with pytest.raises(ParameterError):
            rl_integral_power(1.5, 1.0)


def stfpp_weights(lam, nu, n_max):
    # -lam^nu (-1)^r (nu)_r / r!, the coupling of state n to state n - r
    return [
        -lam ** nu * (-1.0) ** r * falling_factorial(nu, r) / math.factorial(r)
        for r in range(n_max + 1)
    ]


class TestAdmSolveLinear:
    def test_zeroth_state_iterates(self):
        # for the time-fractional cascade with nu = 1, p_0 iterates follow
        # (-lam)^k t^{k a} / Gamma(k a + 1)
        lam, alpha = 1.3, 0.7
        states = adm_solve_linear(
            lambda rho: rl_integral_power(alpha, rho), stfpp_weights(lam, 1.0, 6), max_k=6
        )
        assert len(states) == 7
        assert all(len(s.terms) == 7 for s in states)
        for k, term in enumerate(states[0].terms):
            expect = (-lam) ** k / math.gamma(k * alpha + 1.0)
            assert term.coeff == pytest.approx(expect, rel=1e-12)
            assert term.exponent == pytest.approx(k * alpha, abs=1e-12)

    def test_space_fractional_coupling_iterate(self):
        # n=0, k=2 iterate of the space-time cascade: (lam^nu)^2 t^{2a}/Gamma(2a+1)
        lam, alpha, nu = 1.0, 0.7, 0.5
        states = adm_solve_linear(
            lambda rho: rl_integral_power(alpha, rho), stfpp_weights(lam, nu, 1), max_k=2
        )
        term = states[0].terms[2]
        assert term.exponent == pytest.approx(1.4)
        assert term.coeff == pytest.approx(lam ** nu * lam ** nu / math.gamma(2.4), rel=1e-12)

    def test_integer_order_iterates_vanish_below_diagonal(self):
        # with nu = 1 the cascade is triangular: state n needs at least n steps
        states = adm_solve_linear(
            lambda rho: rl_integral_power(0.6, rho), stfpp_weights(1.0, 1.0, 3), max_k=4
        )
        for n, s in enumerate(states):
            coeffs = [term.coeff for term in s.terms]
            assert coeffs[:n] == [0.0] * n, n
            assert all(c != 0.0 for c in coeffs[n:]), n

    def test_one_integral_call_per_order(self):
        # every state's iterate k - 1 shares one exponent, so the image of
        # that power is formed once per order, not once per state
        rhos = []

        def integral_power(rho):
            rhos.append(rho)
            return rl_integral_power(0.7, rho)

        adm_solve_linear(integral_power, stfpp_weights(1.0, 0.6, 5), max_k=4)
        assert rhos == pytest.approx([1.0, 1.7, 2.4, 3.1])

    def test_rejects_nonpositive_max_k(self):
        with pytest.raises(ParameterError, match="max_k"):
            adm_solve_linear(
                lambda rho: rl_integral_power(0.7, rho), stfpp_weights(1.0, 1.0, 0), 0
            )
        with pytest.raises(ParameterError, match="weight"):
            adm_solve_linear(lambda rho: rl_integral_power(0.7, rho), [], 3)
