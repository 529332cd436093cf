import math

import pytest
from hypothesis import given, settings, strategies as st

from fracpois.adm import PowerSeries, PowerTerm, adm_solve_linear
from fracpois.errors import ParameterError
from fracpois.specfun import falling_factorial
from oracles import rl_integrate


def series(*pairs):
    return PowerSeries(tuple(PowerTerm(c, e) for c, e in pairs))


class TestPowerSeries:
    def test_term_rejects_low_exponent(self):
        with pytest.raises(ParameterError):
            PowerTerm(1.0, -1.0)
        with pytest.raises(ParameterError):
            PowerTerm(1.0, -1.5)

    def test_normalization_merges_and_sorts(self):
        s = series((2.0, 1.0), (3.0, 0.0), (0.5, 1.0))
        assert [(t.coeff, t.exponent) for t in s.terms] == [(3.0, 0.0), (2.5, 1.0)]

    def test_zero_coefficients_dropped(self):
        s = series((1.0, 2.0), (-1.0, 2.0))
        assert s.terms == ()
        assert not s

    def test_evaluate(self):
        assert PowerSeries.constant(1.0).evaluate(5.0) == 1.0
        assert series((2.0, 1.0), (1.0, 2.0)).evaluate(2.0) == pytest.approx(8.0)
        assert PowerSeries.zero().evaluate(3.0) == 0.0

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
        out = rl_integrate(PowerSeries.constant(1.0), 1.0)
        assert [(t.coeff, t.exponent) for t in out.terms] == [(1.0, 1.0)]
        out = rl_integrate(series((2.0, 1.0), (3.0, 2.0)), 1.0)
        assert [(t.coeff, t.exponent) for t in out.terms] == [
            (pytest.approx(1.0), 2.0),
            (pytest.approx(1.0), 3.0),
        ]

    def test_half_order_of_constant(self):
        # I^{1/2} 1 = t^{1/2} / Gamma(3/2)
        out = rl_integrate(PowerSeries.constant(1.0), 0.5)
        (term,) = out.terms
        assert term.exponent == pytest.approx(0.5)
        assert term.coeff == pytest.approx(1.0 / math.gamma(1.5), rel=1e-13)
        assert term.coeff == pytest.approx(1.1283791670955126, rel=1e-12)

    def test_power_rule(self):
        # I^alpha t^p = Gamma(p+1)/Gamma(p+1+alpha) t^{p+alpha}
        for alpha in (0.3, 0.75, 1.0):
            for p in (0.0, 0.5, 2.0):
                out = rl_integrate(series((1.0, p)), alpha)
                (term,) = out.terms
                assert term.exponent == pytest.approx(p + alpha)
                expect = math.gamma(p + 1.0) / math.gamma(p + 1.0 + alpha)
                assert term.coeff == pytest.approx(expect, rel=1e-12)

    def test_semigroup(self):
        s = series((1.0, 0.0), (2.0, 0.7))
        for a, b in [(0.3, 0.4), (0.5, 0.5), (0.25, 0.6)]:
            once = rl_integrate(rl_integrate(s, a), b)
            joint = rl_integrate(s, a + b)
            for u, v in zip(once.terms, joint.terms):
                assert u.exponent == pytest.approx(v.exponent, abs=1e-12)
                assert u.coeff == pytest.approx(v.coeff, rel=1e-12)

    def test_rejects_bad_order(self):
        with pytest.raises(ParameterError):
            rl_integrate(PowerSeries.constant(1.0), 0.0)
        with pytest.raises(ParameterError):
            rl_integrate(PowerSeries.constant(1.0), 1.5)


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
        iterates = adm_solve_linear(
            lambda s: rl_integrate(s, alpha), stfpp_weights(lam, 1.0, 6), max_k=6
        )
        assert len(iterates) == 7
        for k in range(7):
            (term,) = iterates[0][k].terms
            expect = (-lam) ** k / math.gamma(k * alpha + 1.0)
            assert term.coeff == pytest.approx(expect, rel=1e-12)
            assert term.exponent == pytest.approx(k * alpha, abs=1e-12)

    def test_space_fractional_coupling_iterate(self):
        # n=0, k=2 iterate of the space-time cascade: (lam^nu)^2 t^{2a}/Gamma(2a+1)
        lam, alpha, nu = 1.0, 0.7, 0.5
        iterates = adm_solve_linear(
            lambda s: rl_integrate(s, alpha), stfpp_weights(lam, nu, 1), max_k=2
        )
        (term,) = iterates[0][2].terms
        assert term.exponent == pytest.approx(1.4)
        assert term.coeff == pytest.approx(lam ** nu * lam ** nu / math.gamma(2.4), rel=1e-12)

    def test_integer_order_iterates_vanish_below_diagonal(self):
        # with nu = 1 the cascade is triangular: state n needs at least n steps
        iterates = adm_solve_linear(
            lambda s: rl_integrate(s, 0.6), stfpp_weights(1.0, 1.0, 3), max_k=4
        )
        assert not iterates[1][0]
        assert not iterates[2][1]
        assert not iterates[3][2]
        assert iterates[2][2]

    def test_rejects_nonpositive_max_k(self):
        with pytest.raises(ParameterError, match="max_k"):
            adm_solve_linear(lambda s: rl_integrate(s, 0.7), stfpp_weights(1.0, 1.0, 0), 0)
        with pytest.raises(ParameterError, match="weight"):
            adm_solve_linear(lambda s: rl_integrate(s, 0.7), [], 3)
