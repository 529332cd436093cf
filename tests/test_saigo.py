import math

import numpy as np
import pytest

from fracpois.adm import PowerSeries, PowerTerm, rl_integrate
from fracpois.errors import ParameterError
from fracpois.saigo import (
    SaigoParams,
    ck_log_coefficients,
    ck_log_run,
    composition_check,
    saigo_caputo_derivative_power,
    saigo_derivative_series,
    saigo_integral_power,
    saigo_integral_quadrature,
    saigo_integrate,
    semigroup_counterexample,
)


class TestSaigoParams:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ParameterError):
            SaigoParams(0.0, -0.5, 0.0)
        with pytest.raises(ParameterError):
            SaigoParams(-1.0, -0.5, 0.0)
        with pytest.raises(ParameterError):
            SaigoParams(float("inf"), -0.5, 0.0)


class TestIntegralPowerRule:
    def test_explicit_gamma_ratio(self):
        # I t^{rho-1} = G(rho) G(rho-b+g) / (G(rho-b) G(rho+a+g)) t^{rho-b-1}
        p = SaigoParams(0.5, -0.3, 0.2)
        term = saigo_integral_power(p, 1.0)
        expect = math.gamma(1.0) * math.gamma(1.5) / (math.gamma(1.3) * math.gamma(1.7))
        assert term.coeff == pytest.approx(expect, rel=1e-13)
        assert term.exponent == pytest.approx(0.3)

    def test_riemann_liouville_reduction(self):
        # beta = -alpha: gamma_p cancels and the multiplier is G(rho)/G(rho+a)
        for gamma_p in (0.0, 0.4, 1.1):
            p = SaigoParams(0.7, -0.7, gamma_p)
            for rho in (0.5, 1.0, 1.9, 3.3):
                term = saigo_integral_power(p, rho)
                expect = math.gamma(rho) / math.gamma(rho + 0.7)
                assert term.coeff == pytest.approx(expect, rel=1e-12)
                assert term.exponent == pytest.approx(rho - 0.3, abs=1e-12)

    def test_matches_rl_integrate_on_series(self):
        p = SaigoParams(0.6, -0.6, 0.25)
        s = PowerSeries((PowerTerm(2.0, 0.0), PowerTerm(-1.5, 0.8)))
        via_saigo = saigo_integrate(p, s)
        via_rl = rl_integrate(s, 0.6)
        for u, v in zip(via_saigo.terms, via_rl.terms):
            assert u.coeff == pytest.approx(v.coeff, rel=1e-12)
            assert u.exponent == pytest.approx(v.exponent, abs=1e-12)

    def test_erdelyi_kober_reduction(self):
        # beta = 0 keeps the exponent and multiplies by G(1+g)/G(1+a+g) at rho=1
        p = SaigoParams(0.5, 0.0, 0.3)
        term = saigo_integral_power(p, 1.0)
        assert term.exponent == pytest.approx(0.0, abs=1e-15)
        assert term.coeff == pytest.approx(math.gamma(1.3) / math.gamma(1.8), rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            saigo_integral_power(SaigoParams(0.5, -0.5, 0.0), 0.0)
        with pytest.raises(ParameterError):
            saigo_integral_power(SaigoParams(0.5, 0.8, 0.0), 0.5)  # rho <= beta - gamma


class TestCaputoDerivative:
    def test_caputo_reduction_at_rl_parameters(self):
        # beta = -alpha gives the classical Caputo power rule
        # G(rho+1)/G(rho-alpha+1)
        p = SaigoParams(0.6, -0.6, 0.25)
        term = saigo_caputo_derivative_power(p, 1.7)
        assert term.exponent == pytest.approx(1.1)
        assert term.coeff == pytest.approx(math.gamma(2.7) / math.gamma(2.1), rel=1e-12)
        assert term.coeff == pytest.approx(1.4760695049005748, rel=1e-12)

    def test_ordinary_derivative_at_order_one(self):
        p = SaigoParams(1.0, -1.0, 0.0)
        for rho in (0.5, 1.0, 2.25):
            term = saigo_caputo_derivative_power(p, rho)
            assert term.coeff == pytest.approx(rho, rel=1e-12)
            assert term.exponent == pytest.approx(rho - 1.0, abs=1e-12)

    def test_general_power_rule(self):
        # G(rho+1) G(rho+a+b+g+1) / (G(rho+b+1) G(rho+g+1)) t^{rho+beta}
        p = SaigoParams(0.8, -0.5, 0.1)
        rho = 1.3
        term = saigo_caputo_derivative_power(p, rho)
        expect = (
            math.gamma(rho + 1.0)
            * math.gamma(rho + 0.8 - 0.5 + 0.1 + 1.0)
            / (math.gamma(rho - 0.5 + 1.0) * math.gamma(rho + 0.1 + 1.0))
        )
        assert term.coeff == pytest.approx(expect, rel=1e-12)
        assert term.exponent == pytest.approx(rho - 0.5)

    def test_series_form_annihilates_constants(self):
        p = SaigoParams(0.7, -0.7, 0.0)
        s = PowerSeries((PowerTerm(5.0, 0.0), PowerTerm(2.0, 1.4)))
        out = saigo_derivative_series(p, s)
        assert len(out.terms) == 1
        assert out.terms[0].exponent == pytest.approx(0.7)

    def test_rejects_alpha_above_one(self):
        with pytest.raises(ParameterError):
            saigo_caputo_derivative_power(SaigoParams(1.5, -0.5, 0.0), 1.0)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ParameterError):
            saigo_caputo_derivative_power(SaigoParams(0.5, -0.5, 0.0), 0.0)


class TestQuadratureCrossCheck:
    def test_half_order_constant(self):
        # RL(1/2) of 1: t^{1/2}/G(3/2)
        p = SaigoParams(0.5, -0.5, 0.0)
        got = saigo_integral_quadrature(p, 1.0, 1.0)
        assert got == pytest.approx(1.0 / math.gamma(1.5), rel=1e-9)

    def test_ordinary_integral(self):
        p = SaigoParams(1.0, -1.0, 0.0)
        assert saigo_integral_quadrature(p, 1.0, 2.0) == pytest.approx(2.0, rel=1e-10)

    def test_against_power_rule(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            alpha = rng.uniform(0.3, 1.5)
            gamma_p = rng.uniform(0.0, 0.8)
            beta = rng.uniform(-1.0, gamma_p - 0.05)
            rho = rng.uniform(0.3, 2.5)
            t = rng.uniform(0.5, 2.0)
            p = SaigoParams(alpha, beta, gamma_p)
            lemma = saigo_integral_power(p, rho)
            direct = saigo_integral_quadrature(p, rho, t)
            assert direct == pytest.approx(
                lemma.coeff * t ** lemma.exponent, rel=1e-6
            ), (alpha, beta, gamma_p, rho, t)

    def test_rejects_bad_t(self):
        p = SaigoParams(0.5, -0.5, 0.0)
        with pytest.raises(ParameterError):
            saigo_integral_quadrature(p, 1.0, 0.0)


class TestComposition:
    def test_exact_recovery_tuples(self):
        for alpha, beta, gamma_p, rho in [
            (0.6, -0.6, 0.0, 2.0),
            (0.6, -0.4, 0.3, 1.5),
            (1.0, -1.0, 0.7, 1.0),
            (0.35, -0.8, 0.45, 2.7),
        ]:
            p = SaigoParams(alpha, beta, gamma_p)
            for t in (0.5, 1.0, 2.0):
                assert composition_check(p, rho, t) <= 1e-10

    def test_ordinary_calculus_case_is_exact(self):
        # alpha = 1, beta = -1 is integrate-after-differentiate on t^rho
        p = SaigoParams(1.0, -1.0, 0.0)
        assert composition_check(p, 1.0, 1.0) == 0.0

    def test_rejects_bad_t(self):
        with pytest.raises(ParameterError):
            composition_check(SaigoParams(0.5, -0.5, 0.0), 1.0, -1.0)


class TestSemigroup:
    def test_riemann_liouville_orders_commute(self):
        p1 = SaigoParams(0.5, -0.5, 0.9)
        p2 = SaigoParams(0.3, -0.3, 0.1)
        chk = semigroup_counterexample(p1, p2, 1.2)
        assert not chk.differ
        assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)
        # both orders equal the single integral of the summed order
        joint = math.gamma(1.2) / math.gamma(1.2 + 0.8)
        assert chk.lhs == pytest.approx(joint, rel=1e-12)
        assert chk.exponent == pytest.approx(1.2 + 0.8 - 1.0)

    def test_general_parameters_do_not_commute(self):
        p1 = SaigoParams(0.5, -0.2, 0.3)
        p2 = SaigoParams(0.7, -0.4, 0.1)
        chk = semigroup_counterexample(p1, p2, 1.0)
        assert chk.differ
        assert chk.lhs == pytest.approx(0.92956518819776178, rel=1e-12)
        assert chk.rhs == pytest.approx(0.96762148464999279, rel=1e-12)
        rel = abs(chk.lhs - chk.rhs) / max(abs(chk.lhs), abs(chk.rhs))
        assert rel > 1e-3

    def test_symmetry_of_report(self):
        p1 = SaigoParams(0.5, -0.2, 0.3)
        p2 = SaigoParams(0.7, -0.4, 0.1)
        a = semigroup_counterexample(p1, p2, 1.0)
        b = semigroup_counterexample(p2, p1, 1.0)
        assert a.lhs == pytest.approx(b.rhs, rel=1e-14)
        assert a.rhs == pytest.approx(b.lhs, rel=1e-14)

    def test_precondition_violation(self):
        with pytest.raises(ParameterError):
            semigroup_counterexample(
                SaigoParams(0.5, 0.8, 0.1), SaigoParams(0.7, -0.4, 0.1), 0.5
            )


class TestCkCoefficients:
    def test_empty_product(self):
        p = SaigoParams(0.8, -0.5, 0.1)
        assert [math.exp(v) for v in ck_log_coefficients(p, 0)] == [1.0]

    def test_rl_family_collapses_to_one(self):
        # beta = -alpha makes every factor G(1+g+j a)/G(1+g+j a) = 1
        p = SaigoParams(0.7, -0.7, 0.3)
        for v in ck_log_coefficients(p, 12):
            assert math.exp(v) == pytest.approx(1.0, rel=1e-13)

    def test_first_factor(self):
        p = SaigoParams(0.8, -0.5, 0.1)
        expect = math.gamma(1.6) / math.gamma(1.9)
        assert math.exp(ck_log_coefficients(p, 1)[1]) == pytest.approx(expect, rel=1e-13)

    def test_cumulative_consistency(self):
        p = SaigoParams(0.6, -0.45, 0.2)
        logs = ck_log_coefficients(p, 8)
        a, b, g = 0.6, -0.45, 0.2
        direct = 0.0
        for j in range(1, 9):
            direct += math.lgamma(1 + g - j * b) - math.lgamma(1 + g + a - (j - 1) * b)
            assert logs[j] == pytest.approx(direct, abs=1e-12)

    def test_runs_continue_the_sum(self):
        # a table grown run by run holds the same floats as one built whole
        p = SaigoParams(0.6, -0.45, 0.2)
        runs: list[float] = []
        for start, stop in ((0, 1), (1, 8), (8, 9), (9, 21)):
            runs += ck_log_run(p, start, stop, runs[-1] if runs else 0.0)
        assert runs == ck_log_coefficients(p, 20)

    def test_requires_negative_beta(self):
        with pytest.raises(ParameterError):
            ck_log_coefficients(SaigoParams(0.5, 0.0, 0.0), 3)

    def test_rejects_inadmissible_gamma(self):
        with pytest.raises(ParameterError):
            ck_log_coefficients(SaigoParams(0.5, -0.3, -1.5), 3)
