import math

import numpy as np
import pytest

from fracpois.errors import ConvergenceError, ParameterError
from fracpois.processes import FractionalParams, kolmogorov_residual
from fracpois.saigo import (
    SaigoParams,
    ck_log_coefficients,
    composition_check,
    saigo_caputo_derivative_power,
    saigo_integral_power,
    semigroup_counterexample,
)
from oracles import saigo_integral_quadrature


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

    def test_erdelyi_kober_reduction(self):
        # beta = 0 keeps the exponent and multiplies by G(1+g)/G(1+a+g) at rho=1
        p = SaigoParams(0.5, 0.0, 0.3)
        term = saigo_integral_power(p, 1.0)
        assert term.exponent == pytest.approx(0.0, abs=1e-15)
        assert term.coeff == pytest.approx(math.gamma(1.3) / math.gamma(1.8), rel=1e-13)

    def test_multiplier_past_huge_is_refused(self):
        # G(rho) / G(rho + 1) = 1 / rho: 1e250 is returned, and 2e323 (ln 744.4,
        # past LOG_HUGE) is refused, as the series kernel refuses its terms;
        # kolmogorov_residual at alpha = 5e-324 raised OverflowError from exp
        p = SaigoParams(1.0, 0.0, 0.0)
        assert saigo_integral_power(p, 1e-250).coeff == pytest.approx(1e250, rel=1e-12)
        with pytest.raises(ConvergenceError, match="Saigo multiplier overflow"):
            saigo_integral_power(p, 5e-324)
        with pytest.raises(ConvergenceError, match="Saigo multiplier overflow"):
            kolmogorov_residual(FractionalParams(1.0, alpha=5e-324), 1.0, 1, 5)

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

    def test_rejects_alpha_above_one(self):
        with pytest.raises(ParameterError):
            saigo_caputo_derivative_power(SaigoParams(1.5, -0.5, 0.0), 1.0)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ParameterError):
            saigo_caputo_derivative_power(SaigoParams(0.5, -0.5, 0.0), 0.0)
        with pytest.raises(ParameterError):
            saigo_caputo_derivative_power(SaigoParams(0.5, -0.5, 0.0), -0.5)
        # the inner integral's domain: rho > -beta - 1 - alpha - gamma = 1
        with pytest.raises(ParameterError):
            saigo_caputo_derivative_power(SaigoParams(0.5, -2.5, 0.0), 0.5)


class TestPowerDomain:
    """The operators own the power domain: inside it, an image is whatever
    power the rule gives, t^(-1) and below included."""

    def test_derivative_image_below_minus_one(self):
        # the inner integral's domain: rho > -beta - 1 - alpha - gamma = 0.1
        a, b, g = 0.8, -2.0, 0.1
        for rho in (0.2, 0.5, 0.9):
            term = saigo_caputo_derivative_power(SaigoParams(a, b, g), rho)
            expect = (
                math.gamma(rho + 1.0) * math.gamma(rho + a + b + g + 1.0)
                / (math.gamma(rho + b + 1.0) * math.gamma(rho + g + 1.0))
            )
            assert term.exponent == rho + b
            assert term.coeff == pytest.approx(expect, rel=1e-12), rho

    def test_integral_image_below_minus_one(self):
        # rho = 0.8 > max(0, beta - gamma) = 0.5: the image is t^(-1.2)
        a, b, g, rho = 0.5, 1.0, 0.5, 0.8
        term = saigo_integral_power(SaigoParams(a, b, g), rho)
        expect = (
            math.gamma(rho) * math.gamma(rho - b + g)
            / (math.gamma(rho - b) * math.gamma(rho + a + g))
        )
        assert term.exponent == pytest.approx(-1.2, abs=1e-15)
        assert term.coeff == pytest.approx(expect, rel=1e-12)

    def test_composition_outside_the_integral_domain(self):
        # D t^0.5 = c t^(-1.5), whose integral needs rho = -0.5 > 0
        with pytest.raises(ParameterError, match="saigo_integral_power: requires rho > 0"):
            composition_check(SaigoParams(0.8, -2.0, 0.1), 0.5, 1.0)


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
        points = []
        for _ in range(12):
            alpha = rng.uniform(0.3, 1.5)
            gamma_p = rng.uniform(0.0, 0.8)
            beta = rng.uniform(-1.0, gamma_p - 0.05)
            rho = rng.uniform(0.3, 2.5)
            t = rng.uniform(0.5, 2.0)
            points.append((alpha, beta, gamma_p, rho, t))
        # beta > gamma, where the quadrature's kernel is Euler's transformation
        points += [(0.5, 1.0, 0.5, 0.8, 1.0), (0.8, 0.6, 0.1, 1.2, 1.7),
                   (1.3, 0.4, 0.0, 0.9, 0.6), (0.4, 2.0, 0.3, 2.5, 1.2)]
        for alpha, beta, gamma_p, rho, t in points:
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
        # one input per condition of the two-step domain
        general = SaigoParams(0.7, -0.4, 0.1)
        outside = [
            (SaigoParams(0.5, -0.2, 0.3), general, 0.0),  # rho <= 0
            (SaigoParams(0.5, 0.8, 0.1), general, 0.5),  # rho <= beta1 - gamma1
            (general, SaigoParams(0.5, 0.8, 0.1), 0.5),  # rho <= beta2 - gamma2
            (SaigoParams(0.5, 0.8, 1.0), general, 0.5),  # rho - beta1 <= 0
            # rho - beta2 <= beta1 - gamma1
            (SaigoParams(0.5, 0.2, -0.6), SaigoParams(0.7, 0.3, 0.5), 1.0),
        ]
        for p1, p2, rho in outside:
            with pytest.raises(ParameterError):
                semigroup_counterexample(p1, p2, rho)
        # just inside the last two boundaries: the multipliers, as float.hex
        inside = [
            ((SaigoParams(0.5, 0.8, 1.0), general, 0.8 + 1e-9),
             ("0x1.3615059a3ca4ep-2", "0x1.5ea96d4ca4e76p-1")),
            ((SaigoParams(0.5, 0.2, -0.6), SaigoParams(0.7, 0.3, 0.5), 1.1 + 1e-9),
             ("0x1.6909d22ffba6cp+28", "0x1.bcc54f305b7e7p+0")),
        ]
        for args, pinned in inside:
            chk = semigroup_counterexample(*args)
            assert (chk.lhs.hex(), chk.rhs.hex()) == pinned


class TestCkCoefficients:
    def test_empty_product(self):
        p = SaigoParams(0.8, -0.5, 0.1)
        assert [math.exp(v) for v in ck_log_coefficients(p, 0, 1, 0.0)] == [1.0]

    def test_rl_family_collapses_to_one(self):
        # beta = -alpha makes every factor G(1+g+j a)/G(1+g+j a) = 1
        p = SaigoParams(0.7, -0.7, 0.3)
        for v in ck_log_coefficients(p, 0, 13, 0.0):
            assert math.exp(v) == pytest.approx(1.0, rel=1e-13)

    def test_first_factor(self):
        p = SaigoParams(0.8, -0.5, 0.1)
        expect = math.gamma(1.6) / math.gamma(1.9)
        assert math.exp(ck_log_coefficients(p, 0, 2, 0.0)[1]) == pytest.approx(expect, rel=1e-13)

    def test_cumulative_consistency(self):
        p = SaigoParams(0.6, -0.45, 0.2)
        logs = ck_log_coefficients(p, 0, 9, 0.0)
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
            runs += ck_log_coefficients(p, start, stop, runs[-1] if runs else 0.0)
        assert runs == ck_log_coefficients(p, 0, 21, 0.0)

    def test_requires_negative_beta(self):
        with pytest.raises(ParameterError):
            ck_log_coefficients(SaigoParams(0.5, 0.0, 0.0), 0, 4, 0.0)

    def test_rejects_inadmissible_gamma(self):
        with pytest.raises(ParameterError):
            ck_log_coefficients(SaigoParams(0.5, -0.3, -1.5), 0, 4, 0.0)
