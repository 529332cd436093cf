import math

import numpy as np
import pytest

from fracpois.errors import ParameterError, UnsupportedVariantError
from fracpois.processes import (
    FractionalParams,
    pmf_table,
    pmf_tail_mass,
    waiting_survival,
)
from fracpois.simulate import (
    EmpiricalPmf,
    chi_square_gof,
    empirical_pmf,
    sample_inverse_stable,
    sample_process,
    sample_stable,
)

CLASSICAL = FractionalParams(1.0)
TFPP = FractionalParams(1.0, alpha=0.6)
SFPP = FractionalParams(1.0, nu=0.6, beta=-1.0)
STFPP = FractionalParams(1.0, alpha=0.7, nu=0.6)
SSTFPP = FractionalParams(1.0, alpha=0.8, nu=0.6, beta=-0.5, gamma_p=0.1)


class TestStableSampler:
    def test_rejects_degenerate_order(self):
        with pytest.raises(ParameterError):
            sample_stable(1.0, 1.0, 1)
        with pytest.raises(ParameterError):
            sample_inverse_stable(1.0, 1.0, 1)

    def test_rejects_bad_time(self):
        with pytest.raises(ParameterError):
            sample_stable(0.5, 0.0, 1)

    def test_positive_draws(self):
        d = sample_stable(0.6, 1.0, 7, size=10_000)
        assert np.all(d > 0.0)
        e = sample_inverse_stable(0.7, 1.0, 7, size=10_000)
        assert np.all(e > 0.0)

    def test_scalar_mode(self):
        x = sample_stable(0.6, 1.0, 3)
        assert isinstance(x, float) and x > 0.0

    def test_laplace_transform(self):
        # E exp(-s D_nu(t)) = exp(-t s^nu); a z-test at three transform
        # points, 4 standard errors wide
        n = 200_000
        for nu, t in [(0.5, 1.0), (0.7, 2.0), (0.9, 0.5)]:
            d = sample_stable(nu, t, 2026, size=n)
            for s in (0.5, 1.0, 2.0):
                obs = np.exp(-s * d)
                z = (obs.mean() - math.exp(-t * s ** nu)) / (obs.std() / math.sqrt(n))
                assert abs(z) < 4.0, (nu, t, s, z)

    def test_half_stable_closed_form(self):
        # nu = 1/2 is the Levy distribution: P(D_{1/2}(t) <= s) = erfc(t/(2 sqrt(s)))
        n = 200_000
        d = sample_stable(0.5, 1.0, 99, size=n)
        for s in (0.5, 2.0, 10.0):
            target = math.erfc(1.0 / (2.0 * math.sqrt(s)))
            obs = float(np.mean(d <= s))
            se = math.sqrt(target * (1.0 - target) / n)
            assert abs(obs - target) < 4.0 * se, (s, obs, target)

    def test_inverse_stable_moments(self):
        # E[E_a(t)] = t^a/G(1+a), E[E_a(t)^2] = 2 t^{2a}/G(1+2a)
        n = 200_000
        alpha, t = 0.6, 1.5
        e = sample_inverse_stable(alpha, t, 515, size=n)
        m1 = t ** alpha / math.gamma(1.0 + alpha)
        m2 = 2.0 * t ** (2 * alpha) / math.gamma(1.0 + 2 * alpha)
        z = (e.mean() - m1) / math.sqrt((m2 - m1 ** 2) / n)
        assert abs(z) < 4.0, z


class TestSampleProcess:
    def test_deterministic_for_fixed_seed(self):
        a = sample_process(STFPP, 1.0, 42, size=1000)
        b = sample_process(STFPP, 1.0, 42, size=1000)
        assert np.array_equal(a, b)

    def test_zero_time(self):
        assert np.all(sample_process(TFPP, 0.0, 1, size=100) == 0)
        assert sample_process(TFPP, 0.0, 1) == 0

    def test_counts_are_nonnegative_integers(self):
        for params in (CLASSICAL, TFPP, SFPP, STFPP):
            d = sample_process(params, 1.0, 11, size=5000)
            assert d.dtype.kind == "i"
            assert np.all(d >= 0)

    def test_saigo_variant_rejected(self):
        with pytest.raises(UnsupportedVariantError):
            sample_process(SSTFPP, 1.0, 1)

    def test_rejects_negative_time(self):
        with pytest.raises(ParameterError):
            sample_process(CLASSICAL, -1.0, 1)

    def test_generator_instance_accepted(self):
        rng = np.random.default_rng(5)
        a = sample_process(CLASSICAL, 1.0, rng, size=10)
        b = sample_process(CLASSICAL, 1.0, rng, size=10)
        # the generator advances: two batches must not be identical
        assert not np.array_equal(a, b)

    def test_survival_frequency_matches_closed_form(self):
        # the zero-count frequency is the one statistic with an exact
        # closed form for every simulable variant
        n = 30_000
        for params, seed in [(TFPP, 8), (SFPP, 9), (STFPP, 10)]:
            d = sample_process(params, 1.0, seed, size=n)
            target = waiting_survival(params, 1.0)
            obs = float(np.mean(d == 0))
            se = math.sqrt(target * (1.0 - target) / n)
            assert abs(obs - target) < 3.5 * se, (params.variant, obs, target)


class TestEmpiricalPmf:
    def test_counts_partition_the_sample(self):
        emp = empirical_pmf(STFPP, 1.0, 5000, 10, 21)
        assert sum(emp.counts) + emp.overflow == 5000
        assert emp.frequency(0) == emp.counts[0] / 5000

    def test_invariant_enforced(self):
        with pytest.raises(ParameterError):
            EmpiricalPmf(STFPP, 1.0, 2, 100, (50, 30, 10), 5)
        # each of these sums to its sample count: (n_max, samples, counts, overflow)
        for n_max, sample_count, counts, overflow in (
            (1, 10, (12, -2), 0),        # negative count
            (1, 10, (6, 6), -2),         # negative overflow
            (2, 10, (5, 3), 2),          # 2 counts for states 0..2
            (2, 10, (5, 3, 1, 1), 0),    # 4 counts for states 0..2
            (2, 0, (0, 0, 0), 0),        # no samples
        ):
            with pytest.raises(ParameterError):
                EmpiricalPmf(STFPP, 1.0, n_max, sample_count, counts, overflow)

    def test_single_sample(self):
        emp = empirical_pmf(CLASSICAL, 1.0, 1, 3, 2)
        assert sum(emp.counts) + emp.overflow == 1


class TestChiSquare:
    def test_classical_fit(self):
        emp = empirical_pmf(CLASSICAL, 1.0, 20_000, 12, 77)
        stat, pvalue, dof = chi_square_gof(emp)
        assert dof >= 1
        assert 0.01 < pvalue <= 1.0, (stat, pvalue, dof)

    def test_fractional_fit_quick(self):
        emp = empirical_pmf(STFPP, 1.0, 20_000, 25, 78)
        _, pvalue, dof = chi_square_gof(emp)
        assert dof >= 3
        assert pvalue > 0.01

    def test_mismatched_parameters_rejected_strongly(self):
        # samples from lam = 1 tested against lam = 2 must fail decisively
        emp = empirical_pmf(CLASSICAL, 1.0, 20_000, 12, 79)
        wrong = EmpiricalPmf(
            FractionalParams(2.0), emp.t, emp.n_max, emp.sample_count,
            emp.counts, emp.overflow,
        )
        _, pvalue, _ = chi_square_gof(wrong)
        assert pvalue < 1e-6

    def test_pooling_respects_minimum(self):
        # tiny sample forces aggressive pooling but never a crash
        emp = empirical_pmf(CLASSICAL, 1.0, 200, 30, 80)
        stat, pvalue, dof = chi_square_gof(emp)
        assert dof >= 1 and math.isfinite(stat)

    def test_fewer_than_two_bins_rejected(self):
        emp = empirical_pmf(CLASSICAL, 1.0, 1, 10, 2)
        with pytest.raises(ParameterError, match="fewer than two usable bins"):
            chi_square_gof(emp)

    def test_p_value_matches_scipy_stats(self):
        # the p-value is scipy.special.chdtrc; scipy.stats is the oracle
        from scipy import stats

        seen_dof = set()
        for lam in (1.0, 4.0, 8.0):
            params = FractionalParams(lam)
            table = pmf_table(params, [1.0], 30)
            base = [round(q * 100_000) for q in table.probs[0]]
            mode = base.index(max(base))
            base[mode] += 100_000 - sum(base)  # no overflow
            for shift in (0, 30, 100, 300, 1000, 3000, 10_000):
                counts = base[:]
                counts[mode] -= shift
                counts[mode + 1] += shift
                emp = EmpiricalPmf(params, 1.0, 30, 100_000, tuple(counts), 0)
                stat, pvalue, dof = chi_square_gof(emp)
                seen_dof.add(dof)
                assert pvalue == float(stats.chi2.sf(stat, dof)), (lam, shift)
        assert len(seen_dof) == 3

    def test_tail_bin_uses_exact_mass(self):
        # with n_max = 0 everything beyond 0 is the overflow bin, whose
        # expected mass must be 1 - survival
        emp = empirical_pmf(CLASSICAL, 1.0, 5000, 0, 81)
        assert pmf_tail_mass(CLASSICAL, 1.0, 0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-12
        )
        stat, pvalue, dof = chi_square_gof(emp)
        assert dof == 1
        assert pvalue > 0.001
