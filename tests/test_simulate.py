import math
import random
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings, strategies as st

from fracpois import simulate
from fracpois.errors import ParameterError, UnsupportedVariantError
from fracpois.processes import (
    FractionalParams,
    PmfTable,
    pmf_table,
    pmf_tail_mass,
    waiting_survival,
)
from fracpois.simulate import (
    _BLOCK,
    _LAM_CLAMP,
    EmpiricalPmf,
    _chi2_sf,
    _chi_square,
    _poisson_counts,
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

# The chi-square p-value's relative error bounds against 50-digit mpmath, as
# (smallest p, bound); a p-value below the last band need only lie in
# [0, 1e-299].
P_VALUE_BOUNDS = ((1e-20, 1e-14), (1e-100, 5e-14), (1e-300, 1e-12))


def assert_p_value_accurate(mpmath, dof: int, stat: float, pvalue: float) -> int:
    """Assert pvalue's bound against Q(dof/2, stat/2) at 50 digits; return its band."""
    with mpmath.workdps(50):
        exact = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(stat) / 2, mpmath.inf,
                                regularized=True)
        for band, (floor, bound) in enumerate(P_VALUE_BOUNDS):
            if exact >= floor:
                assert abs(pvalue - exact) <= bound * exact, (dof, stat, pvalue)
                return band
    assert 0.0 <= pvalue <= 1e-299, (dof, stat, pvalue)
    return len(P_VALUE_BOUNDS)


class TestStableSampler:
    def test_rejects_degenerate_order(self):
        with pytest.raises(ParameterError):
            sample_stable(1.0, 1.0, 1)
        with pytest.raises(ParameterError):
            sample_inverse_stable(1.0, 1.0, 1)

    def test_rejects_bad_time(self):
        with pytest.raises(ParameterError):
            sample_stable(0.5, 0.0, 1)

    @pytest.mark.parametrize("sampler", [sample_stable, sample_inverse_stable])
    @pytest.mark.parametrize(
        "seed, size",
        [(1, 2.5), (1, True), (1, -1), (-1, 10), (2.5, 10), ("3", 10), (True, 10), (None, 10)],
    )
    def test_rejects_bad_size_and_seed(self, sampler, seed, size):
        with pytest.raises(ParameterError):
            sampler(0.5, 1.0, seed, size)

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

    @pytest.mark.parametrize(
        "seed, size",
        [(1, 2.5), (1, True), (1, -1), (-1, 10), (-1, None),
         (2.5, 10), ("3", 10), (True, 10), (None, 10)],
    )
    def test_rejects_bad_size_and_seed(self, seed, size):
        for params in (CLASSICAL, STFPP):
            with pytest.raises(ParameterError):
                sample_process(params, 1.0, seed, size)

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

    @pytest.mark.parametrize("n_samples, n_max, seed", [
        (True, 5, 1), (2.5, 5, 1), (0, 5, 1), (-3, 5, 1),
        (10, 2.0, 1), (10, True, 1), (10, -1, 1), (10, "3", 1),
        (10, 5, -1),
    ])
    def test_rejects_bad_input(self, n_samples, n_max, seed):
        with pytest.raises(ParameterError):
            empirical_pmf(STFPP, 1.0, n_samples, n_max, seed)

    def test_numpy_integers_accepted(self):
        emp = empirical_pmf(TFPP, 1.0, np.int64(50), np.int32(4), np.uint8(3))
        assert emp == empirical_pmf(TFPP, 1.0, 50, 4, 3)
        assert type(emp.n_max) is int and type(emp.sample_count) is int

    def test_transient_memory(self):
        # numpy reports its buffers to tracemalloc, from every thread; the
        # sampler holds at most U and E (the counts reuse E), the stfpp one
        # also the inverse-stable time, plus a few blocks of scratch; the
        # classical one draws at a scalar intensity and holds the counts only
        n = 200_000
        for params, arrays in ((CLASSICAL, 1.25), (TFPP, 2.25), (SFPP, 2.25), (STFPP, 3.25)):
            empirical_pmf(params, 1.0, n, 25, 6)
            tracemalloc.start()
            try:
                empirical_pmf(params, 1.0, n, 25, 7)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= arrays * 8 * n, (params.variant, peak / (8 * n))


class TestPoissonClamp:
    def test_infinite_intensity_draws_at_the_clamp(self):
        counts = _poisson_counts(np.random.default_rng(4), np.array([np.inf]))
        assert counts[0] == np.random.default_rng(4).poisson(_LAM_CLAMP)
        # lam * t overflows to inf, silently: every draw lands in the overflow bin
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emp = empirical_pmf(FractionalParams(1e300), 1e300, 5, 10, 4)
        assert emp.counts == (0,) * 11 and emp.overflow == 5

    @pytest.mark.parametrize("t", [1e300, 1e-300])
    @pytest.mark.parametrize("params", [
        FractionalParams(1e300),
        FractionalParams(1e300, alpha=0.7),
        FractionalParams(1e300, nu=0.6, beta=-1.0),
        FractionalParams(1e300, alpha=0.7, nu=0.6),
    ], ids=lambda p: p.variant)
    def test_extreme_finite_times_draw_silently(self, params, t):
        # a subordinator scale past the float range is an inf clock, which
        # lands in the overflow bin: no OverflowError, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emp = empirical_pmf(params, t, 5, 3, 4)
        if t > 1.0:
            assert emp.overflow == 5

    def test_nan_intensity_draws_zero(self):
        counts = _poisson_counts(np.random.default_rng(4), np.array([np.nan, np.nan]))
        assert counts.tolist() == [0, 0]

    def test_clamps_the_intensities_in_place(self):
        lam = np.array([0.5, np.inf, np.nan, 2e15, _LAM_CLAMP, 0.0, 3.0])
        clamped = np.minimum(np.nan_to_num(lam, posinf=_LAM_CLAMP), _LAM_CLAMP)
        counts = _poisson_counts(np.random.default_rng(9), lam)
        assert np.array_equal(lam, clamped)
        assert np.array_equal(counts, np.random.default_rng(9).poisson(clamped))


# Sizes on both sides of each block edge of the in-place stable kernel.
BIT_SIZES = (1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, 100_000)
BIT_SEEDS = (0, 1, 42)


class TestOneShotBitIdentity:
    """The in-place, blocked sampler draws exactly the one-shot oracle's bits."""

    # nu = 1/2 and 2/3 give numpy's power its square, identity and square-root
    # exponents, which it computes by other ufuncs
    @pytest.mark.parametrize("size", BIT_SIZES)
    def test_stable_draws(self, size):
        for seed in BIT_SEEDS:
            for nu, t in ((0.5, 1.0), (0.6, 0.3), (2.0 / 3.0, 4.0), (0.93, 1.0)):
                got = sample_stable(nu, t, seed, size)
                assert np.array_equal(got, oracles.sample_stable(nu, t, seed, size)), (seed, nu)
                got = sample_inverse_stable(nu, t, seed, size)
                want = oracles.sample_inverse_stable(nu, t, seed, size)
                assert np.array_equal(got, want), (seed, nu)

    @pytest.mark.parametrize("size", BIT_SIZES)
    def test_process_draws(self, size):
        for seed in BIT_SEEDS:
            for params in (CLASSICAL, TFPP, SFPP, STFPP):
                for t in (0.3, 1.0, 4.0):
                    got = sample_process(params, t, seed, size)
                    want = oracles.sample_process(params, t, seed, size)
                    assert got.dtype == want.dtype, params.variant
                    assert np.array_equal(got, want), (seed, params.variant, t)

    def test_scalar_mode(self):
        for seed in BIT_SEEDS:
            assert sample_stable(0.6, 2.0, seed) == oracles.sample_stable(0.6, 2.0, seed, 1)[0]
            x = sample_inverse_stable(0.7, 2.0, seed)
            assert x == oracles.sample_inverse_stable(0.7, 2.0, seed, 1)[0]
            for params in (CLASSICAL, TFPP, SFPP, STFPP):
                n = sample_process(params, 2.0, seed)
                assert type(n) is int
                assert n == oracles.sample_process(params, 2.0, seed, 1)[0], params.variant

    @pytest.mark.parametrize("n_samples", (1, 7, 3 * _BLOCK + 5))
    def test_histogram(self, n_samples):
        for seed in BIT_SEEDS:
            for params in (CLASSICAL, TFPP, SFPP, STFPP):
                for n_max in (0, 2, 25):
                    emp = empirical_pmf(params, 1.5, n_samples, n_max, seed)
                    counts, overflow = oracles.empirical_histogram(params, 1.5, n_samples, n_max, seed)
                    assert (emp.counts, emp.overflow) == (counts, overflow), (seed, params.variant)


class TestHelperThread:
    """The helper thread that forms the stable variates beside the draws."""

    N = 10 * _BLOCK + 5

    @staticmethod
    def fail_on_call(monkeypatch, name, k, fail):
        # the k-th call of simulate.<name>, on whichever thread, runs fail()
        real = getattr(simulate, name)
        lock = threading.Lock()
        calls = [0]

        def wrapper(*args):
            with lock:
                calls[0] += 1
                n = calls[0]
            if n == k:
                fail()
            return real(*args)

        monkeypatch.setattr(simulate, name, wrapper)

    @staticmethod
    def raise_error():
        raise RuntimeError("third call")

    @staticmethod
    def warn():
        warnings.warn("third call", RuntimeWarning)

    @pytest.mark.parametrize("fail", ["raise_error", "warn"])
    @pytest.mark.parametrize("name", ["_stable_block", "_poisson_counts"])
    @pytest.mark.parametrize("params", [TFPP, STFPP], ids=lambda p: p.variant)
    def test_error_reaches_the_caller(self, monkeypatch, params, name, fail):
        # a kernel error is raised on the helper (or, for the stfpp inner
        # clock, on either thread), a Poisson error on the caller; either
        # way the call raises it and leaves no thread behind
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        self.fail_on_call(monkeypatch, name, 3, getattr(self, fail))
        baseline = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((RuntimeError, RuntimeWarning), match="third call"):
                empirical_pmf(params, 1.0, self.N, 25, 1)
        assert threading.active_count() == baseline

    def test_concurrent_calls(self, monkeypatch):
        # four callers at once, each with its own seed and helper thread,
        # under a short switch interval: each gets the oracle's histogram
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        results = {}

        def call(seed):
            params = (TFPP, SFPP, STFPP, STFPP)[seed]
            emp = empirical_pmf(params, 1.5, self.N, 25, seed)
            want = oracles.empirical_histogram(params, 1.5, self.N, 25, seed)
            results[seed] = (emp.counts, emp.overflow) == want

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(seed,)) for seed in range(4)]
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(c.is_alive() for c in callers)
        assert results == {0: True, 1: True, 2: True, 3: True}

    def test_one_cpu_runs_inline(self, monkeypatch):
        # with one usable CPU every block runs on the calling thread, and the
        # draws are the oracle's
        caller = threading.current_thread()
        kernel = simulate._stable_block

        def on_caller(*args):
            assert threading.current_thread() is caller
            kernel(*args)

        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(simulate, "_stable_block", on_caller)
        for seed in BIT_SEEDS:
            for params in (TFPP, SFPP, STFPP):
                got = sample_process(params, 1.5, seed, self.N)
                assert np.array_equal(got, oracles.sample_process(params, 1.5, seed, self.N))
            got = sample_stable(0.6, 2.0, seed, self.N)
            assert np.array_equal(got, oracles.sample_stable(0.6, 2.0, seed, self.N))


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
        # The pooled (stat, p-value, dof), as float.hex, of inputs that pool
        # a long run of tail bins; the last pools the tail bins and an
        # undersized interior bin (expected 60, 0.2, 80, 50, 8, 1, 0.6 and
        # an overflow of 0.2 pool to 60.2, 80, 50, 9.8).
        table = PmfTable(CLASSICAL, (1.0,), 6,
                         ((0.3, 0.001, 0.4, 0.25, 0.04, 0.005, 0.003),), (0.001,))
        hand = EmpiricalPmf(CLASSICAL, 1.0, 6, 200, (57, 2, 83, 47, 6, 3, 1), 1)
        cases = [
            (chi_square_gof(emp), ("0x1.6a360e054f1ccp-1", "0x1.be2eec547db7fp-1", 3)),
            (chi_square_gof(empirical_pmf(STFPP, 1.0, 200, 30, 3)),
             ("0x1.12c957daa35e8p+3", "0x1.24b42f10eae76p-1", 10)),
            (chi_square_gof(empirical_pmf(CLASSICAL, 1.0, 40, 12, 5)),
             ("0x1.b052c66ed70b0p+0", "0x1.b8238cb78b3c2p-2", 2)),
            (_chi_square(hand, table), ("0x1.da7acae29a173p-2", "0x1.da8df4dfca715p-1", 3)),
        ]
        for (stat, pvalue, dof), (stat_hex, pvalue_hex, want_dof) in cases:
            assert (stat.hex(), pvalue.hex(), dof) == (stat_hex, pvalue_hex, want_dof)

    def test_statistic_is_the_correctly_rounded_sum(self):
        # seed 5 (`fracpois simulate --variant tfpp --alpha 0.6 --samples
        # 100000 --seed 5 --n-max 20`): states 0..9 keep their bins and 10..20
        # pool with the overflow, right to left.  Its eleven terms added left
        # to right (the builtin sum() before Python 3.12) give ...553, and
        # math.fsum and 3.12's compensated sum() ...551: math.fsum gives the
        # same statistic on every Python version.
        emp = empirical_pmf(TFPP, 1.0, 100_000, 20, 5)
        stat, _, dof = chi_square_gof(emp)
        assert dof == 10
        table = pmf_table(TFPP, [1.0], 20)
        expected = [q * emp.sample_count for q in table.probs[0] + table.tail_mass]
        observed = [float(c) for c in emp.counts] + [float(emp.overflow)]
        for i in range(len(expected) - 1, 10, -1):
            expected[i - 1] += expected[i]
            observed[i - 1] += observed[i]
        terms = [(o - e) ** 2 / e for o, e in zip(observed[:11], expected[:11])]
        left_to_right = 0.0
        for term in terms:
            left_to_right += term
        assert stat == math.fsum(terms) == 13.974589569276551
        assert left_to_right == 13.974589569276553

    def test_fewer_than_two_bins_rejected(self):
        emp = empirical_pmf(CLASSICAL, 1.0, 1, 10, 2)
        with pytest.raises(ParameterError, match="fewer than two usable bins"):
            chi_square_gof(emp)

    def test_p_value_matches_scipy_stats(self):
        # the p-value against 50-digit mpmath, within P_VALUE_BOUNDS, and
        # against scipy.stats within its own measured error, 1e-13
        mpmath = pytest.importorskip("mpmath")
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
                assert_p_value_accurate(mpmath, dof, stat, pvalue)
                assert pvalue == pytest.approx(float(stats.chi2.sf(stat, dof)), rel=1e-13)
        assert len(seen_dof) == 3

    def test_p_value_sweep_against_mpmath(self):
        # a seeded sweep over dof 1..200 whose p-values reach every band of
        # P_VALUE_BOUNDS and below it, both sides of y = dof / 2, where the sum
        # turns from 1 - P to Q, and of y = _EXP_Y_MAX, where e^{-y} underflows
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(32)
        points = []
        for _ in range(400):
            dof = rng.randint(1, 200)
            if rng.random() < 0.7:
                points.append((dof, dof * math.exp(rng.uniform(-6.0, 3.0))))
            else:
                points.append((dof, rng.uniform(0.0, 4000.0)))
        # just past _EXP_Y_MAX at a low dof, where the asymptotic erfc series
        # below j = 0 still moves p above 1e-300
        points += [(dof, stat) for dof in range(1, 12) for stat in (1400.5, 1410.0)]
        bands = [assert_p_value_accurate(mpmath, dof, stat, _chi2_sf(dof, stat))
                 for dof, stat in points]
        assert min(bands.count(band) for band in range(len(P_VALUE_BOUNDS) + 1)) >= 30

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.integers(1, 500),
        st.floats(0.0, 1.7e308) | st.just(math.inf),
        st.floats(2.0 ** -40, 4.0),
    )
    @example(1, 1.0, 2.0 ** -40)  # y = dof / 2
    @example(200, 200.0, 2.0 ** -40)
    @example(2, 1400.0, 2.0 ** -40)  # y = _EXP_Y_MAX
    @example(499, 1400.0, 2.0 ** -40)
    @example(500, 1.7e308, 1.0)
    def test_p_value_is_a_falling_probability(self, dof, stat, gap):
        # never raises, lies in [0, 1], is 1 at stat 0 and does not rise with
        # stat: stats closer than 2^-40 relative are not compared, where the
        # sum's rounding of a few ulps may order two p-values either way
        p = _chi2_sf(dof, stat)
        assert 0.0 <= p <= 1.0
        assert _chi2_sf(dof, 0.0) == 1.0
        assert _chi2_sf(dof, stat * (1.0 + gap)) <= p

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
