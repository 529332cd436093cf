import copy
import dataclasses
import functools
import itertools
import math
import pickle
import random
import sys
import threading
import time
import types

import numpy as np
import pytest

from fracpois import adm, processes
from fracpois.errors import ConvergenceError, ParameterError
from fracpois.processes import (
    FractionalParams,
    adm_closed_form_diff,
    composition_tuples_residual,
    kolmogorov_residual,
    pmf,
    pmf_table,
    pmf_tail_mass,
    poisson_pmf,
    sstfpp_pgf,
    truncated_normalization_residual,
    waiting_survival,
)
from fracpois.saigo import SaigoParams, ck_log_coefficients, saigo_integral_power
from fracpois.specfun import TERM_CAP
from oracles import (
    kolmogorov_tail_bound,
    ml_half,
    normalization_residual,
    panjer_sfpp,
    pgf_cauchy_residual,
    sfpp_pmf,
    series_mp,
    sstfpp_pmf,
    stfpp_pmf,
    tfpp_pmf,
)

# Reference parameter points reused across tests.
STFPP = FractionalParams(1.0, alpha=0.7, nu=0.6)
SSTFPP = FractionalParams(1.0, alpha=0.8, nu=0.6, beta=-0.5, gamma_p=0.1)
TFPP = FractionalParams(1.3, alpha=0.6)
SFPP = FractionalParams(1.0, nu=0.5, beta=-1.0)
# beta = -alpha with gamma != 0: C_k = 1 whatever gamma is
RL_GAMMA = FractionalParams(1.0, alpha=0.7, nu=0.6, beta=-0.7, gamma_p=0.4)
CLASSICAL = FractionalParams(1.0)
# nu = 0.5: Gamma(k nu + 1 - n) has poles at even k < 2n, so p_n skips terms
NU_HALF = FractionalParams(1.0, alpha=0.8, nu=0.5, beta=-0.6, gamma_p=0.2)
# beta = -1.5: t^1.5 underflows at t = 1e-300 and overflows at t = 1e300
BETA_15 = FractionalParams(1.0, alpha=0.8, nu=0.6, beta=-1.5, gamma_p=0.1)
# |beta| ~ 1.2e8: an iterate exponent -k beta is past 1e8, its ulp past 1e-8
LARGE_BETA = FractionalParams(1.0, alpha=0.8, nu=0.6, beta=-123456789.123, gamma_p=0.1)


def mittag_leffler_neg(alpha, z):
    """E_alpha(-z) for z > 0: the printed tfpp formula's state 0 at lam = z, t = 1."""
    return tfpp_pmf(FractionalParams(z, alpha=alpha), 1.0, 0)


def series_x(params, t):
    """The kernel's series argument x = lam^nu t^(-beta) at t."""
    return processes._series_x(params._terms, params.lam ** params.nu, t, "test")


def state_terms(params, t, n, k_trunc):
    """State n's terms k <= k_trunc at t > 0, unsummed: row n of the checks' reader."""
    return params._terms.state_rows(n, series_x(params, t), k_trunc + 1)[n]


class TestFractionalParams:
    def test_beta_defaults_to_minus_alpha(self):
        p = FractionalParams(1.0, alpha=0.7)
        assert p.beta == -0.7

    def test_variant_classification(self):
        assert FractionalParams(2.0).variant == "classical"
        assert FractionalParams(1.0, alpha=0.7).variant == "tfpp"
        assert FractionalParams(1.0, nu=0.7, beta=-1.0).variant == "sfpp"
        assert STFPP.variant == "stfpp"
        assert SSTFPP.variant == "sstfpp"
        # explicit beta = -alpha is still the Riemann-Liouville sub-family
        assert FractionalParams(1.0, alpha=0.7, nu=0.6, beta=-0.7).variant == "stfpp"

    def test_validation(self):
        with pytest.raises(ParameterError):
            FractionalParams(0.0)
        with pytest.raises(ParameterError):
            FractionalParams(1.0, alpha=1.5)
        with pytest.raises(ParameterError):
            FractionalParams(1.0, alpha=0.0)
        with pytest.raises(ParameterError):
            FractionalParams(1.0, nu=1.2)
        with pytest.raises(ParameterError):
            FractionalParams(1.0, beta=0.5)
        # |beta| TERM_CAP + |gamma| <= HUGE: past it ln Gamma(1 - k beta) or a
        # C_k factor's ln Gamma overflows math.lgamma, at t = 0 too
        for beta, gamma_p in ((-4e304, 0.1), (-0.5, 1e308), (-0.5, -1e301), (-1.1e296, 0.0)):
            with pytest.raises(ParameterError, match=r"\|beta\| \* 10000 \+ \|gamma_p\| must be <= 1e\+300"):
                FractionalParams(1.0, alpha=0.5, nu=0.6, beta=beta, gamma_p=gamma_p)
        assert pmf(FractionalParams(1.0, alpha=0.5, nu=0.6, beta=-1e296, gamma_p=0.1), 0.0, 0) == 1.0

    @pytest.mark.parametrize("field", ["lam", "alpha", "nu", "beta", "gamma_p"])
    def test_rejects_bool_fields(self, field):
        kwargs = {"lam": 1.0, "alpha": 0.8, "nu": 0.6, "beta": -0.5, "gamma_p": 0.1}
        kwargs[field] = True
        with pytest.raises(ParameterError):
            FractionalParams(**kwargs)

    def test_saigo_projection(self):
        sp = SSTFPP.saigo()
        assert (sp.alpha, sp.beta, sp.gamma_p) == (0.8, -0.5, 0.1)

    def test_term_cache_is_not_part_of_the_value(self):
        p = FractionalParams(1.0, alpha=0.8, nu=0.6, beta=-0.5, gamma_p=0.1)
        before = repr(p)
        pmf(p, 1.0, 3)
        q = dataclasses.replace(p)
        assert q == p and hash(q) == hash(p)
        assert repr(p) == before
        assert q._terms is not p._terms
        assert p._terms is p._terms

    def test_pickle_and_copy_drop_the_caches(self):
        p = FractionalParams(1.0, alpha=0.8, nu=0.6, beta=-0.5, gamma_p=0.1)
        size = len(pickle.dumps(p))
        table = pmf_table(p, [0.1 * i for i in range(1, 51)], 25)
        assert p.variant == "sstfpp"
        assert len(pickle.dumps(p)) == size
        for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert q == p and hash(q) == hash(p)
            assert "_terms" not in vars(q) and "variant" not in vars(q)
            assert pmf_table(q, table.times, 25) == table


class TestStateIndex:
    # an index must be an int or have __index__; anything else is a
    # parameter error, never a value or a bare TypeError (the classical
    # pmf runs through poisson_pmf)
    PARAMS = {"stfpp": STFPP, "sstfpp": SSTFPP, "classical": CLASSICAL}
    CALLS = {
        "pmf": lambda p, n: pmf(p, 1.0, n),
        "pmf_tail_mass": lambda p, n: pmf_tail_mass(p, 1.0, n),
        "pmf_table": lambda p, n: pmf_table(p, [1.0], n),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("variant", sorted(PARAMS))
    @pytest.mark.parametrize("n", [2.5, 2.0, "2", None, -1, True, False], ids=repr)
    def test_rejects_non_index(self, call, variant, n):
        with pytest.raises(ParameterError):
            self.CALLS[call](self.PARAMS[variant], n)

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("variant", sorted(PARAMS))
    def test_accepts_numpy_ints(self, call, variant):
        params = self.PARAMS[variant]
        assert self.CALLS[call](params, np.int64(3)) == self.CALLS[call](params, 3)

    # the decomposition cross-checks take n, n_max and k_trunc as indices too
    @pytest.mark.parametrize("call, args", [
        (kolmogorov_residual, (1.0, -1, 10)),
        (kolmogorov_tail_bound, (1.0, -1, 10)),
        (kolmogorov_residual, (1.0, 2.0, 10)),
        (kolmogorov_tail_bound, (1.0, 2.0, 10)),
        (kolmogorov_residual, (1.0, True, 10)),
        (kolmogorov_tail_bound, (1.0, True, 10)),
        (adm_closed_form_diff, (2.0, 5)),
        (adm_closed_form_diff, (2, 5.0)),
        (adm_closed_form_diff, (True, 5)),
        (truncated_normalization_residual, (1.0, 2.0, 5)),
        (truncated_normalization_residual, (0.0, 2.0, 5)),
    ], ids=lambda v: v.__name__ if callable(v) else repr(v))
    def test_cross_checks_reject_non_index(self, call, args):
        with pytest.raises(ParameterError):
            call(STFPP, *args)


class TestPoisson:
    def test_values(self):
        assert poisson_pmf(1.0, 1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert poisson_pmf(2.0, 1.5, 3) == pytest.approx(
            math.exp(-3.0) * 27.0 / 6.0, rel=1e-13
        )

    def test_initial_condition(self):
        assert poisson_pmf(1.0, 0.0, 0) == 1.0
        assert poisson_pmf(1.0, 0.0, 4) == 0.0

    def test_normalizes(self):
        total = sum(poisson_pmf(1.5, 2.0, n) for n in range(80))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_overflowed_mean_is_zero(self):
        # lam t = inf: the 0.0 of lam t = 1e300, not 0 ln(inf) = nan
        for n in (0, 1, 5):
            assert poisson_pmf(1e200, 1e200, n) == poisson_pmf(1e150, 1e150, n) == 0.0
        p = FractionalParams(1e200)
        assert pmf(p, 1e200, 0) == waiting_survival(p, 1e200) == 0.0

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan], ids=repr)
    def test_rejects_bad_lambda(self, lam):
        with pytest.raises(ParameterError):
            poisson_pmf(lam, 1.0, 2)


class TestTfpp:
    def test_reduces_to_poisson(self):
        p = FractionalParams(1.3, alpha=1.0)
        for t in (0.25, 1.0, 2.0):
            for n in range(12):
                assert tfpp_pmf(p, t, n) == pytest.approx(
                    poisson_pmf(1.3, t, n), abs=1e-12
                )

    def test_survival_is_mittag_leffler(self):
        for t in (0.3, 1.0, 2.2):
            expect = mittag_leffler_neg(TFPP.alpha, TFPP.lam * t ** TFPP.alpha)
            assert pmf(TFPP, t, 0) == pytest.approx(expect, rel=1e-12)

    def test_frozen_values(self):
        # reference values from a 60-digit evaluation of the same series
        assert pmf(TFPP, 0.8, 0) == pytest.approx(0.37709569096902275, rel=1e-12)
        assert pmf(TFPP, 0.8, 2) == pytest.approx(0.17237910827746373, rel=1e-12)

    def test_initial_condition(self):
        assert pmf(TFPP, 0.0, 0) == 1.0
        assert pmf(TFPP, 0.0, 3) == 0.0

    def test_requires_nu_one(self):
        with pytest.raises(ParameterError):
            tfpp_pmf(STFPP, 1.0, 0)


class TestSfpp:
    def test_reduces_to_poisson(self):
        p = FractionalParams(0.9, nu=1.0, beta=-1.0)
        for t in (0.5, 1.0, 2.0):
            for n in range(12):
                assert sfpp_pmf(p, t, n) == pytest.approx(
                    poisson_pmf(0.9, t, n), abs=1e-12
                )

    def test_survival_is_stretched_exponential(self):
        for t in (0.4, 1.0, 3.0):
            expect = math.exp(-(SFPP.lam ** SFPP.nu) * t)
            assert pmf(SFPP, t, 0) == pytest.approx(expect, rel=1e-12)

    def test_frozen_value(self):
        # reference value from a 60-digit evaluation of the same series
        assert pmf(SFPP, 1.0, 1) == pytest.approx(0.18393972058572116, rel=1e-12)

    def test_requires_space_fractional_parameters(self):
        with pytest.raises(ParameterError):
            sfpp_pmf(STFPP, 1.0, 0)


class TestStfpp:
    def test_reduces_to_tfpp(self):
        p = FractionalParams(1.3, alpha=0.6, nu=1.0)
        for t in (0.25, 1.0, 2.0):
            for n in range(12):
                assert pmf(p, t, n) == pytest.approx(
                    tfpp_pmf(p, t, n), abs=1e-11
                )

    def test_reduces_to_sfpp(self):
        p = FractionalParams(1.0, alpha=1.0, nu=0.6, beta=-1.0)
        for t in (0.5, 1.0, 2.0):
            for n in range(12):
                assert pmf(p, t, n) == pytest.approx(
                    sfpp_pmf(p, t, n), abs=1e-11
                )

    def test_survival_is_mittag_leffler(self):
        for t in (0.4, 1.0, 2.0):
            x = STFPP.lam ** STFPP.nu * t ** STFPP.alpha
            assert pmf(STFPP, t, 0) == pytest.approx(
                mittag_leffler_neg(STFPP.alpha, x), rel=1e-12
            )

    def test_frozen_values(self):
        # reference values from a 60-digit evaluation of the same series
        expect = [
            0.39961197811559938,
            0.18033715404773461,
            0.097725935390672602,
            0.058791005347684623,
        ]
        for n, e in enumerate(expect):
            assert pmf(STFPP, 1.0, n) == pytest.approx(e, rel=1e-12)

    def test_requires_beta_minus_alpha(self):
        with pytest.raises(ParameterError):
            stfpp_pmf(SSTFPP, 1.0, 0)


class TestSstfpp:
    def test_reduces_to_stfpp_for_any_gamma(self):
        for gamma_p in (0.0, 0.3, 0.9):
            p = FractionalParams(1.2, alpha=0.7, nu=0.8, beta=-0.7, gamma_p=gamma_p)
            for t in (0.5, 1.0, 2.0):
                for n in range(10):
                    assert sstfpp_pmf(p, t, n) == pytest.approx(
                        pmf(p, t, n), abs=1e-11
                    )

    def test_frozen_values(self):
        # reference values from a 60-digit evaluation of the same series
        expect = [
            0.430597470781006,
            0.17203494525723624,
            0.091674659397220794,
            0.055258992671024902,
        ]
        for n, e in enumerate(expect):
            assert pmf(SSTFPP, 1.0, n) == pytest.approx(e, rel=1e-12)

    def test_initial_condition(self):
        assert pmf(SSTFPP, 0.0, 0) == 1.0
        assert pmf(SSTFPP, 0.0, 2) == 0.0
        # t^(-beta) underflows to 0: only the k = 0 term is left, as at t = 0
        p = FractionalParams(1.0, alpha=0.8, nu=0.6, beta=-1.5)
        assert pmf(p, 1e-300, 0) == 1.0
        assert pmf(p, 1e-300, 2) == 0.0
        assert pmf_tail_mass(p, 1e-300, 2) == 0.0
        assert sstfpp_pgf(p, 0.4, 1e-300) == 1.0

    def test_argument_guard(self):
        with pytest.raises(ConvergenceError):
            pmf(SSTFPP, 1e6, 0)

    def test_nonnegative_and_bounded(self):
        for params in (STFPP, SSTFPP, TFPP, SFPP):
            fn = pmf
            for t in (0.3, 1.0, 2.5):
                for n in range(0, 21, 4):
                    v = fn(params, t, n)
                    assert -1e-12 <= v <= 1.0 + 1e-12


class TestKernelAgainstOracles:
    @pytest.mark.parametrize(
        "params, oracle, tol",
        [
            (STFPP, stfpp_pmf, 0.0),
            (RL_GAMMA, stfpp_pmf, 0.0),
            (SFPP, sfpp_pmf, 0.0),
            (SSTFPP, sstfpp_pmf, 0.0),
            # the reindexed (k+n)!/k! form rounds differently
            (TFPP, tfpp_pmf, 1e-11),
        ],
        ids=["stfpp", "rl-gamma", "sfpp", "sstfpp", "tfpp"],
    )
    def test_pmf_matches_printed_formula(self, params, oracle, tol):
        for t in (0.25, 0.5, 1.0, 2.0):
            for n in range(16):
                got, want = pmf(params, t, n), oracle(params, t, n)
                assert abs(got - want) <= tol, (t, n, got, want)


class TestDispatch:
    def test_classical_route(self):
        p = FractionalParams(2.0)
        assert pmf(p, 1.3, 4) == poisson_pmf(2.0, 1.3, 4)

    def test_rl_family_routes_to_stfpp(self):
        # parameters with beta = -alpha go through the reduced formula even
        # when constructed with every field spelled out
        p = FractionalParams(1.0, alpha=0.7, nu=0.6, beta=-0.7, gamma_p=0.4)
        assert pmf(p, 1.0, 2) == stfpp_pmf(p, 1.0, 2)

    def test_general_route(self):
        assert pmf(SSTFPP, 1.0, 1) == sstfpp_pmf(SSTFPP, 1.0, 1)


class TestTailMass:
    def test_zero_horizon(self):
        assert pmf_tail_mass(STFPP, 0.0, 5) == 0.0

    def test_classical_tail_matches_complement(self):
        p = FractionalParams(1.0)
        for n_max in (0, 3, 8):
            head = sum(poisson_pmf(1.0, 1.0, n) for n in range(n_max + 1))
            assert pmf_tail_mass(p, 1.0, n_max) == pytest.approx(1.0 - head, rel=1e-10)

    @pytest.mark.parametrize("m", [1.0, 20.0, 30.0, 40.0, 200.0, 650.0, 690.0])
    def test_classical_tail_is_exact(self, m):
        # the upward Poisson sum against the exact tail; at m = 20 the
        # cancelling k-series gave 0.0170 for N = 40 instead of 2.54e-05,
        # and past m = 30 the sum's rounding passes 1 unless clamped
        mpmath = pytest.importorskip("mpmath")
        p = FractionalParams(m)
        with mpmath.workdps(50):
            mm = mpmath.mpf(m)
            for n_max in sorted({0, 3, 10, 25, 40, 60, 100, int(m), int(1.5 * m), int(2 * m)}):
                # run well past both the cut-off and the mode m
                exact = mpmath.exp(-mm) * mpmath.fsum(
                    mm ** n / mpmath.factorial(n)
                    for n in range(n_max + 1, max(n_max, int(2 * m)) + 400)
                )
                assert pmf_tail_mass(p, 1.0, n_max) == pytest.approx(float(exact), rel=1e-14)
            # the CLI golden's tail, 1 - (8/3)/e, is the nearest double
            if m == 1.0:
                assert pmf_tail_mass(p, 1.0, 3) == float(1 - mpmath.mpf(8) / 3 / mpmath.e)

    def test_classical_tail_keeps_the_argument_guard(self):
        # the upward sum cancels nothing, so only a mean whose terms near
        # overflow (past LOG_HUGE) is refused
        assert 0.0 < pmf_tail_mass(FractionalParams(31.0), 1.0, 10) <= 1.0
        with pytest.raises(ConvergenceError):
            pmf_tail_mass(FractionalParams(700.0), 1.0, 10)

    def test_monotone_in_cutoff(self):
        tails = [pmf_tail_mass(SSTFPP, 1.0, n) for n in range(0, 12)]
        assert all(b < a for a, b in zip(tails, tails[1:]))
        assert all(v > 0.0 for v in tails)

    def test_heavy_tail_decays_slowly(self):
        # space-fractional state tails are power laws: doubling the cutoff
        # must NOT square the tail (it roughly halves it at nu small)
        t8 = pmf_tail_mass(SSTFPP, 1.0, 8)
        t16 = pmf_tail_mass(SSTFPP, 1.0, 16)
        assert t16 > t8 ** 2


class TestNormalization:
    def test_reference_points(self):
        for params in (STFPP, SSTFPP, TFPP, SFPP):
            for t in (0.25, 1.0, 2.0):
                assert normalization_residual(params, t, 20) <= 1e-9

    def test_random_tuples(self):
        rng = np.random.default_rng(118)
        for _ in range(8):
            alpha = rng.uniform(0.6, 1.0)
            nu = rng.uniform(0.6, 1.0)
            beta = -rng.uniform(0.6, 1.0)
            gamma_p = rng.uniform(0.0, 0.5)
            lam = rng.uniform(0.5, 2.0)
            tmax = min(2.5, (5.0 / lam ** nu) ** (-1.0 / beta))
            t = rng.uniform(0.3, tmax)
            p = FractionalParams(lam, alpha=alpha, nu=nu, beta=beta, gamma_p=gamma_p)
            assert normalization_residual(p, t, 25) <= 1e-9, (p, t)

    def test_truncated_check_catches_low_order(self):
        # hard truncation at k = 2 must fail; the working order must pass
        bad = truncated_normalization_residual(STFPP, 1.0, 10, max_k=2)
        good = truncated_normalization_residual(STFPP, 1.0, 10, max_k=40)
        assert bad > 1e-4
        assert good <= 1e-8


class TestPmfTable:
    def test_shape_and_consistency(self):
        # t = 0, a repeated time (its series reuse the cached rows), and
        # t = 1e-300, where t^1.5 underflows and x = 0 for the last set;
        # NU_HALF's state factor has pole zeros, so its rows hold gaps
        times = [0.0, 0.5, 1.0, 0.5, 1e-300]
        for params in (SSTFPP, RL_GAMMA, CLASSICAL, TFPP, SFPP, STFPP, NU_HALF, BETA_15):
            table = pmf_table(params, times, 6)
            assert table.times == tuple(times)
            assert len(table.probs) == len(times)
            assert all(len(row) == 7 for row in table.probs)
            assert table.probs[0] == (1.0,) + (0.0,) * 6
            assert table.tail_mass[0] == 0.0
            assert table.probs[3] == table.probs[1]
            assert table.tail_mass[3] == table.tail_mass[1]
            for t, row, tail in zip(times, table.probs, table.tail_mass):
                assert row == tuple(pmf(params, t, n) for n in range(7))
                assert tail == pmf_tail_mass(params, t, 6)
            for row, tail in zip(table.probs[1:], table.tail_mass[1:]):
                assert sum(row) + tail == pytest.approx(1.0, abs=1e-9)
        assert pmf_table(BETA_15, [1e-300], 6).probs[0] == (1.0,) + (0.0,) * 6

    def test_reads_times_once(self):
        # a generator gives the table its times as well as its rows
        for params in (CLASSICAL, SSTFPP):
            table = pmf_table(params, (t for t in [1.0, 2.0]), 3)
            assert table.times == (1.0, 2.0)
            assert table == pmf_table(params, [1.0, 2.0], 3)

    @pytest.mark.parametrize(
        "later", [(20.0, 700.0), (1e300,), (-1.0,), (math.nan,)],
        ids=["large", "huge", "negative", "nan"],
    )
    @pytest.mark.parametrize(
        "params", [CLASSICAL, TFPP, SFPP, STFPP, SSTFPP, BETA_15],
        ids=["classical", "tfpp", "sfpp", "stfpp", "sstfpp", "sstfpp-beta-1.5"],
    )
    def test_equals_the_scalar_calls(self, params, later):
        # t = 0, a repeated time (read back from the cache) and t = 1e-300,
        # where x underflows to 0 at beta = -1.5, give the scalar calls'
        # floats; later times give their first refusal, time by time and
        # the states before the tail: a bound (sstfpp's at t = 20 in state
        # 2), the classical tail's mean (at t = 700, after t = 20 answers),
        # an argument overflow (beta = -1.5 at 1e300) or a bad time.  Each
        # side runs on a fresh object, so neither reads the other's cache.
        times = [0.0, 0.5, 1.0, 0.5, 1e-300]
        table = pmf_table(dataclasses.replace(params), times, 6)
        got = [[p.hex() for p in row] + [tail.hex()]
               for row, tail in zip(table.probs, table.tail_mass)]
        assert got == _scalar_table(dataclasses.replace(params), times, 6)
        refusal = _scalar_table(dataclasses.replace(params), times + list(later), 6)
        assert isinstance(refusal, Exception)
        with pytest.raises(type(refusal)) as exc:
            pmf_table(dataclasses.replace(params), times + list(later), 6)
        assert type(exc.value) is type(refusal)
        assert str(exc.value) == str(refusal)

    def test_row_fills_independent_of_time_count(self, monkeypatch):
        # each row entry (state or tail, k) is filled once per table,
        # whatever the number of times that read it
        calls = _count_row_entries(monkeypatch)
        for params in (TFPP, SSTFPP):
            # each measurement starts on a fresh object, whose cache is empty
            calls.clear()
            pmf_table(dataclasses.replace(params), [1.0], 25)
            once = len(calls)
            calls.clear()
            fresh = dataclasses.replace(params)
            pmf_table(fresh, [1.0] * 50, 25)
            assert once > 0
            assert len(calls) == once
            calls.clear()
            pmf_table(fresh, [1.0] * 50, 25)
            assert len(calls) == 0

    def test_pgf_reads_the_survival_row(self, monkeypatch):
        # G(u, t) is state 0's series at x = lam^nu (1-u)^nu t^(-beta): at
        # u = 0 it is the survival function, read back from its row
        calls = _count_row_entries(monkeypatch)
        for params in (TFPP, SSTFPP):
            fresh = dataclasses.replace(params)
            survival = waiting_survival(fresh, 1.5)
            assert calls
            calls.clear()
            assert sstfpp_pgf(fresh, 0.0, 1.5) == survival
            assert calls == []

    def test_argument_guard_in_a_later_time(self):
        with pytest.raises(ConvergenceError) as exc:
            pmf_table(TFPP, [0.5, 1.0, 1e6], 8)
        # x = 5175.39 at t = 1e6: the series is refused at the term where
        # its rounding bound first passes ROUNDING_TOL, long before its terms
        # would pass e^LOG_HUGE
        assert str(exc.value) == "pmf: rounding error bound 9.72e-08 exceeds 1e-09"

    def test_inadmissible_gamma_rejected(self):
        # alpha = 0.8, beta = -0.5, gamma = -1.5: Gamma(1 + g - b) has
        # argument 0 at j = 1, so the parameters are refused at construction,
        # before a t = 0 row (which needs no C_k) could print p0 = 1
        with pytest.raises(ParameterError) as exc:
            FractionalParams(1.0, alpha=0.8, nu=0.6, beta=-0.5, gamma_p=-1.5)
        assert str(exc.value) == (
            "FractionalParams: gamma_p = -1.5 makes a C_k gamma argument <= 0 "
            "(1 + gamma - beta = 0.0, 1 + gamma + alpha = 0.30000000000000004)"
        )
        # the other smallest argument: 1 + gamma + alpha = -0.1 at beta = -3
        with pytest.raises(ParameterError, match="1 \\+ gamma \\+ alpha = -0.1"):
            FractionalParams(1.0, alpha=0.5, nu=0.6, beta=-3.0, gamma_p=-1.6)
        # gamma only enters C_k off beta = -alpha, where any gamma is accepted
        assert FractionalParams(1.0, alpha=0.8, nu=0.6, gamma_p=-1.5).variant == "stfpp"
        # the kernel's own check names it, for Saigo parameters built directly
        with pytest.raises(ParameterError,
                           match="^ck_log_coefficients: gamma argument <= 0 at j = 1 "):
            ck_log_coefficients(SaigoParams(0.8, -0.5, -1.5), 0, 3, 0.0)

    def test_ln_ck_built_a_few_times_per_table(self, monkeypatch):
        # the 50 x 26 sstfpp table evaluates each C_k factor once across
        # its 1,300 probabilities and 50 tails; normalization_residual's
        # one row and tail do too
        factors = _count_ck_factors(monkeypatch)
        for build in (
            lambda params: pmf_table(params, [0.1 * i for i in range(1, 51)], 25),
            lambda params: normalization_residual(params, 1.0, 25),
        ):
            # a fresh object per measurement: the cache lives on the params
            params = FractionalParams(1.0, alpha=0.8, nu=0.6, beta=-0.5, gamma_p=0.1)
            factors.clear()
            build(params)
            assert factors and len(factors) == len(set(factors))
            factors.clear()
            build(params)
            assert factors == []

    def test_ln_ck_grows_in_whole_blocks(self, monkeypatch):
        # per_k grows to the FILL_CHUNK block that covers a row, however
        # little the row reaches past the longest so far: at t = 2 the rows
        # of states 4..7 reach 33, 35, 37 and 38 entries
        runs = []

        def recording(sp, start, stop, ln_prev):
            runs.append((start, stop))
            return ck_log_coefficients(sp, start, stop, ln_prev)

        monkeypatch.setattr(processes, "ck_log_coefficients", recording)
        chunk = processes.FILL_CHUNK
        for build in (
            lambda params: [pmf(params, 2.0, n) for n in range(8)],
            lambda params: pmf_table(params, [0.1 * i for i in range(1, 51)], 25),
        ):
            runs.clear()
            build(FractionalParams(1.0, alpha=0.8, nu=0.6, beta=-0.5, gamma_p=0.1))
            assert runs
            for start, stop in runs:
                assert start % chunk == 0
                assert stop % chunk == 0 or stop == TERM_CAP


def _scalar_table(params: FractionalParams, times: list[float], n_max: int):
    """pmf and pmf_tail_mass over times x states as float.hex, time by time
    and the states before the tail; or the first refusal they raise."""
    rows = []
    try:
        for t in times:
            rows.append([pmf(params, t, n).hex() for n in range(n_max + 1)]
                        + [pmf_tail_mass(params, t, n_max).hex()])
    except (ConvergenceError, ParameterError) as exc:
        return exc
    return rows


def _count_ck_factors(monkeypatch) -> list[int]:
    """The j of every C_k factor the term cache evaluates, in call order."""
    factors: list[int] = []

    def counting(sp, start, stop, ln_prev):
        factors.extend(range(max(start, 1), stop))
        return ck_log_coefficients(sp, start, stop, ln_prev)

    monkeypatch.setattr(processes, "ck_log_coefficients", counting)
    return factors


def _count_row_entries(monkeypatch) -> list[int]:
    """The k of every state and tail row entry the term cache fills, in call order."""
    entries: list[int] = []
    for name in ("_state_entries", "_tail_entries"):
        def counting(terms, n, start, stop, fill=getattr(processes._SeriesTerms, name)):
            entries.extend(range(start, stop))
            return fill(terms, n, start, stop)

        monkeypatch.setattr(processes._SeriesTerms, name, counting)
    return entries


class TestSharedTermCache:
    PGF_U = (-0.5, 0.3, 0.7)

    def test_ln_ck_built_once_across_separate_calls(self, monkeypatch):
        # one parameter set evaluated call by call, as a caller sweeping a
        # point would: every call reads the same ln C_k column
        factors = _count_ck_factors(monkeypatch)
        params = FractionalParams(1.2, alpha=0.8, nu=0.6, beta=-0.5, gamma_p=0.1)

        def sweep():
            for n in range(26):
                pmf(params, 1.0, n)
            pmf_tail_mass(params, 1.0, 25)
            waiting_survival(params, 1.0)
            for u in self.PGF_U:
                sstfpp_pgf(params, u, 1.0)

        sweep()
        assert factors and len(factors) == len(set(factors))
        factors.clear()
        sweep()
        assert factors == []

    @staticmethod
    def _jobs(params):
        # (kind, time, argument, call) in three groups, one per entry point
        times = (0.5, 2.0)
        return {
            "pmf": [("pmf", t, n, lambda t=t, n=n: pmf(params, t, n))
                    for t in times for n in range(26)],
            "tail": [("tail", t, 25, lambda t=t: pmf_tail_mass(params, t, 25)) for t in times],
            "pgf": [("pgf", t, u, lambda t=t, u=u: sstfpp_pgf(params, u, t))
                    for t in times for u in TestSharedTermCache.PGF_U],
        }

    def test_threads_share_one_cache(self, monkeypatch):
        def make():
            return FractionalParams(1.2, alpha=0.8, nu=0.6, beta=-0.5, gamma_p=0.1)

        expect = {
            (kind, t, arg): call()
            for group in self._jobs(make()).values()
            for kind, t, arg, call in group
        }
        groups = self._jobs(make())
        # each thread runs the three groups in its own order; pairs of
        # threads share a first group, so they fill the same rows at once
        orders = list(itertools.permutations(groups))

        # Yield the GIL inside a fill, between reading a row's (or per_k's)
        # length and its slice store, where an unsafe store would do harm;
        # without it the threads barely interleave there.
        def yielding(fn):
            def wrapper(*args):
                time.sleep(0)
                return fn(*args)
            return wrapper

        class YieldingMath:
            lgamma = staticmethod(yielding(math.lgamma))

            def __getattr__(self, name):
                return getattr(math, name)

        monkeypatch.setattr(processes, "math", YieldingMath())
        monkeypatch.setattr(processes, "ck_log_coefficients",
                            yielding(processes.ck_log_coefficients))
        results: list[dict] = [{} for _ in range(8)]
        errors: list[BaseException] = []
        start = threading.Barrier(8, timeout=60.0)

        def work(i):
            try:
                start.wait()
                for name in orders[i % len(orders)]:
                    for kind, t, arg, call in groups[name]:
                        results[i][kind, t, arg] = call()
            except BaseException as exc:  # reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
            assert not any(th.is_alive() for th in threads)
        finally:
            sys.setswitchinterval(old)
        assert errors == []
        for got in results:
            assert got == expect

    @pytest.mark.parametrize("point, t", [
        ((1.3, 0.6, 1.0, -0.6, 0.0), 0.0),
        ((1.0, 1.0, 0.5, -1.0, 0.0), 0.0),
        ((1.0, 0.7, 0.6, -0.7, 0.0), 0.0),
        ((1.0, 0.8, 0.6, -0.5, 0.1), 0.0),
        # t^(-beta) underflows to 0, as at t = 0
        ((1.0, 0.8, 0.6, -1.5, 0.1), 1e-300),
    ])
    def test_time_zero_forms_no_term(self, point, t):
        # x = 0 is the initial condition p_n(0) = [n = 0]: no row, no per_k,
        # no ln C_k and no k-part
        params = FractionalParams(*point)
        assert [pmf(params, t, n) for n in range(4)] == [1.0, 0.0, 0.0, 0.0]
        assert pmf_tail_mass(params, t, 3) == 0.0
        assert sstfpp_pgf(params, 0.4, t) == 1.0
        assert waiting_survival(params, t) == 1.0
        table = pmf_table(params, [t, t], 3)
        assert table.probs == ((1.0, 0.0, 0.0, 0.0),) * 2 and table.tail_mass == (0.0, 0.0)
        terms = params._terms
        assert (terms.rows, terms.per_k, terms.kpart) == ({}, [], (0.0, []))

    @pytest.mark.parametrize("params, key, first", [
        (TFPP, 0, 0), (TFPP, 3, 3), (TFPP, 25, 25), (TFPP, ("tail", 3), 4),
        (STFPP, 3, 1), (STFPP, ("tail", 3), 1),
        # zeros inside the row (k = 2, 4) are summed
        (NU_HALF, 3, 1),
    ])
    def test_sum_starts_at_the_first_live_term(self, monkeypatch, params, key, first):
        # the kernel forms one exp per term it reads: none for the row's
        # leading vanished entries
        exps = []
        counting = types.SimpleNamespace(**vars(math))
        counting.exp = lambda v: exps.append(v) or math.exp(v)
        monkeypatch.setattr(processes, "math", counting)
        _, stop = processes._saigo_series(dataclasses.replace(params)._terms, key, 1.5, "pmf")
        assert len(exps) == stop + 1 - first and exps[0] > -math.inf


class TestPgf:
    def test_at_zero_argument_equals_survival(self):
        for params in (STFPP, SSTFPP):
            assert sstfpp_pgf(params, 0.0, 1.0) == pytest.approx(
                pmf(params, 1.0, 0), rel=1e-13
            )

    def test_at_zero_time(self):
        assert sstfpp_pgf(SSTFPP, 0.4, 0.0) == 1.0

    def test_frozen_value(self):
        # reference value from a 60-digit evaluation of the same series
        assert sstfpp_pgf(SSTFPP, 0.4, 1.0) == pytest.approx(
            0.51892740228220412, rel=1e-12
        )

    def test_classical_closed_form(self):
        # G(u, t) = e^{-lam (1-u) t}: at u = 0 the survival's bits, and 0.0
        # where lam (1-u) t overflows, as the classical survival is
        for lam in (1.0, 2.0, 30.0, 1e200):
            for t in (0.0, 0.5, 1.0, 3.0, 1e200):
                p = FractionalParams(lam)
                assert sstfpp_pgf(p, 0.0, t) == waiting_survival(p, t)
        assert sstfpp_pgf(FractionalParams(2.0), 0.5, 1.0) == math.exp(-1.0)
        # e^{-15}, which the alternating series refuses on its rounding bound
        assert sstfpp_pgf(FractionalParams(30.0), 0.5, 1.0) == math.exp(-15.0)
        assert sstfpp_pgf(FractionalParams(1e200), -0.5, 1e200) == 0.0

    def test_time_fractional_closed_form(self):
        # beta = -alpha, nu = 1: G(u, t) = E_a(-lam (1-u) t^a)
        p = FractionalParams(1.2, alpha=0.65)
        for u in (-0.5, 0.0, 0.4, 0.8):
            for t in (0.5, 1.0, 2.0):
                expect = mittag_leffler_neg(0.65, 1.2 * (1.0 - u) * t ** 0.65)
                assert sstfpp_pgf(p, u, t) == pytest.approx(expect, abs=1e-10)

    def test_space_fractional_closed_form(self):
        # alpha = 1, beta = -1: G(u, t) = exp(-lam^nu (1-u)^nu t)
        p = FractionalParams(1.1, nu=0.7, beta=-1.0)
        for u in (-0.5, 0.0, 0.4, 0.8):
            for t in (0.5, 1.0, 2.0):
                expect = math.exp(-(1.1 ** 0.7) * (1.0 - u) ** 0.7 * t)
                assert sstfpp_pgf(p, u, t) == pytest.approx(expect, abs=1e-10)

    def test_sums_the_pmf(self):
        # G(u, t) = sum_n u^n p_n(t); |u| < 1 makes the truncation error
        # geometric even though the pmf tail itself is heavy
        for u in (0.5, -0.5):
            direct = sum(u ** n * pmf(SSTFPP, 1.0, n) for n in range(60))
            assert sstfpp_pgf(SSTFPP, u, 1.0) == pytest.approx(direct, abs=1e-9)

    def test_rejects_bad_argument(self):
        with pytest.raises(ParameterError):
            sstfpp_pgf(SSTFPP, 1.0, 1.0)
        with pytest.raises(ParameterError):
            sstfpp_pgf(SSTFPP, -1.5, 1.0)


class TestSurvival:
    def test_equals_zero_state(self):
        assert waiting_survival(SSTFPP, 1.7) == pmf(SSTFPP, 1.7, 0)

    def test_monotone_decreasing(self):
        values = [waiting_survival(STFPP, t / 4.0) for t in range(1, 13)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_frozen_value(self):
        # reference value from a 60-digit evaluation of the same series
        assert waiting_survival(SSTFPP, 2.0) == pytest.approx(
            0.33456072172121976, rel=1e-12
        )

    def test_classical_is_exponential(self):
        p = FractionalParams(1.4)
        assert waiting_survival(p, 2.0) == pytest.approx(math.exp(-2.8), rel=1e-12)


class TestRefusalRule:
    """A series value is returned only within its rounding bound; else it is refused."""

    # ROADMAP's accuracy sweep: alpha x nu x x at lam = 1, beta = -alpha
    SWEEP = [(a, nu, x) for a in (0.3, 0.5, 0.7, 0.9, 1.0)
             for nu in (0.4, 0.6, 0.8, 1.0) for x in (1.0, 2.0, 3.0, 4.0, 5.0)]

    def test_accuracy_sweep_has_no_silent_value(self):
        pytest.importorskip("mpmath")
        for alpha, nu, x in self.SWEEP:
            params = FractionalParams(1.0, alpha=alpha, nu=nu)
            t = x ** (1.0 / alpha)
            try:
                table = pmf_table(params, [t], 25)
            except ConvergenceError:
                # at x = 1 every point answers: a rule refusing all fails
                assert x > 1.0, (alpha, nu)
                continue
            values = table.probs[0] + table.tail_mass
            assert all(-1e-9 <= v <= 1.0 + 1e-9 for v in values), (alpha, nu, x)
            assert abs(math.fsum(values) - 1.0) <= 1e-9, (alpha, nu, x)
            # errors in the states can cancel in the sum, so each value meets
            # the high-precision k-series
            ref = series_mp(params, t, 25)
            for n, (v, r) in enumerate(zip(values, ref)):
                assert abs(v - r) <= 1e-9, (alpha, nu, x, n)

    def test_panjer_sfpp_against_mpmath(self):
        # the Panjer recursion against the high-precision sfpp k-series
        # (classical at nu = 1), p_0 .. p_25 each to a relative 1e-12
        pytest.importorskip("mpmath")
        n_max = 25
        for nu, x in itertools.product((0.4, 0.7, 1.0), (0.5, 2.0, 5.0)):
            ref = series_mp(FractionalParams(1.0, nu=nu, beta=-1.0), x, n_max)
            got = panjer_sfpp(x, nu, n_max)
            for n in range(n_max + 1):
                assert got[n] == pytest.approx(ref[n], rel=1e-12), (nu, x, n)

    def test_half_order_survival_matches_or_refuses(self):
        # tfpp at alpha = 1/2, lam = 1: p_0(t) = E_{1/2}(-x), x = t^(1/2)
        params = FractionalParams(1.0, alpha=0.5)
        for i in range(1, 81):
            x = 0.25 * i
            for call in (lambda: pmf(params, x * x, 0), lambda: waiting_survival(params, x * x)):
                try:
                    got = call()
                except ConvergenceError:
                    assert x > 3.0, x
                    continue
                assert abs(got - ml_half(x)) <= 1e-9, x

    @pytest.mark.parametrize("params, t", [
        (FractionalParams(1.0, alpha=0.8, nu=0.6, beta=-2.0, gamma_p=0.1), 1e200),  # pow overflows
        (FractionalParams(1e300, alpha=0.9), 1e20),  # lam^nu t^(-beta) is inf
    ])
    def test_argument_overflow_is_a_refusal(self, params, t):
        for call in (lambda: pmf(params, t, 0), lambda: pmf_tail_mass(params, t, 2),
                     lambda: sstfpp_pgf(params, 0.4, t), lambda: waiting_survival(params, t)):
            with pytest.raises(ConvergenceError, match="series argument overflows at t = "):
                call()

    def test_term_overflow_is_a_refusal(self):
        # x = 1e300: the k = 1 term is past e^LOG_HUGE before any bound grows
        with pytest.raises(ConvergenceError) as exc:
            pmf(FractionalParams(1e300, alpha=0.9), 1.0, 0)
        assert str(exc.value) == "pmf: series term overflow at k = 1"

    def test_term_cap_is_a_refusal(self):
        # alpha = 0.001 at x = 1: the terms 1/Gamma(1 + k/1000) are still
        # about 3e-7 at k = TERM_CAP, and none is above 1 to grow the bound
        params = FractionalParams(1.0, alpha=0.001)
        for call in (lambda: pmf(params, 1.0, 0),
                     lambda: pmf_table(dataclasses.replace(params), [1.0], 0)):
            with pytest.raises(ConvergenceError) as exc:
                call()
            assert str(exc.value) == "pmf: no convergence within 10000 terms"
        # state 5000 at nu = 0.4 has k_min = 12,502, past TERM_CAP: its row,
        # per_k (rounded up to whole blocks) and the k-part stop at TERM_CAP
        params = FractionalParams(1.0, alpha=0.8, nu=0.4, beta=-0.5, gamma_p=0.1)
        with pytest.raises(ConvergenceError) as exc:
            pmf(params, 1.0, 5000)
        assert str(exc.value) == "pmf: no convergence within 10000 terms"
        terms = params._terms
        assert len(terms.per_k) == TERM_CAP
        assert len(terms.rows[5000][0]) == 2 * TERM_CAP
        assert terms.kpart[0] == 1.0 and len(terms.kpart[1]) == TERM_CAP
        # a check may ask for terms past TERM_CAP and gets every one; the
        # series still stops at TERM_CAP on the longer row
        params = FractionalParams(1.0, alpha=0.001)
        assert len(params._terms.state_rows(0, 1.0, TERM_CAP + 8)[0]) == TERM_CAP + 8
        with pytest.raises(ConvergenceError) as exc:
            pmf(params, 1.0, 0)
        assert str(exc.value) == "pmf: no convergence within 10000 terms"

    def test_refused_bound_prints_above_the_tolerance(self):
        # state 1 at alpha = 0.001 is refused with eps * err just above
        # 1e-9, which three digits would print as the tolerance itself
        with pytest.raises(ConvergenceError) as exc:
            pmf(FractionalParams(1.0, alpha=0.001), 1.0, 1)
        assert str(exc.value) == "pmf: rounding error bound 1.002e-09 exceeds 1e-09"
        assert float(str(exc.value).split()[4]) > 1e-9


# ROADMAP item 15's three silent values: (lam, alpha, nu, beta, gamma), t,
# the state n and the benchmark's mpmath reference p_n (``bench/oracle.py``,
# ``pmf_ref``), pinned here so that the tests need not import it.  ``pmf``
# answers each within its rounding bound yet errs by 1.22e-9, 1.06e-9 and
# 1.06e-9.
SILENT_POINTS = [
    ((1.1880804946824857, 0.7973406888297649, 0.2572504347914124,
      -0.25270822206968296, 0.9485111043576169), 1551.3502762494627, 20, 0.0028720863809325327),
    ((0.1583157416882073, 0.1710073949165773, 0.92764130611159, None, 0.0),
     160077.04276411812, 1, 0.22360626093172228),
    ((1.9444117330676849, 0.26435791695985666, 0.6946484736568401,
      -0.8879577770268401, 0.002610114382050055), 1.0645345601386242, 10, 0.013068269727607166),
]


@functools.cache
def silent_point(i: int) -> tuple[FractionalParams, float, int, float]:
    """SILENT_POINTS[i] as (params, t, n, series_mp's p_n)."""
    (lam, alpha, nu, beta, gamma_p), t, n, _ = SILENT_POINTS[i]
    params = FractionalParams(lam, alpha=alpha, nu=nu, beta=beta, gamma_p=gamma_p)
    return params, t, n, series_mp(params, t, n)[n]


class TestSeriesMp:
    """The tests' high-precision k-series against references it shares no code with."""

    @pytest.fixture(autouse=True)
    def _mpmath(self):
        pytest.importorskip("mpmath")

    def test_time_zero(self):
        assert series_mp(SSTFPP, 0.0, 3) == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_tfpp_half_order_is_ml_half(self):
        # p_0 = E_{1/2}(-x) at lam = 1, t = x^2.  ml_half is within
        # eps x^2 plus a few ulp.  pmf refuses x > 3; at x = 12 the series'
        # largest term is 1e61, so the first pass, which allows 10 digits
        # for it, is off by 1e-8 and the pass at 121 digits is needed
        params = FractionalParams(1.0, alpha=0.5)
        for x in (0.5, 1.0, 2.0, 3.0, 12.0):
            ref = ml_half(x)
            assert abs(series_mp(params, x * x, 0)[0] - ref) <= (4.0 + x * x) * sys.float_info.epsilon * ref, x

    def test_gamma_arguments_are_exact_at_huge_beta(self):
        # at beta = -1e60, 1 + gamma - k beta rounded to the working precision
        # loses gamma and moves p_0 to -1119173.9549701277; the reference is
        # the same series with every operation at 200 digits
        params = FractionalParams(1.0, alpha=0.5, nu=0.6, beta=-1e60, gamma_p=0.1)
        ref = -1119173.9540701231
        assert abs(series_mp(params, 1.0, 0)[0] - ref) <= math.ulp(ref)

    @pytest.mark.parametrize("i", range(len(SILENT_POINTS)))
    def test_matches_the_benchmark_reference(self, i):
        _, _, _, ref = SILENT_POINTS[i]
        assert abs(silent_point(i)[3] - ref) <= math.ulp(ref)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 15")
    @pytest.mark.parametrize("i", range(len(SILENT_POINTS)))
    def test_silent_value_within_1e9(self, i):
        params, t, n, ref = silent_point(i)
        assert abs(pmf(params, t, n) - ref) <= 1e-9

    def test_negative_sstfpp_probability_is_the_series_value(self):
        # at -beta = 1.5 > 1 the sstfpp series is a signed measure: p_0 at
        # t = 2.52 (x = 4) is negative at 50 digits too, and pmf prints it
        params = FractionalParams(1.0, alpha=0.8, nu=0.6, beta=-1.5, gamma_p=0.1)
        ref = series_mp(params, 2.52, 0)[0]
        assert ref < 0.0
        assert abs(pmf(params, 2.52, 0) - ref) <= 1e-9


class TestClosedIterates:
    def test_rl_zero_state_coefficients(self):
        # for beta = -alpha, C_k = 1 and the n = 0 coefficients are
        # (-lam^nu)^k / Gamma(k alpha + 1)
        terms = state_terms(STFPP, 1.0, 0, 8)
        assert len(terms) == 9
        for k, c in enumerate(terms):
            expect = (-(STFPP.lam ** STFPP.nu)) ** k / math.gamma(k * STFPP.alpha + 1.0)
            assert c == pytest.approx(expect, rel=1e-12)

    def test_integer_nu_triangularity(self):
        p = FractionalParams(1.0, alpha=0.7, nu=1.0)
        # (k)_n vanishes for k < n: state n gets no contribution before step n
        terms = state_terms(p, 1.0, 3, 6)
        assert [k for k, c in enumerate(terms) if c != 0.0] == [3, 4, 5, 6]

    def test_coefficient_overflow_is_a_convergence_error(self):
        # lam^nu = 1e12: the k = 40 coefficient is about 1e450
        with pytest.raises(ConvergenceError):
            state_terms(FractionalParams(1e20, alpha=0.7, nu=0.6), 1.0, 0, 40)

    def test_state_terms_sum_to_pmf(self):
        terms = state_terms(SSTFPP, 1.0, 2, 60)
        assert math.fsum(terms) == pytest.approx(pmf(SSTFPP, 1.0, 2), abs=1e-12)

    @pytest.mark.parametrize("params", [STFPP, SSTFPP], ids=lambda p: p.variant)
    @pytest.mark.parametrize("t", [0.3, 2.5])
    def test_terms_at_a_time_are_the_coefficients_times_powers(self, params, t):
        # term k at t is c_{n,k} t^{-k beta}, c_{n,k} being the term at t = 1
        for n in range(4):
            at_t = state_terms(params, t, n, 30)
            at_one = state_terms(params, 1.0, n, 30)
            scaled = [c * t ** (-k * params.beta) for k, c in enumerate(at_one)]
            tol = 1e-13 * max(1.0, math.fsum(abs(c) for c in at_t))
            assert abs(math.fsum(at_t) - math.fsum(scaled)) <= tol, (n, t)

    def test_checks_read_the_floats_pmf_prints(self):
        # at each answered point of a seeded sample, state n's terms up to
        # the k its series stopped at, read by the checks' reader at the
        # kernel's x, sum to pmf's float bit for bit
        rng = random.Random(28)
        answered = 0
        for _ in range(300):
            lam, t = math.exp(rng.uniform(-2.0, 2.0)), math.exp(rng.uniform(-2.0, 1.5))
            n = rng.randrange(8)
            alpha, nu = rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)
            params = rng.choice((
                FractionalParams(lam, alpha=alpha),
                FractionalParams(lam, nu=nu, beta=-1.0),
                FractionalParams(lam, alpha=alpha, nu=nu),
                FractionalParams(lam, alpha=alpha, nu=nu, beta=-rng.uniform(0.3, 1.5),
                                 gamma_p=rng.uniform(0.0, 1.0)),
            ))
            try:
                p = pmf(params, t, n)
            except ConvergenceError:
                continue
            k = processes._state_series(params, t, n, "pmf")[1]
            row = params._terms.state_rows(n, series_x(params, t), k + 1)[n]
            assert processes._kahan_sum(row) == p, (params, t, n)
            answered += 1
        assert answered > 250

    def test_rejects_a_nonpositive_time(self):
        # the equation check has no value at t = 0; the reader takes x
        for t in (0.0, -1.0, math.inf):
            with pytest.raises(ParameterError):
                kolmogorov_residual(STFPP, t, 0, 5)

    def test_residuals_build_no_power_series(self, monkeypatch):
        # the checks read the cache's terms at each time directly
        built = []
        init = adm.PowerSeries.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(adm.PowerSeries, "__init__", counting)
        for params in (STFPP, SSTFPP):
            truncated_normalization_residual(params, 0.7, 5, 40)
            for n in range(3):
                kolmogorov_residual(params, 0.7, n, 40)
        assert built == []


class TestGoverningEquation:
    def test_residual_within_bound(self):
        for params in (STFPP, SSTFPP):
            for n in range(4):
                for t in (0.5, 1.0):
                    res = kolmogorov_residual(params, t, n, 40)
                    bound = kolmogorov_tail_bound(params, t, n, 40)
                    assert res <= bound, (params.variant, n, t, res, bound)
                    assert res <= 1e-8

    def test_low_truncation_is_visible(self):
        rough = kolmogorov_residual(SSTFPP, 1.0, 1, 3)
        fine = kolmogorov_residual(SSTFPP, 1.0, 1, 40)
        assert rough > 1e3 * max(fine, 1e-18)
        assert rough > kolmogorov_tail_bound(SSTFPP, 1.0, 1, 40)

    def test_refuses_a_time_whose_t_to_the_beta_overflows(self):
        # beta = -2: t^beta = 1e302 is past LOG_HUGE, 1e298 is not
        p = FractionalParams(1.0, alpha=0.7, nu=0.6, beta=-2.0, gamma_p=0.1)
        assert kolmogorov_residual(p, 1e-149, 0, 10) <= 1e-12
        with pytest.raises(ConvergenceError):
            kolmogorov_residual(p, 1e-151, 0, 10)

    @pytest.mark.parametrize("params", [STFPP, SSTFPP], ids=lambda p: p.variant)
    def test_residual_is_a_function_of_x(self, params):
        # the equation over lam^nu: one x at any lam gives the same residual
        x = 1.5
        for n in range(4):
            first = None
            for lam in (1.0, 1e3, 1e100):
                p = dataclasses.replace(params, lam=lam)
                t = (x / lam ** p.nu) ** (-1.0 / p.beta)
                res = kolmogorov_residual(p, t, n, 40)
                assert res <= kolmogorov_tail_bound(p, t, n, 40), (lam, n, res)
                first = res if first is None else first
                assert abs(res - first) <= 1e-12, (lam, n, res, first)

    def test_bound_covers_log_space_rounding_at_tiny_x(self):
        # x = t^2 is far below 1: each term's log-magnitude holds k ln x,
        # whose rounding t^beta turns into relative error of the LHS
        p = FractionalParams(1.0, alpha=0.7, nu=0.6, beta=-2.0, gamma_p=0.1)
        for t in (1e-149, 1e-120, 1e-50):
            for n in (0, 1):
                res = kolmogorov_residual(p, t, n, 10)
                assert res <= kolmogorov_tail_bound(p, t, n, 10), (t, n, res)


# float.hex of the engine's iterate coefficients c_{n,k}, one line per state
# n = 0 .. 3, k = 0 .. 6; "-" marks a vanishing iterate (NU_HALF's pole zeros)
ENGINE_PINS = {
    SSTFPP: (
        "0x1.0000000000000p+0 -0x1.0c5dba799e9a1p+0 0x1.90bbaaa5cadd3p-1 -0x1.d7ae3d71b9e3fp-2"
        " 0x1.ce374284d6771p-3 -0x1.8636d3805c577p-4 0x1.2289753bddca7p-5",
        "- 0x1.420a12f857ec1p-1 -0x1.e0e1332d59d63p-1 0x1.a883374cc0e6bp-1"
        " -0x1.15545b1c80addp-1 0x1.24a91ea045419p-2 -0x1.057bb64f7acfdp-3",
        "- 0x1.01a1a8c6acbcep-3 0x1.80b428f114ab3p-4 -0x1.539c2c3d671eep-2"
        " 0x1.8442e5f4b4267p-2 -0x1.24a91ea045419p-2 0x1.53eda0341fa7bp-3",
        "- 0x1.e0e97f50b9e90p-5 0x1.9a59c5456b619p-6 -0x1.6a402f306dff4p-6"
        " -0x1.9e25398d8cf5bp-5 0x1.8636d3805c573p-4 -0x1.6a971148aa4c7p-4",
    ),
    NU_HALF: (
        "0x1.0000000000000p+0 -0x1.0ad981b82e0fdp+0 0x1.780e97f5fa0d6p-1 -0x1.97d70a921c6c0p-2"
        " 0x1.6b37521ed9e80p-3 -0x1.143612db52840p-4 0x1.7033bd95d6544p-6",
        "- 0x1.0ad981b82e0fdp-1 -0x1.780e97f5fa0d6p-1 0x1.31e147ed9550fp-1"
        " -0x1.6b37521ed9e7fp-2 0x1.594397922724fp-3 -0x1.1426ce3060bf2p-4",
        "- 0x1.0ad981b82e0fdp-3 - -0x1.31e147ed9550fp-3"
        " 0x1.6b37521ed9e7ep-3 -0x1.02f2b1ad9d5bbp-3 0x1.1426ce3060bf2p-4",
        "- 0x1.0ad981b82e0fdp-4 - -0x1.97d70a921c6c0p-6"
        " - 0x1.594397922724ep-6 -0x1.7033bd95d6541p-6",
    ),
}


class TestEngineAgainstClosedForm:
    def test_reference_points(self):
        assert adm_closed_form_diff(STFPP, 5, 10) <= 1e-10
        assert adm_closed_form_diff(SSTFPP, 5, 10) <= 1e-10
        for params, pins in ENGINE_PINS.items():
            sp = params.saigo()
            states = adm.adm_solve_linear(
                lambda rho: saigo_integral_power(sp, rho),
                [processes._coupling_weight(params, r) for r in range(4)],
                6,
            )
            for state, pin in zip(states, pins):
                coeffs = [term.coeff for term in state.terms]
                assert [c.hex() if c else "-" for c in coeffs] == pin.split()

    @pytest.mark.parametrize(
        "params", [CLASSICAL, TFPP, SFPP, STFPP, SSTFPP], ids=lambda p: p.variant
    )
    def test_solution_evaluates_to_the_pmf(self, params):
        # each state's series is its truncated decomposition solution: at
        # x = lam^nu t^(-beta) <= 1.3 forty orders reach the kernel's pmf;
        # the checks' weights are the equation's over lam^nu
        sp = params.saigo()
        states = adm.adm_solve_linear(
            lambda rho: saigo_integral_power(sp, rho),
            [params.lam ** params.nu * processes._coupling_weight(params, r) for r in range(9)],
            40,
        )
        for t in (0.25, 0.6, 1.0):
            assert params.lam ** params.nu * t ** -params.beta <= 1.3
            for n, state in enumerate(states):
                assert abs(state.evaluate(t) - pmf(params, t, n)) <= 1e-11, (t, n)

    def test_coefficient_overflow_is_a_convergence_failure(self):
        # gamma = 1e15: w * c overflows at order 8; that is no bad parameter
        p = FractionalParams(1.0, alpha=0.3, nu=0.6, beta=-3.0, gamma_p=1e15)
        with pytest.raises(ConvergenceError, match="coefficient overflow at iterate k=8"):
            adm_closed_form_diff(p, 5, 10)

    def test_exponent_compared_relative_to_its_size(self):
        # |k beta| ~ 7e8, where an absolute 1e-9 is below the exponent's ulp:
        # the exponents agree to rounding, and the coefficients' lost digits
        # show in the residual instead
        diff = adm_closed_form_diff(LARGE_BETA, 5, 10)
        assert math.isfinite(diff) and diff > 1e-10

    @pytest.mark.parametrize("params", [SSTFPP, LARGE_BETA], ids=["sstfpp", "large-beta"])
    def test_shifted_exponent_raises(self, monkeypatch, params):
        # an engine whose exponents drift by a relative 1e-6 is still caught
        def shifted(sp, rho):
            image = saigo_integral_power(sp, rho)
            return adm.PowerTerm(image.coeff, image.exponent * (1.0 + 1e-6))

        monkeypatch.setattr(processes, "saigo_integral_power", shifted)
        with pytest.raises(ConvergenceError, match=r"iterate \(n=0, k=1\) has exponent"):
            adm_closed_form_diff(params, 5, 10)

    def test_random_tuples(self):
        rng = np.random.default_rng(4177)
        for _ in range(4):
            p = FractionalParams(
                rng.uniform(0.5, 2.0),
                alpha=rng.uniform(0.5, 1.0),
                nu=rng.uniform(0.5, 1.0),
                beta=-rng.uniform(0.4, 1.0),
                gamma_p=rng.uniform(0.0, 0.5),
            )
            assert adm_closed_form_diff(p, 4, 8) <= 1e-10, p


class TestPgfEquation:
    def test_reference_points(self):
        for params in (STFPP, SSTFPP):
            for u in (-0.6, 0.0, 0.5):
                assert pgf_cauchy_residual(params, u, 40) <= 1e-10

    def test_rejects_bad_argument(self):
        with pytest.raises(ParameterError):
            pgf_cauchy_residual(SSTFPP, 1.2, 10)


class TestCompositionOnProcessParameters:
    def test_reference_points(self):
        assert composition_tuples_residual(STFPP) <= 1e-10
        assert composition_tuples_residual(SSTFPP) <= 1e-10
