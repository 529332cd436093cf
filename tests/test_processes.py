import copy
import dataclasses
import itertools
import math
import pickle
import sys
import threading
import time

import numpy as np
import pytest

from fracpois import processes
from fracpois.errors import ConvergenceError, ParameterError
from fracpois.processes import (
    FractionalParams,
    adm_closed_form_diff,
    closed_iterate_coefficient,
    composition_tuples_residual,
    kolmogorov_residual,
    kolmogorov_tail_bound,
    normalization_residual,
    pgf_cauchy_residual,
    pmf,
    pmf_table,
    pmf_tail_mass,
    poisson_pmf,
    sstfpp_pgf,
    state_series,
    truncated_normalization_residual,
    waiting_survival,
)
from fracpois.saigo import ck_log_coefficients, ck_log_run
from fracpois.specfun import mittag_leffler
from oracles import sfpp_pmf, sstfpp_pmf, stfpp_pmf, tfpp_pmf

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
            expect = mittag_leffler(TFPP.alpha, -TFPP.lam * t ** TFPP.alpha)
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
                mittag_leffler(STFPP.alpha, -x), rel=1e-12
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

    @pytest.mark.parametrize("m", [1.0, 20.0, 30.0])
    def test_classical_tail_is_exact(self, m):
        # the upward Poisson sum against the exact tail; at m = 20 the
        # cancelling k-series gave 0.0170 for N = 40 instead of 2.54e-05
        mpmath = pytest.importorskip("mpmath")
        p = FractionalParams(m)
        with mpmath.workdps(50):
            mm = mpmath.mpf(m)
            for n_max in (0, 3, 10, 25, 40, 60, 100):
                exact = mpmath.exp(-mm) * mpmath.fsum(
                    mm ** n / mpmath.factorial(n) for n in range(n_max + 1, n_max + 400)
                )
                assert pmf_tail_mass(p, 1.0, n_max) == pytest.approx(float(exact), rel=1e-14)
            # the CLI golden's tail, 1 - (8/3)/e, is the nearest double
            if m == 1.0:
                assert pmf_tail_mass(p, 1.0, 3) == float(1 - mpmath.mpf(8) / 3 / mpmath.e)

    def test_classical_tail_keeps_the_argument_guard(self):
        with pytest.raises(ConvergenceError):
            pmf_tail_mass(FractionalParams(31.0), 1.0, 10)

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
        beta_15 = FractionalParams(1.0, alpha=0.8, nu=0.6, beta=-1.5, gamma_p=0.1)
        for params in (SSTFPP, RL_GAMMA, CLASSICAL, TFPP, SFPP, STFPP, NU_HALF, beta_15):
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
        assert pmf_table(beta_15, [1e-300], 6).probs[0] == (1.0,) + (0.0,) * 6

    def test_row_fills_independent_of_time_count(self, monkeypatch):
        # each row entry (state or tail, k) is filled once per table,
        # whatever the number of times that read it
        calls = []
        fill = processes._SeriesTerms.fill

        def counting(terms, key, row, stop):
            calls.extend(range(len(row) >> 1, stop))
            fill(terms, key, row, stop)

        monkeypatch.setattr(processes._SeriesTerms, "fill", counting)
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

    def test_argument_guard_in_a_later_time(self):
        with pytest.raises(ConvergenceError) as exc:
            pmf_table(TFPP, [0.5, 1.0, 1e6], 8)
        assert str(exc.value) == (
            "pmf: series argument 5175.39 exceeds 30.0; "
            "double-precision cancellation would destroy the result"
        )

    def test_inadmissible_gamma_rejected(self):
        # alpha = 0.8, beta = -0.5, gamma = -1.5: Gamma(1 + g - b) has
        # argument 0 at j = 1; t = 0 needs no C_k, so the first row passes
        bad = FractionalParams(1.0, alpha=0.8, nu=0.6, beta=-0.5, gamma_p=-1.5)
        with pytest.raises(ParameterError) as exc:
            pmf_table(bad, [0.0, 1.0], 5)
        assert str(exc.value) == (
            "ck_log_coefficients: gamma argument <= 0 at j = 1 "
            "(num = 0.0, den = 0.30000000000000004); gamma_p out of admissible range"
        )

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


def _count_ck_factors(monkeypatch) -> list[int]:
    """The j of every C_k factor the term cache evaluates, in call order."""
    factors: list[int] = []

    def counting(sp, start, stop, ln_prev):
        factors.extend(range(max(start, 1), stop))
        return ck_log_run(sp, start, stop, ln_prev)

    monkeypatch.setattr(processes, "ck_log_run", counting)
    return factors


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
        monkeypatch.setattr(processes, "ck_log_run", yielding(processes.ck_log_run))
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

    def test_time_fractional_closed_form(self):
        # beta = -alpha, nu = 1: G(u, t) = E_a(-lam (1-u) t^a)
        p = FractionalParams(1.2, alpha=0.65)
        for u in (-0.5, 0.0, 0.4, 0.8):
            for t in (0.5, 1.0, 2.0):
                expect = mittag_leffler(0.65, -1.2 * (1.0 - u) * t ** 0.65)
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


class TestClosedIterates:
    def test_rl_zero_state_coefficients(self):
        # for beta = -alpha, C_k = 1 and the n = 0 coefficients are
        # (-lam^nu)^k / Gamma(k alpha + 1)
        logck = ck_log_coefficients(STFPP.saigo(), 8)
        for k in range(9):
            expect = (-(STFPP.lam ** STFPP.nu)) ** k / math.gamma(k * STFPP.alpha + 1.0)
            got = closed_iterate_coefficient(STFPP, logck, 0, k)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_integer_nu_triangularity(self):
        p = FractionalParams(1.0, alpha=0.7, nu=1.0)
        logck = ck_log_coefficients(p.saigo(), 6)
        # (k)_n vanishes for k < n: state n gets no contribution before step n
        assert closed_iterate_coefficient(p, logck, 3, 2) == 0.0
        assert closed_iterate_coefficient(p, logck, 3, 3) != 0.0

    def test_state_series_evaluates_to_pmf(self):
        s = state_series(SSTFPP, 2, 60)
        assert s.evaluate(1.0) == pytest.approx(pmf(SSTFPP, 1.0, 2), abs=1e-12)


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


class TestEngineAgainstClosedForm:
    def test_reference_points(self):
        assert adm_closed_form_diff(STFPP, 5, 10) <= 1e-10
        assert adm_closed_form_diff(SSTFPP, 5, 10) <= 1e-10

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
