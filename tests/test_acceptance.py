"""Acceptance suite: the eight contract-level checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and enforces both the numerical tolerance and the runtime budget.
Random tuples are drawn from fixed seeds so every run exercises the same
points.
"""

import math
import time

import numpy as np
import pytest

from fracpois.processes import (
    FractionalParams,
    adm_closed_form_diff,
    kolmogorov_residual,
    poisson_pmf,
    sstfpp_pgf,
    waiting_survival,
)
from fracpois.saigo import SaigoParams, composition_check, saigo_integral_power, \
    semigroup_counterexample
from fracpois.simulate import chi_square_gof, empirical_pmf
from oracles import (
    kolmogorov_tail_bound,
    normalization_residual,
    pgf_cauchy_residual,
    saigo_integral_quadrature,
    sfpp_pmf,
    sstfpp_pmf,
    stfpp_pmf,
    tfpp_pmf,
)


def report(criterion: int, label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {criterion} ({label}) -- {detail}")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def test_criterion_1_reduction_lattice():
    start = time.perf_counter()
    times = (0.25, 0.5, 1.0, 2.0)
    worst = 0.0

    def track(a, b):
        nonlocal worst
        worst = max(worst, abs(a - b))

    # Saigo family at beta = -alpha vs the reduced space-time formula
    p = FractionalParams(1.1, alpha=0.7, nu=0.6, beta=-0.7, gamma_p=0.3)
    for t in times:
        for n in range(16):
            track(sstfpp_pmf(p, t, n), stfpp_pmf(p, t, n))
    # space-time at nu = 1 vs time-fractional
    p = FractionalParams(1.3, alpha=0.6, nu=1.0)
    for t in times:
        for n in range(16):
            track(stfpp_pmf(p, t, n), tfpp_pmf(p, t, n))
    # space-time at alpha = 1 vs space-fractional
    p = FractionalParams(1.0, alpha=1.0, nu=0.6, beta=-1.0)
    for t in times:
        for n in range(16):
            track(stfpp_pmf(p, t, n), sfpp_pmf(p, t, n))
    # every route at alpha = nu = 1 vs the classical pmf
    p = FractionalParams(1.2, alpha=1.0, nu=1.0, beta=-1.0)
    for t in times:
        for n in range(16):
            classical = poisson_pmf(1.2, t, n)
            track(stfpp_pmf(p, t, n), classical)
            track(tfpp_pmf(p, t, n), classical)
            track(sfpp_pmf(p, t, n), classical)
            track(sstfpp_pmf(p, t, n), classical)

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, "reduction lattice", ok,
           f"worst |diff| = {worst:.3e} (tol 1e-9), {elapsed:.2f}s (budget 5s)")


def test_criterion_2_normalization():
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.6, 1.0)
        nu = rng.uniform(0.6, 1.0)
        beta = -rng.uniform(0.6, 1.0)
        gamma_p = rng.uniform(0.0, 0.5)
        lam = rng.uniform(0.5, 2.0)
        # keep the series argument lam^nu t^(-beta) at or below 5
        tmax = min(2.5, (5.0 / lam ** nu) ** (-1.0 / beta))
        t = rng.uniform(0.2, tmax)
        p = FractionalParams(lam, alpha=alpha, nu=nu, beta=beta, gamma_p=gamma_p)
        worst = max(worst, normalization_residual(p, t, 25))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    report(2, "normalization with exact tail", ok,
           f"worst residual = {worst:.3e} (tol 1e-6), {elapsed:.2f}s (budget 10s)")


def test_criterion_3_decomposition_vs_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    worst = 0.0
    for i in range(10):
        alpha = rng.uniform(0.5, 1.0)
        nu = rng.uniform(0.5, 1.0)
        lam = rng.uniform(0.5, 2.0)
        if i < 5:
            p = FractionalParams(lam, alpha=alpha, nu=nu)  # beta = -alpha
        else:
            p = FractionalParams(
                lam, alpha=alpha, nu=nu,
                beta=-rng.uniform(0.4, 1.0), gamma_p=rng.uniform(0.0, 0.5),
            )
        worst = max(worst, adm_closed_form_diff(p, 5, 10))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(3, "decomposition iterates vs closed form", ok,
           f"worst diff = {worst:.3e} (tol 1e-10), {elapsed:.2f}s (budget 5s)")


def test_criterion_4_governing_equation_residual():
    start = time.perf_counter()
    rng = np.random.default_rng(271828)
    worst = 0.0
    worst_ratio = 0.0
    for i in range(10):
        alpha = rng.uniform(0.65, 1.0)
        nu = rng.uniform(0.6, 1.0)
        lam = rng.uniform(0.5, 1.5)
        if i < 5:
            beta, gamma_p = -alpha, 0.0
        else:
            beta, gamma_p = -rng.uniform(0.65, 1.0), rng.uniform(0.0, 0.5)
        p = FractionalParams(lam, alpha=alpha, nu=nu, beta=beta, gamma_p=gamma_p)
        # keep the series argument lam^nu t^(-beta) at or below 2
        x = rng.uniform(0.3, 2.0)
        t = (x / lam ** nu) ** (-1.0 / beta)
        for n in range(6):
            res = kolmogorov_residual(p, t, n, 40)
            bound = kolmogorov_tail_bound(p, t, n, 40)
            worst = max(worst, res)
            worst_ratio = max(worst_ratio, res / bound)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and worst_ratio <= 1.0 and elapsed < 10.0
    report(4, "governing-equation residual", ok,
           f"worst residual = {worst:.3e} (tol 1e-8), "
           f"worst residual/bound = {worst_ratio:.3f} (must be <= 1), "
           f"{elapsed:.2f}s")


def test_criterion_5_composition_identity_and_counterexample():
    start = time.perf_counter()
    rng = np.random.default_rng(57721)
    worst = 0.0
    for _ in range(50):
        p = SaigoParams(
            rng.uniform(0.05, 1.0), -rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0)
        )
        rho = rng.uniform(0.1, 3.0)
        t = rng.uniform(0.5, 2.0)
        worst = max(worst, composition_check(p, rho, t))

    chk = semigroup_counterexample(
        SaigoParams(0.5, -0.2, 0.3), SaigoParams(0.7, -0.4, 0.1), 1.0
    )
    rel = abs(chk.lhs - chk.rhs) / max(abs(chk.lhs), abs(chk.rhs))

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and chk.differ and rel > 1e-3 and elapsed < 5.0
    report(5, "composition identity + commutation counterexample", ok,
           f"worst composition residual = {worst:.3e} (tol 1e-10), "
           f"counterexample rel diff = {rel:.4f} (> 1e-3), {elapsed:.2f}s")


def test_criterion_6_power_rule_vs_quadrature():
    start = time.perf_counter()
    rng = np.random.default_rng(16180)
    worst = 0.0
    for _ in range(50):
        alpha = rng.uniform(0.3, 1.5)
        gamma_p = rng.uniform(0.0, 0.8)
        beta = rng.uniform(-1.0, gamma_p - 0.05)
        rho = rng.uniform(0.3, 2.5)
        t = rng.uniform(0.5, 2.0)
        p = SaigoParams(alpha, beta, gamma_p)
        lemma = saigo_integral_power(p, rho)
        expect = lemma.coeff * t ** lemma.exponent
        direct = saigo_integral_quadrature(p, rho, t)
        worst = max(worst, abs(direct - expect) / max(1e-300, abs(expect)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    report(6, "integral power rule vs quadrature", ok,
           f"worst rel diff = {worst:.3e} (tol 1e-6), {elapsed:.2f}s (budget 30s)")


def test_criterion_7_monte_carlo_distribution():
    start = time.perf_counter()
    n_samples = 100_000
    cases = [
        ("classical", FractionalParams(1.0)),
        ("tfpp", FractionalParams(1.0, alpha=0.6)),
        ("sfpp", FractionalParams(1.0, nu=0.6, beta=-1.0)),
        ("stfpp", FractionalParams(1.0, alpha=0.7, nu=0.6)),
    ]
    details = []
    ok = True
    for name, params in cases:
        emp = empirical_pmf(params, 1.0, n_samples, 30, 2024)
        _, pvalue, dof = chi_square_gof(emp)
        details.append(f"{name}: p = {pvalue:.3f} (dof {dof})")
        ok = ok and pvalue > 0.01
        # zero-count frequency against the closed-form survival, 3 SE wide
        target = waiting_survival(params, 1.0)
        se = math.sqrt(target * (1.0 - target) / n_samples)
        dev = abs(emp.frequency(0) - target)
        ok = ok and dev <= 3.0 * se
        details.append(f"{name} n=0 dev = {dev / se:.2f} SE")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(7, "Monte-Carlo goodness of fit", ok,
           "; ".join(details) + f"; {elapsed:.1f}s (budget 60s)")


def test_criterion_8_generating_function_equation():
    start = time.perf_counter()
    rng = np.random.default_rng(141421)
    worst = 0.0
    for i in range(10):
        alpha = rng.uniform(0.6, 1.0)
        nu = rng.uniform(0.6, 1.0)
        lam = rng.uniform(0.5, 2.0)
        if i < 5:
            p = FractionalParams(lam, alpha=alpha, nu=nu)
        else:
            p = FractionalParams(
                lam, alpha=alpha, nu=nu,
                beta=-rng.uniform(0.6, 1.0), gamma_p=rng.uniform(0.0, 0.5),
            )
        u = rng.uniform(-0.9, 0.9)
        worst = max(worst, pgf_cauchy_residual(p, u, 40))

    # special-case closed forms of the generating function
    worst_special = 0.0
    p_time = FractionalParams(1.2, alpha=0.65)
    p_space = FractionalParams(1.1, nu=0.7, beta=-1.0)
    for u in (-0.6, 0.0, 0.3, 0.7):
        for t in (0.5, 1.0, 2.0):
            g_time = sstfpp_pgf(p_time, u, t)
            # E_a(-z): the printed tfpp formula's state 0 at lam = z, t = 1
            e_time = tfpp_pmf(FractionalParams(1.2 * (1.0 - u) * t ** 0.65, alpha=0.65), 1.0, 0)
            worst_special = max(worst_special, abs(g_time - e_time))
            g_space = sstfpp_pgf(p_space, u, t)
            e_space = math.exp(-(1.1 ** 0.7) * (1.0 - u) ** 0.7 * t)
            worst_special = max(worst_special, abs(g_space - e_space))

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and worst_special <= 1e-10 and elapsed < 5.0
    report(8, "generating-function equation", ok,
           f"worst coefficient residual = {worst:.3e} (tol 1e-10), "
           f"worst closed-form diff = {worst_special:.3e} (tol 1e-10), "
           f"{elapsed:.2f}s")
