"""Every input gives a value or a typed refusal, over the whole float range.

Seeded draws put the public entry points and every CLI subcommand through
parameters and times from the float range's edges (5e-324 to 1.7e308),
log-uniform over it, and from the ordinary range U(0, 5); orders alpha and
nu are 1, U(1e-6, 1) or 1e-300.  Each library call must return a finite
value or raise a FracpoisError, and a probability, tail, pgf or survival
value must lie in [0, 1] within 1e-9, except sstfpp at -beta > 1, whose
series can leave it (ROADMAP item 6).  Each CLI run must exit 0, 2, 3 or 4
(1 only for verify, a failed check) with nothing on stdout unless it
exits 0 or 1, and issue no warning but the stable sampler's known overflow
at tiny orders (pinned below as a strict xfail); any other exception
escapes main and fails the test.

The draws are derandomized: a run is one fixed set of examples.  The
checks are plain functions of a draw, so a script can run the same
strategies under other seeds and example counts.
"""

import contextlib
import io
import math
import shlex
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fracpois import cli
from fracpois.errors import FracpoisError
from fracpois.processes import (
    FractionalParams,
    adm_closed_form_diff,
    kolmogorov_residual,
    pmf,
    pmf_table,
    pmf_tail_mass,
    sstfpp_pgf,
    truncated_normalization_residual,
    waiting_survival,
)

# The float range's edges and every 25th decade between them.
EDGES = [5e-324, 1e-320] + [10.0 ** e for e in range(-300, 301, 25)] + [1.7e308]
# lambda, |beta|, gamma and t
MAGNITUDES = st.one_of(
    st.sampled_from(EDGES),
    st.floats(-323.3, 308.25).map(lambda e: 10.0 ** e),
    st.floats(0.0, 5.0),
)
ORDERS = st.one_of(st.just(1.0), st.floats(1e-6, 1.0), st.just(1e-300))  # alpha and nu
STATES = st.sampled_from([0, 1, 3, 25])
ORDERS_K = st.sampled_from([0, 3, 12])  # a truncation order of the checks
PGF_U = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)

# One fixed set of examples per run; each test's example count keeps it
# near a second on a 2-vCPU VM (a library draw at a tiny order fills and
# walks TERM_CAP terms).
SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TOL = 1e-9


def _outcome(call):
    """call()'s value, or None where it raises a FracpoisError."""
    try:
        return call()
    except FracpoisError:
        return None


def check_library(lam, alpha, nu, beta, gamma_p, t, n, k, u):
    """Each entry point on one draw: a finite value or a FracpoisError, and
    a probability within [0, 1] off item 6's domain.  beta None is -alpha."""
    try:
        params = FractionalParams(lam, alpha=alpha, nu=nu, beta=beta, gamma_p=gamma_p)
    except FracpoisError:
        return
    probabilities = [
        _outcome(lambda: pmf(params, t, n)),
        _outcome(lambda: pmf_tail_mass(params, t, n)),
        _outcome(lambda: sstfpp_pgf(params, u, t)),
        _outcome(lambda: waiting_survival(params, t)),
    ]
    table = _outcome(lambda: pmf_table(params, [t, 0.5 * t], n))
    if table is not None:
        probabilities += [p for row in table.probs for p in row] + list(table.tail_mass)
    residuals = [
        _outcome(lambda: truncated_normalization_residual(params, t, n, k)),
        _outcome(lambda: kolmogorov_residual(params, t, n, k)),
        _outcome(lambda: adm_closed_form_diff(params, min(n, 5), k)),
    ]
    values = [v for v in probabilities + residuals if v is not None]
    assert all(math.isfinite(v) for v in values), values
    if not (params.variant == "sstfpp" and -params.beta > 1.0):
        assert all(-TOL <= p <= 1.0 + TOL for p in probabilities if p is not None), probabilities


@st.composite
def cli_argvs(draw):
    """One well-formed command line: a subcommand, a variant with the
    parameters it leaves free, its times, and the subcommand's own flags."""
    command = draw(st.sampled_from(["pmf", "pgf", "survival", "verify", "simulate"]))
    variant = draw(st.sampled_from(cli.VARIANTS))
    argv = [command, "--variant", variant, f"--lam={draw(MAGNITUDES)!r}"]
    free = [name for name in ("alpha", "nu", "beta", "gamma_p") if name not in cli.PINNED[variant]]
    if variant != "sstfpp":
        free = [name for name in free if name != "beta"]  # -alpha, as the variant requires
    for name in free:
        if name in ("alpha", "nu"):
            value = draw(ORDERS)
        else:
            value = draw(MAGNITUDES) * (-1.0 if name == "beta" else 1.0)
        argv.append(f"--{name.removesuffix('_p')}={value!r}")
    if command == "simulate" or draw(st.booleans()):
        argv.append(f"-t={draw(MAGNITUDES)!r}")
    else:
        argv += [f"--t-start={draw(MAGNITUDES)!r}", f"--t-stop={draw(MAGNITUDES)!r}",
                 f"--t-count={draw(st.integers(1, 3))}"]
    if command not in ("pgf", "survival"):
        argv.append(f"--n-max={draw(STATES)}")
    if command == "pgf":
        argv.append(f"-u={draw(PGF_U)!r}")
    if command == "simulate":
        argv += [f"--samples={draw(st.integers(1, 1000))}", f"--seed={draw(st.integers(0, 2**32))}"]
    return argv


def _run_cli(argv):
    """cli.main(argv)'s exit code, stdout, stderr and the warnings it issued."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def _sampler_overflow(argv, warning):
    # the one known warning source: the stable sampler's numpy arithmetic
    # at tiny orders (test_simulate_at_a_tiny_order_warns_nothing)
    return (argv[0] == "simulate" and issubclass(warning.category, RuntimeWarning)
            and warning.filename.endswith("simulate.py"))


def check_cli(argv):
    """cli.main on one command line: a documented exit code, nothing on
    stdout where it refuses, and no warning but the known one."""
    code, out, err, caught = _run_cli(argv)
    allowed = (0, 1, 2, 3, 4) if argv[0] == "verify" else (0, 2, 3, 4)
    assert code in allowed, (argv, code, err)
    if code >= 2:
        assert out == "", argv
    assert [str(w.message) for w in caught if not _sampler_overflow(argv, w)] == [], argv


@settings(SETTINGS, max_examples=60)
@given(lam=MAGNITUDES, alpha=ORDERS, nu=ORDERS,
       beta=st.one_of(st.none(), MAGNITUDES.map(lambda b: -b)), gamma_p=MAGNITUDES,
       t=MAGNITUDES, n=STATES, k=ORDERS_K, u=PGF_U)
# ROADMAP item 18's escapes: math.lgamma's range at t = 0, the Saigo
# multiplier's overflow, and a classical lam t that underflows
@example(lam=1.0, alpha=0.5, nu=0.6, beta=-1.0e229, gamma_p=2.5e307, t=0.0, n=0, k=3, u=0.5)
@example(lam=1.0, alpha=5e-324, nu=1.0, beta=None, gamma_p=0.0, t=1.0, n=1, k=3, u=0.5)
@example(lam=1e-200, alpha=1.0, nu=1.0, beta=None, gamma_p=0.0, t=1e-188, n=3, k=3, u=0.5)
def test_library_gives_a_value_or_a_refusal(lam, alpha, nu, beta, gamma_p, t, n, k, u):
    check_library(lam, alpha, nu, beta, gamma_p, t, n, k, u)


@settings(SETTINGS, max_examples=100)
@given(argv=cli_argvs())
@example(argv=shlex.split(
    "verify --variant sstfpp --alpha 0.5 --nu 0.6 --beta=-0.5 --gamma 1e308 -t 1"))
@example(argv=shlex.split("verify --variant tfpp --alpha 5e-324 -t 1"))
@example(argv=shlex.split("survival --variant classical --lam 1e-200 -t 1e-188"))
@example(argv=shlex.split("pmf --variant classical --lam 1e-200 -t 1e-188 --n-max 2"))
@example(argv=shlex.split(
    "pmf --variant sstfpp --alpha 0.5 --nu 0.6 --beta=-4e304 --gamma 0.1 -t 1 --n-max 2"))
@example(argv=shlex.split(
    "pmf --variant sstfpp --alpha 0.5 --nu 0.6 --beta=-4e304 --gamma 0.1 -t 0 --n-max 2"))
def test_cli_exits_with_a_documented_code(argv):
    check_cli(argv)


# The stable sampler's kernel overflows at tiny orders: (1 - nu)/nu and
# 1/nu reach 1e6 at nu = 1e-6, and numpy warns of overflow, a division by
# zero and an invalid product; where warnings are errors (python -W error)
# each is a traceback.  The closed form refuses these points (exit 3).
@pytest.mark.xfail(strict=True, reason="the stable sampler overflows at tiny orders")
@pytest.mark.parametrize("argv", [
    "simulate --variant tfpp --alpha=1e-300 -t=1.0 --n-max=5 --samples=100 --seed=1",
    "simulate --variant sfpp --nu=1e-06 -t=1.0 --n-max=5 --samples=100 --seed=1",
])
def test_simulate_at_a_tiny_order_warns_nothing(argv):
    code, out, _, caught = _run_cli(shlex.split(argv))
    assert (code, out) == (3, "")
    assert [str(w.message) for w in caught] == []
