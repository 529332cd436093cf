"""The four workloads: inputs drawn from the seed, one op each, and its checks.

Every workload is one process, one thread, closed loop with one client: the
next op starts when the previous one has returned.  ``prepare`` builds the
inputs, ``run`` executes one op and returns its raw output, and ``check``
(called right after each op, outside its timing) returns
``(reason, residual)`` with reason None when the op passed.  ``run`` looks
each fracpois function up on the package when it is called, so that the
traced run's wrappers (tracer.py) see the calls.  A failure is any of: the
op raised, the CLI exited non-zero or printed other bytes than ``cli.main``
in-process, a p_n or tail outside [0, 1], |sum_{n<=N} p_n + tail - 1| > TOL,
a pgf value outside [sum u^n p_n, sum u^n p_n + u^(N+1) tail], or a
chi-square p-value below MIN_PVALUE.  The range, normalisation and
bracket checks all allow TOL of rounding.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

TOL = 1e-9
N_STATES = 25
PGF_U = (0.25, 0.5, 0.75)
MC_SAMPLES = 200_000
MIN_PVALUE = 1e-6
GRID_TIMES = 50
GRID_DECK = {"classical": 1, "tfpp": 1, "sfpp": 1, "stfpp": 1, "sstfpp": 20}
MC_DECK = {"classical": 2, "tfpp": 4, "sfpp": 4, "stfpp": 6}
X_MAX = 5.0


def child_env() -> dict[str, str]:
    """Environment for every child process: the checkout's sources, one thread."""
    env = dict(os.environ)
    env.pop("FRACPOIS_CONFIG", None)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _times_for_x(point: tuple, xs) -> list[float]:
    """Times at which x = lam^nu t^(-beta) takes the values xs."""
    lam, _, nu, beta, _ = point
    return [(x / lam ** nu) ** (1.0 / -beta) for x in xs]


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of count equal slices of [lo, hi), shuffled."""
    w = (hi - lo) / count
    vals = [lo + (i + rng.random()) * w for i in range(count)]
    rng.shuffle(vals)
    return vals


def check_distribution(ps, tail: float) -> tuple[str | None, float]:
    """Range and normalisation of one row p_0..p_N plus its tail mass."""
    residual = abs(math.fsum(ps) + tail - 1.0)
    bad = [n for n, p in enumerate(ps) if not (-TOL <= p <= 1.0 + TOL)]
    if bad:
        return f"p_{bad[0]} = {ps[bad[0]]:.6g} outside [0, 1]", residual
    if not (-TOL <= tail <= 1.0 + TOL):
        return f"tail = {tail:.6g} outside [0, 1]", residual
    if not residual <= TOL:
        return f"normalisation residual {residual:.3g} > {TOL:g}", residual
    return None, residual


def check_pgf(ps, tail: float, u: float, g: float) -> str | None:
    head = math.fsum(u ** n * p for n, p in enumerate(ps))
    hi = head + u ** len(ps) * tail
    if not (head - TOL <= g <= hi + TOL):
        return f"pgf({u}) = {g:.17g} outside [{head:.17g}, {hi:.17g}]"
    return None


class Workload:
    """What the timed loop needs from a workload; subclasses fill it in."""

    name = ""
    values_per_op = 0
    ops: list
    warmup: int

    def values(self, op) -> int:
        """Probabilities, tail masses and pgf values one op produces."""
        return self.values_per_op

    def samples(self, op) -> int:
        """Monte-Carlo draws one op makes."""
        return 0

    def points(self, op) -> list[tuple]:
        """(lam, alpha, nu, beta, gamma, t) points whose failure may be rounding."""
        return []


class GridTable(Workload):
    """One pmf_table of 50 times x 26 states with its tail, per op.

    24 parameter sets per seed in GRID_DECK proportions, each order drawn
    from its own stratified sample.  sstfpp is five sixths of the deck, so
    the median op lies well inside the sstfpp tables on every seed rather
    than at the gap between them and the faster variants.  Orders are kept in
    [0.9, 1], where the series is accurate to well inside TOL for every
    x <= 5 (at 0.8 it already fails there), so that no grid op fails; the
    accuracy boundary is lattice-sweep's job.  Off the stfpp line ln C_k is
    still rebuilt as in the ROADMAP's aim-1 table: the traced run reports
    saigo.ck_share of a grid pass next to aim1_table.ck_share.
    """

    name = "grid-table"
    values_per_op = GRID_TIMES * (N_STATES + 1) + GRID_TIMES

    def prepare(self, seed: int) -> None:
        import fracpois

        self._fp = fracpois
        rng = random.Random(seed)
        d = GRID_DECK
        shapes = [(1.0, 1.0, -1.0, 0.0)] * d["classical"]  # (alpha, nu, beta, gamma)
        shapes += [(a, 1.0, -a, 0.0) for a in _stratified(rng, 0.9, 1.0, d["tfpp"])]
        shapes += [(1.0, nu, -1.0, 0.0) for nu in _stratified(rng, 0.4, 1.0, d["sfpp"])]
        shapes += [(a, nu, -a, 0.0) for a, nu in zip(
            _stratified(rng, 0.9, 1.0, d["stfpp"]), _stratified(rng, 0.4, 1.0, d["stfpp"]))]
        n = d["sstfpp"]
        shapes += zip(_stratified(rng, 0.9, 1.0, n), _stratified(rng, 0.4, 1.0, n),
                      [-b for b in _stratified(rng, 0.9, 1.0, n)], _stratified(rng, 0.0, 0.5, n))
        points = [(lam, *shape) for lam, shape in zip(_stratified(rng, 0.5, 2.0, len(shapes)), shapes)]
        xs = [X_MAX * (i + 1) / GRID_TIMES for i in range(GRID_TIMES)]
        self.ops = [(p, tuple(_times_for_x(p, xs))) for p in points]
        rng.shuffle(self.ops)
        self.warmup = next(i for i, (p, _) in enumerate(self.ops) if p[3] != -p[1])

    def run(self, op):
        point, times = op
        return self._fp.pmf_table(self._fp.FractionalParams(*point), times, N_STATES)

    def check(self, op, table) -> tuple[str | None, float]:
        worst = 0.0
        for t, row, tail in zip(table.times, table.probs, table.tail_mass):
            reason, residual = check_distribution(row, tail)
            worst = max(worst, residual)
            if reason:
                return f"t = {t:.6g}: {reason}", worst
        return None, worst

    def corrupt(self, table):
        probs = [list(r) for r in table.probs]
        probs[0][1] += 1e-6
        return replace(table, probs=tuple(tuple(r) for r in probs))

    def points(self, op):
        point, times = op
        return [(*point, t) for t in times]


# The ROADMAP's accuracy sweep: alpha x nu x x at lam = 1, beta = -alpha.
# About a third of these points cancel away every digit, so they are not
# timed ops: every run checks them once, untimed (run.py, roadmap_audit).
LATTICE = [
    (1.0, a, nu, -a, 0.0, x ** (1.0 / a))
    for a in (0.3, 0.5, 0.7, 0.9, 1.0)
    for nu in (0.4, 0.6, 0.8, 1.0)
    for x in (1.0, 2.0, 3.0, 4.0, 5.0)
]
LATTICE_SEEDED = 300
# Largest x of a timed lattice point.  oracle.rounding_bound stays below
# 3e-13 over the whole drawn box up to here (worst corner: alpha = 0.3,
# -beta = 0.2, nu = 1); at x = 1 it reaches 6e-9, above TOL.
LATTICE_X_MAX = 0.75


class LatticeSweep(Workload):
    """One fresh parameter point per op: p_0..p_25, tail, survival, 3 pgf values.

    LATTICE_SEEDED sstfpp points with every parameter drawn from the seed,
    at x <= LATTICE_X_MAX, where double precision delivers every value, so
    that no op fails.  The accuracy boundary is the ROADMAP's 100-point
    sweep (LATTICE), which every run checks once outside the timed loop.
    """

    name = "lattice-sweep"
    values_per_op = N_STATES + 1 + 1 + 1 + len(PGF_U)

    def prepare(self, seed: int) -> None:
        import fracpois

        self._fp = fracpois
        rng = random.Random(seed)
        self.ops = []
        n = LATTICE_SEEDED
        for lam, a, nu, b, g, x in zip(
            _stratified(rng, 0.5, 2.0, n), _stratified(rng, 0.3, 1.0, n),
            _stratified(rng, 0.4, 1.0, n), _stratified(rng, 0.2, 1.0, n),
            _stratified(rng, 0.0, 0.5, n), _stratified(rng, 1e-3, LATTICE_X_MAX, n),
        ):
            point = (lam, a, nu, -b, g)
            self.ops.append((*point, _times_for_x(point, [x])[0]))
        rng.shuffle(self.ops)
        self.warmup = 0

    def run(self, op):
        fp = self._fp
        lam, a, nu, b, g, t = op
        params = fp.FractionalParams(lam, a, nu, b, g)
        ps = [fp.pmf(params, t, n) for n in range(N_STATES + 1)]
        tail = fp.pmf_tail_mass(params, t, N_STATES)
        survival = fp.waiting_survival(params, t)
        pgf = [fp.sstfpp_pgf(params, u, t) for u in PGF_U]
        return ps, tail, survival, pgf

    def check(self, op, out) -> tuple[str | None, float]:
        ps, tail, survival, pgf = out
        reason, residual = check_distribution(ps, tail)
        if reason:
            return reason, residual
        if not abs(survival - ps[0]) <= TOL:
            return f"waiting_survival {survival:.17g} != p_0 {ps[0]:.17g}", residual
        for u, g in zip(PGF_U, pgf):
            reason = check_pgf(ps, tail, u, g)
            if reason:
                return reason, residual
        return None, residual

    def corrupt(self, out):
        ps, tail, survival, pgf = out
        ps = list(ps)
        ps[3] += 1e-6
        return ps, tail, survival, pgf

    def points(self, op):
        return [op]


class McGof(Workload):
    """empirical_pmf at 2e5 samples, then chi_square_gof, per op.

    16 parameter sets per seed in MC_DECK proportions at x in [0.5, 3],
    where the closed form the chi-square compares against is accurate;
    each op's sampler seed is derived from the workload seed and the op's
    position in the run.
    """

    name = "mc-gof"
    values_per_op = N_STATES + 2

    def prepare(self, seed: int) -> None:
        import fracpois

        self._fp = fracpois
        rng = random.Random(seed)
        d = MC_DECK
        shapes = [(1.0, 1.0)] * d["classical"]  # (alpha, nu)
        shapes += [(a, 1.0) for a in _stratified(rng, 0.7, 0.95, d["tfpp"])]
        shapes += [(1.0, nu) for nu in _stratified(rng, 0.5, 0.95, d["sfpp"])]
        shapes += zip(_stratified(rng, 0.7, 0.95, d["stfpp"]), _stratified(rng, 0.5, 0.95, d["stfpp"]))
        n = len(shapes)
        self._seed = seed
        self.ops = []
        for lam, x, (a, nu) in zip(_stratified(rng, 0.5, 2.0, n), _stratified(rng, 0.5, 3.0, n), shapes):
            point = (lam, a, nu, -a, 0.0)
            self.ops.append((point, _times_for_x(point, [x])[0]))
        rng.shuffle(self.ops)
        self.warmup = next(i for i, (p, _) in enumerate(self.ops) if p[1] < 1.0 and p[2] < 1.0)
        self._count = 0

    def run(self, op):
        point, t = op
        self._count += 1
        fp = self._fp
        params = fp.FractionalParams(*point)
        emp = fp.empirical_pmf(params, t, MC_SAMPLES, N_STATES, self._seed * 1_000_003 + self._count)
        return fp.chi_square_gof(emp)

    def check(self, op, out) -> tuple[str | None, float]:
        _, pvalue, _ = out
        if not pvalue >= MIN_PVALUE:
            return f"chi-square p-value {pvalue:.3g} < {MIN_PVALUE:g}", 0.0
        return None, 0.0

    def corrupt(self, out):
        stat, _, dof = out
        return stat, 0.0, dof

    def samples(self, op) -> int:
        return MC_SAMPLES


# The README's five examples plus the 50 x 26 sstfpp table, with the number
# of probabilities, tail masses and pgf values each prints.
CLI_COMMANDS = (
    ("pmf --variant stfpp --alpha 0.7 --nu 0.6 -t 1 --n-max 10", 12),
    ("survival --variant sfpp --nu 0.5 --lam 1 --t-start 0.5 --t-stop 4 --t-count 8", 8),
    ("pgf -u 0.4 -t 1", 1),
    ("verify --variant sstfpp --alpha 0.8 --nu 0.6 --beta -0.5 --gamma 0.1", 0),
    ("simulate --variant tfpp --alpha 0.6 --samples 100000 --seed 42 --n-max 20", 21),
    ("pmf --variant sstfpp --alpha 0.8 --nu 0.6 --beta -0.5 --gamma 0.1 "
     "--t-start 0.1 --t-stop 5.0 --t-count 50 --n-max 25", 50 * 26 + 50),
)


def cli_in_process(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``fracpois.cli.main`` run in this process."""
    import fracpois.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = fracpois.cli.main(argv)
    return code, buf.getvalue()


class CliCold(Workload):
    """One ``python -m fracpois.cli`` child per op, run to exit.

    The six commands cycle in a seed-shuffled order.  ``traced_prefix`` swaps
    the module for the benchmark's traced entry point.
    """

    name = "cli-cold"

    def prepare(self, seed: int) -> None:
        rng = random.Random(seed)
        self.ops = [(cmd.split(), values) for cmd, values in CLI_COMMANDS]
        rng.shuffle(self.ops)
        self.warmup = next(i for i, (argv, _) in enumerate(self.ops) if argv[0] == "pgf")
        self.traced_prefix: list[str] | None = None
        self._expected: dict[tuple, tuple[int, str]] = {}
        self._env = child_env()

    def run(self, op):
        argv, _ = op
        prefix = self.traced_prefix or [sys.executable, "-m", "fracpois.cli"]
        proc = subprocess.run(
            prefix + argv, env=self._env, cwd=ROOT, capture_output=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def values(self, op) -> int:
        return op[1]

    def check(self, op, out) -> tuple[str | None, float]:
        argv, _ = op
        code, stdout = out
        if code != 0:
            return f"exit code {code}", 0.0
        key = tuple(argv)
        if key not in self._expected:
            self._expected[key] = cli_in_process(argv)
        want_code, want = self._expected[key]
        if want_code != 0 or stdout.decode("utf-8") != want:
            return "stdout differs from cli.main in-process", 0.0
        if argv[0] != "pmf":
            return None, 0.0
        rows: dict[str, list] = {}
        for line in want.splitlines()[1:]:
            t, _, p, tail = line.split(",")
            rows.setdefault(t, [[], float(tail)])[0].append(float(p))
        worst = 0.0
        for t, (ps, tail) in rows.items():
            reason, residual = check_distribution(ps, tail)
            worst = max(worst, residual)
            if reason:
                return f"t = {t}: {reason}", worst
        return None, worst

    def corrupt(self, out):
        code, stdout = out
        return code, stdout[:-2] + bytes([stdout[-2] ^ 1]) + stdout[-1:]


WORKLOADS = {w.name: w for w in (CliCold, GridTable, LatticeSweep, McGof)}
