"""fracpois benchmark: one workload, one seed, one run.

Run from the root of a checkout (sources under src/, nothing installed):

    python3 bench/run.py --workload grid-table --seed 1 --seconds 15 --trace 0

Workloads (workloads.py says why each one exists):

  cli-cold       one ``python -m fracpois.cli`` child per op (import + cli)
  grid-table     one 50 x 26 pmf_table per op (repeated per-value series work)
  lattice-sweep  one fresh parameter point per op (per-point set-up)
  mc-gof         empirical_pmf at 2e5 samples + chi_square_gof per op (simulate)

``--trace 0`` measures the end-to-end metrics:

  setup_s       median over SETUP_REPEATS fresh processes, each timed from
                spawn to the end of its warm-up op (import, inputs, one op)
                and started at evenly spaced pauses of the timed loop
  op_s.p50      median wall time per op
  values_per_s  probabilities, tail masses and pgf values produced by one
                pass over the workload's ops (an op that raised produces
                none), per second of the pass; each op is timed by its
                median, so the rate does not depend on where the run's end
                cut the last pass
  peak_rss_mb   peak RSS of this process (cli-cold: of its largest child)

and reports, without a gate: op_s.p90 (with at least 100 ops),
samples_per_s (mc-gof) and ops_failed_ratio.

``--trace 1`` runs the workload untraced for half the time (and at least
one pass over its ops), then exactly one pass over its ops with every
fracpois layer wrapped (tracer.py), then a fixed layer probe: the ROADMAP's
50 x 26 sstfpp table (whose ln C_k and log_abs_gamma call counts are also
reported on their own) and an in-process ``pgf``, ``verify`` and small
``simulate``, so that every layer is timed in every traced run.  The traced
work is fixed by the seed, not by the clock, so a faster layer shows as a
smaller time and a call count as work done.  It prints the per-layer
metrics; no end-to-end number comes from a traced run.

After measuring, every run checks the ROADMAP's 100 accuracy-sweep points
(workloads.LATTICE) once, outside every timed interval, and prints how many
fail; the traced run reports the count as accuracy.roadmap_failed.  They
are not ops of the run: the timed decks hold only points where double
precision can deliver the answer, so a correct program fails no op.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric with
its unit and sample count, and a full record (environment, op counts,
failures) is written to bench/out/.  ``failed`` counts every timed op that
failed a check (workloads.py lists them).  ``correct`` is false when a
failure, of a timed op or of a ROADMAP point, is not the known cancellation
defect -- that is, unless the op failed a check of its values or raised
ConvergenceError at a point where oracle.rounding_bound exceeds the check
tolerance -- or when the canary (a copy of a passing op's output with one
value corrupted) is not flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from workloads import (
    LATTICE, N_STATES, OUT, ROOT, SRC, THREAD_VARS, TOL, WORKLOADS, CliCold, LatticeSweep,
    child_env,
)

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
AIM1 = (1.0, 0.8, 0.6, -0.5, 0.1)
AIM1_TIMES = tuple(0.1 * i for i in range(1, 51))
PROBE_COMMANDS = (
    "pgf -u 0.4 -t 1",
    "verify --variant sstfpp --alpha 0.8 --nu 0.6 --beta -0.5 --gamma 0.1",
    "simulate --variant tfpp --alpha 0.6 --samples 20000 --seed 42 --n-max 20",
)
# mpmath-checked values: (kind, (lam, alpha, nu, beta, gamma, t), n).  The
# last two are ROADMAP item 1's reproductions of silent wrong answers.
REF_SET = (
    *(("pmf", (1.0, 0.7, 0.6, -0.7, 0.0, 1.0), n) for n in (0, 2, 5, 10)),
    *(("pmf", (*AIM1, t), n) for t in (1.0, 5.0) for n in (0, 3, 10, 25)),
    *(("tail", (*AIM1, t), N_STATES) for t in (1.0, 5.0)),
    ("pmf", (1.0, 0.5, 0.9, -0.5, 0.0, 15.0), 10),
    ("pmf", (1.0, 0.5, 1.0, -0.5, 0.0, 15.0), 11),
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_sources() -> None:
    """Import fracpois from this checkout's src/ or nowhere."""
    if not (SRC / "fracpois" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fracpois sources under {SRC}")
    sys.path.insert(0, str(SRC))


def check_origin() -> None:
    module = sys.modules.get("fracpois")
    if module and Path(module.__file__).resolve().parent != (SRC / "fracpois").resolve():
        raise SystemExit(f"bench: fracpois imported from {module.__file__}, not {SRC}")


class Checker:
    """Checks each op as it completes and keeps the verdicts, not the outputs.

    A failure is explained -- the known cancellation defect, not a new
    fault -- when the op failed a check of its values or raised
    ConvergenceError at a point where oracle.rounding_bound exceeds TOL.
    The canary re-checks a copy of the first passing op's output with one
    value corrupted; its reason is "" if the check missed the corruption.
    """

    def __init__(self, wl) -> None:
        self.wl = wl
        self.bounds: dict[tuple, float] = {}
        self.failures: list[tuple[int, str]] = []
        self.unexplained: list[tuple] = []
        self.max_norm_residual = 0.0
        self.canary: str | None = None

    def _ill_conditioned(self, wl, op) -> bool:
        from oracle import rounding_bound

        for point in wl.points(op):
            if point not in self.bounds:
                self.bounds[point] = rounding_bound(point, N_STATES)
            if self.bounds[point] > TOL:
                return True
        return False

    def verdict(self, wl, op, out, err) -> tuple[str | None, bool]:
        """(reason the op failed or None, whether the failure is the known defect)."""
        if err is not None:
            known = type(err).__name__ == "ConvergenceError" and self._ill_conditioned(wl, op)
            return f"raised {type(err).__name__}: {err}", known
        reason, residual = wl.check(op, out)
        if reason is None:
            self.max_norm_residual = max(self.max_norm_residual, residual)
            if self.canary is None:
                self.canary = wl.check(op, wl.corrupt(out))[0] or ""
            return None, True
        return reason, self._ill_conditioned(wl, op)

    def __call__(self, k: int, out, err) -> bool:
        reason, known = self.verdict(self.wl, self.wl.ops[k], out, err)
        if reason is None:
            return True
        self.failures.append((k, reason))
        if not known:
            self.unexplained.append((k, reason))
        return False

    def audit(self, wl, ops) -> list[tuple[int, str]]:
        """Run and check each of `ops` once, untimed; return the (index, reason) failures."""
        failures = []
        for i, op in enumerate(ops):
            try:
                out, err = wl.run(op), None
            except Exception as exc:
                out, err = None, exc
            reason, known = self.verdict(wl, op, out, err)
            if reason is not None:
                failures.append((i, reason))
                if not known:
                    self.unexplained.append((f"{wl.name} audit point {i}", reason))
        return failures

    def correct(self) -> bool:
        return not self.unexplained and bool(self.canary)

    def lines(self, attempted: int) -> list[str]:
        failed_ops = sorted({k for k, _ in self.failures})
        first: dict[int, str] = {}
        for k, reason in self.failures:
            first.setdefault(k, reason)
        return [
            f"ops_failed_ratio = {len(self.failures) / attempted:.6g} ({len(self.failures)} of "
            f"{attempted} ops; {len(failed_ops)} of {len(self.wl.ops)} distinct ops)",
            f"failures not explained by the known cancellation defect: {len(self.unexplained)}",
            "canary (one value of a passing op corrupted, re-checked): "
            + (f"flagged: {self.canary}" if self.canary else "NOT flagged"),
            *(f"  failed op {k}: {first[k]}" for k in failed_ops[:5]),
        ]


def timed_loop(wl, seconds: float, checker: Checker, pauses=(), min_ops: int = 0) -> list[tuple]:
    """Run ops back to back for `seconds` of loop time and at least `min_ops` ops.

    Returns one (op index, seconds, returned, passed) per op: whether it
    returned without raising and whether it passed every check.
    Each op is checked right after it is timed, and each of `pauses` is
    called once at evenly spaced points of the run, so that what it
    measures is spread over the same window as the ops.  Neither counts as
    loop time.
    """
    recs = []
    todo = list(pauses)
    start = perf_counter()
    untimed = 0.0
    i = 0
    while True:
        k = i % len(wl.ops)
        t0 = perf_counter()
        try:
            out, err = wl.run(wl.ops[k]), None
        except Exception as exc:  # a refusal or crash is a failed op, not a benchmark error
            out, err = None, exc
        t1 = perf_counter()
        recs.append((k, t1 - t0, err is None, checker(k, out, err)))
        del out
        i += 1
        elapsed = t1 - start - untimed
        if todo and elapsed >= (len(pauses) - len(todo) + 0.5) * seconds / len(pauses):
            todo.pop(0)()
        untimed += perf_counter() - t1
        if elapsed >= seconds and i >= min_ops and not todo:
            return recs


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh benchmark process to the end of its warm-up op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != b"ready" or code != 0:
        raise SystemExit(f"bench: set-up probe failed with exit code {code}")
    return t1 - t0


def measure_imports() -> dict[str, tuple[float, str]]:
    code = ("import sys, time; t = time.perf_counter(); import fracpois; "
            "print(time.perf_counter() - t, len(sys.modules))")
    env = child_env()
    imp, mods, interp = [], [], []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=120).stdout.split()
        imp.append(float(out[0]))
        mods.append(int(out[1]))
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=60)
        interp.append(perf_counter() - t0)
    return {
        "import.fracpois_s": (statistics.median(imp), "s"),
        "import.interp_s": (statistics.median(interp), "s"),
        "import.modules": (statistics.median(mods), "count"),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "node": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "commit": git_commit(),
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def metric(metrics: dict, name: str, value, unit: str) -> None:
    metrics[name] = {"value": value, "unit": unit}


def per_pass_rate(wl, recs: list[tuple], amount) -> float:
    """amount(op) over one pass through the deck, per second of the pass.

    Each op is timed by its median over the run, so the rate does not depend
    on how many times each op happened to run.  An op that raised in any of
    its runs contributes its time but no amount.
    """
    times: dict[int, list[float]] = {}
    returned: dict[int, bool] = {}
    for k, dt, ok, _ in recs:
        times.setdefault(k, []).append(dt)
        returned[k] = returned.get(k, True) and ok
    busy = sum(statistics.median(v) for v in times.values())
    return sum(amount(wl.ops[k]) for k in times if returned[k]) / busy


def plain_run(wl, args, checker: Checker) -> tuple[list[tuple], dict, list[str], dict]:
    setups: list[float] = []
    probe = lambda: setups.append(setup_probe(args.workload, args.seed))  # noqa: E731
    recs = timed_loop(wl, args.seconds, checker, [probe] * SETUP_REPEATS)
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliCold) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    n = len(recs)
    dts = [dt for _, dt, _, _ in recs]
    distinct = len({k for k, _, _, _ in recs})
    metrics: dict = {}
    metric(metrics, "setup_s", statistics.median(setups), "s")
    metric(metrics, "op_s.p50", statistics.median(dts), "s")
    metric(metrics, "values_per_s", per_pass_rate(wl, recs, wl.values), "1/s")
    metric(metrics, "peak_rss_mb", peak_rss_mb, "MB")
    lines = [
        f"setup_s = {metrics['setup_s']['value']:.6g} s (median of {len(setups)} fresh processes)",
        f"op_s.p50 = {metrics['op_s.p50']['value']:.6g} s (n={n} ops)",
        f"op_s.p90 = {statistics.quantiles(dts, n=10)[-1]:.6g} s (n={n} ops)" if n >= 100
        else f"op_s.p90 = not reported (n={n} ops < 100)",
        f"values_per_s = {metrics['values_per_s']['value']:.6g} 1/s "
        f"(n={n} ops, one pass over {distinct} distinct ops)",
        f"peak_rss_mb = {peak_rss_mb:.6g} MB "
        + ("(largest child)" if isinstance(wl, CliCold) else "(benchmark process)"),
    ]
    if any(wl.samples(op) for op in wl.ops):
        rate = per_pass_rate(wl, recs, wl.samples)
        lines.append(f"samples_per_s = {rate:.6g} 1/s (n={n} ops, one pass over {distinct} distinct ops)")
    return recs, metrics, lines, {"setup_s_samples": setups, "op_s_samples": dts}


def layer_probe(tracer) -> dict[str, tuple[float, str]]:
    """Run the fixed per-layer probe under `tracer`; count the aim-1 table alone."""
    import fracpois
    from tracer import Tracer, install
    from workloads import cli_in_process

    table = Tracer()
    undo = install(table)
    try:
        fracpois.pmf_table(fracpois.FractionalParams(*AIM1), AIM1_TIMES, N_STATES)
    finally:
        undo()
    ck_share = table.total["saigo.ck_log_coefficients"] / table.total["processes.pmf_table"]
    tracer.merge(table.dump(), "aim1")
    undo = install(tracer)
    try:
        for cmd in PROBE_COMMANDS:
            cli_in_process(cmd.split())
    finally:
        undo()
    return {
        "aim1_table.ck_calls": (table.calls["saigo.ck_log_coefficients"], "count"),
        "aim1_table.log_abs_gamma_calls": (table.counts["specfun.log_abs_gamma"], "count"),
        "aim1_table.ck_share": (ck_share, "1"),
    }


def max_abs_err() -> float | None:
    """Largest |program - mpmath| over REF_SET (refusals skipped); None without mpmath."""
    import oracle
    from fracpois import ConvergenceError, FractionalParams, pmf, pmf_tail_mass

    if not oracle.HAVE_MPMATH:
        return None
    cache = oracle.RefCache(OUT / "mpmath_refs.json")
    worst = 0.0
    for kind, point, n in REF_SET:
        params, t = FractionalParams(*point[:5]), point[5]
        try:
            got = pmf(params, t, n) if kind == "pmf" else pmf_tail_mass(params, t, n)
        except ConvergenceError:
            continue
        worst = max(worst, abs(got - cache.get(kind, point, n)))
    cache.save()
    return worst


def traced_run(wl, args, checker: Checker) -> tuple[list[tuple], dict, list[str], dict]:
    from tracer import Tracer, install, layer_metrics

    layers = measure_imports()
    # At least one pass, so the untraced median covers the ops the traced pass runs.
    plain = timed_loop(wl, args.seconds / 2, checker, min_ops=len(wl.ops))
    tracer = Tracer()
    if isinstance(wl, CliCold):
        stats_dir = OUT / f"trace-{args.workload}-seed{args.seed}"
        shutil.rmtree(stats_dir, ignore_errors=True)
        stats_dir.mkdir(parents=True)
        wl.traced_prefix = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                            str(stats_dir)]
        traced = timed_loop(wl, 0.0, checker, min_ops=len(wl.ops))
        wl.traced_prefix = None
        for path in sorted(stats_dir.glob("*.json")):
            tracer.merge(json.loads(path.read_text()), path.stem)
        shutil.rmtree(stats_dir)
    else:
        undo = install(tracer)
        try:
            traced = timed_loop(wl, 0.0, checker, min_ops=len(wl.ops))
        finally:
            undo()
    loop_calls = dict(tracer.calls)
    # Share of the pass's op time spent rebuilding ln C_k, before the probe adds the aim-1 table.
    ck_share = tracer.total["saigo.ck_log_coefficients"] / sum(dt for _, dt, _, _ in traced)
    layers.update(layer_probe(tracer))
    layers.update(layer_metrics(tracer))
    layers["saigo.ck_share"] = (ck_share, "1")
    layers["processes.max_norm_residual"] = (checker.max_norm_residual, "1")
    layers["processes.max_abs_err"] = (max_abs_err(), "1")
    layers["trace.overhead_s"] = (statistics.median(dt for _, dt, _, _ in traced)
                                  - statistics.median(dt for _, dt, _, _ in plain), "s")

    metrics: dict = {}
    for name, (value, unit) in layers.items():
        metric(metrics, name, value, unit)
        if value is None:
            metrics[name]["note"] = "not measured: mpmath is not installed"
    lines = [f"{name} = " + ("not measured (mpmath missing)" if v is None else f"{v:.6g}")
             + f" {unit}" for name, (v, unit) in layers.items()]
    lines.append(f"traced ops: {len(traced)}, untraced ops: {len(plain)}; "
                 f"spans kept {len(tracer.spans)}, dropped {tracer.dropped}")
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"fields": ["id", "name", "start", "end", "parent"],
                                      "spans": tracer.spans, "dropped": tracer.dropped}))
    return plain + traced, metrics, lines, {"calls_in_traced_loop": loop_calls,
                                           "spans_file": spans_path.name}


def roadmap_audit(checker: Checker) -> list[tuple[int, str]]:
    """Check the ROADMAP's 100 accuracy-sweep points once, untimed; return the failures."""
    sweep = LatticeSweep()
    sweep.prepare(0)
    return checker.audit(sweep, LATTICE)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("FRACPOIS_CONFIG", None)
    require_sources()
    wl = WORKLOADS[args.workload]()
    wl.prepare(args.seed)
    check_origin()
    wl.run(wl.ops[wl.warmup])
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    OUT.mkdir(parents=True, exist_ok=True)
    env = environment(args.seed)
    checker = Checker(wl)
    measure = traced_run if args.trace else plain_run
    recs, metrics, lines, detail = measure(wl, args, checker)
    audit = roadmap_audit(checker)
    if args.trace:
        metric(metrics, "accuracy.roadmap_failed", len(audit), "count")
    result = {
        "correct": checker.correct(),
        "attempted": len(recs),
        "failed": len(checker.failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, **result,
        "op_counts": {"attempted": len(recs), "failed": len(checker.failures),
                      "distinct_ops": len(wl.ops)},
        "failures": checker.failures[:200], "unexplained": checker.unexplained[:200],
        "canary": checker.canary, "roadmap_failures": audit, **detail,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(f"# fracpois benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + json.dumps(env))
    for line in lines + checker.lines(len(recs)):
        print(line)
    print(f"ROADMAP lattice points failed: {len(audit)} of {len(LATTICE)} "
          "(accuracy.roadmap_failed; checked once, untimed, not ops of this run)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
