"""Steadiness check: do two sets of runs of one commit agree within the bounds?

    python3 bench/steady.py [--runs 10] [--workloads cli-cold,mc-gof]

Runs ``bench/run.py`` once per (set, run, workload) for two sets, one
process at a time, each run with its own seed, and reads the JSON result
line.  For every (end-to-end metric, workload) pair it reports each set's
median and spread, (q3 - q1) / median with the quartiles of
``statistics.quantiles(n=4)``, and a verdict against the bound
BENCHMARK.json fixes for the metric:

  unresolved  a set's spread is wider than the bound
  agree       the two medians differ, in either direction, by at most the
              bound as a share of the first set's median
  disagree    otherwise

It also lists every run that reported correct = false or a failed op (the
decks are chosen so that a correct program fails none).  It exits 0 only
if every pair agrees and no run is listed.  The report is printed and
written to bench/out/steady-<seed range>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"steady: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.runs < 2:
        p.error("--runs must be at least 2")

    results: dict = {w: [[], []] for w in workloads}
    incorrect = []
    failing = []
    for s in range(2):
        for r in range(args.runs):
            seed = args.first_seed + s * args.runs + r
            for w in workloads:
                res = run_once(w, seed, args.seconds)
                results[w][s].append(res)
                if not res["correct"]:
                    incorrect.append((w, seed))
                if res["failed"]:
                    failing.append((w, seed, res["failed"], res["attempted"]))
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                      flush=True)

    report = []
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [spread([res["metrics"][name]["value"] for res in runs])
                    for runs in results[w]]
            row = {"workload": w, "metric": name, "bound": bound,
                   "medians": [med for med, _ in sets], "spreads": [sp for _, sp in sets]}
            row["change"] = (sets[1][0] - sets[0][0]) / sets[0][0]
            if any(sp > bound for _, sp in sets):
                row["verdict"] = "unresolved"
            else:
                row["verdict"] = "agree" if abs(row["change"]) <= bound else "disagree"
            row["under_third_of_bound"] = all(sp < bound / 3 for _, sp in sets)
            report.append(row)
            print(f"{w:14s} {name:13s} bound {bound:<5g} "
                  + " | ".join(f"median {med:.6g} spread {sp:.4f}" for med, sp in sets)
                  + f" | change {row['change']:+.4f}"
                  + f" -> {row['verdict']}" + ("" if row["under_third_of_bound"] else " (spread >= bound/3)"))
    if incorrect:
        print(f"runs that reported correct = false: {incorrect}")
    if failing:
        print(f"runs with failed ops (workload, seed, failed, attempted): {failing}")
    last = args.first_seed + 2 * args.runs - 1
    out = ROOT / "bench" / "out" / f"steady-seeds{args.first_seed}-{last}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"report": report, "incorrect": incorrect, "failing": failing,
                               "results": results}, indent=1))
    ok = not incorrect and not failing and all(r["verdict"] == "agree" for r in report)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
