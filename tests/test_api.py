"""The public names of the package and the names the benchmark tracer wraps."""

import importlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import fracpois
import fracpois.cli

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"

# Run in a fresh interpreter: this one has numpy and scipy loaded already.
HYGIENE_PROBE = """
import json, sys
import fracpois.cli
tracer_modules = sorted(m for m in json.loads(sys.argv[1]) if m in sys.modules)
import fracpois
loaded = {}
loaded["import"] = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
codes = [fracpois.cli.main(argv) for argv in json.loads(sys.argv[2])]
loaded["run"] = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
print(json.dumps({"tracer_modules": tracer_modules, "codes": codes, "loaded": loaded}))
"""


# The README's simulate command and one chi_square_gof call, in a fresh
# interpreter: the samplers load numpy, and nothing loads scipy.
SIMULATE_PROBE = """
import json, sys
import fracpois, fracpois.cli
code = fracpois.cli.main(json.loads(sys.argv[1]))
emp = fracpois.empirical_pmf(fracpois.FractionalParams(1.0, alpha=0.6), 1.0, 2000, 10, 1)
fracpois.chi_square_gof(emp)
print(json.dumps({"code": code, "loaded": sorted(m for m in ("numpy", "scipy") if m in sys.modules)}))
"""


def probe_env() -> dict[str, str]:
    """The environment of a probe child: this checkout's sources, no config file."""
    env = dict(os.environ)
    env.pop("FRACPOIS_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_all_names_resolve():
    assert [name for name in fracpois.__all__ if not hasattr(fracpois, name)] == []


def test_public_names_are_pinned():
    # a public name is added or removed on purpose: edit this list with it
    assert sorted(fracpois.__all__) == [
        "ConvergenceError", "EmpiricalPmf", "FracpoisError", "FractionalParams",
        "ParameterError", "PmfTable", "PowerSeries", "PowerTerm", "SaigoParams",
        "UnsupportedVariantError", "adm_closed_form_diff", "adm_solve_linear",
        "chi_square_gof", "composition_check", "empirical_pmf", "falling_factorial",
        "kolmogorov_residual", "log_gamma", "pmf", "pmf_table", "pmf_tail_mass",
        "poisson_pmf", "saigo_caputo_derivative_power", "saigo_integral_power",
        "sample_inverse_stable", "sample_process", "sample_stable",
        "semigroup_counterexample", "sstfpp_pgf", "waiting_survival",
    ]


def test_traced_names_exist():
    # bench/tracer.py wraps these by (module, name); a deleted or renamed
    # function would otherwise only show up as a failed traced run
    tracer = load_tracer()
    targets = [(module, name) for module, name, _ in tracer.SPAN_TARGETS]
    targets += [(module, name) for module, name, _ in tracer.COUNT_TARGETS]
    targets += [(module, f"{cls}.{method}") for module, cls, method in tracer.METHOD_TARGETS]
    missing = []
    for module, dotted in targets:
        obj = importlib.import_module(module)
        for attr in dotted.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(f"{module}.{dotted}")
    assert missing == []


# Public names that no runtime code calls: the tracer wraps them, but no
# probe of the program's entry points reaches them.
UNCALLED_TRACED = ["saigo.semigroup_counterexample", "adm.PowerSeries.evaluate"]


def test_every_traced_name_sees_a_call(monkeypatch):
    # a traced name that the program never calls reads 0 on every workload;
    # one probe over the entry points reaches every other traced name
    monkeypatch.delenv("FRACPOIS_CONFIG", raising=False)
    tracer = load_tracer()
    trace = tracer.Tracer()
    undo = tracer.install(trace)
    try:
        params = fracpois.FractionalParams(1.0, alpha=0.8, nu=0.6, beta=-0.5, gamma_p=0.1)
        fracpois.pmf_table(params, [0.5, 1.0], 5)
        fracpois.pmf(params, 1.0, 2)
        fracpois.pmf_tail_mass(params, 1.0, 5)
        fracpois.waiting_survival(params, 1.0)
        fracpois.sstfpp_pgf(params, 0.4, 1.0)
        assert fracpois.cli.main(["verify"]) == 0
        emp = fracpois.empirical_pmf(fracpois.FractionalParams(1.0, alpha=0.7), 1.0, 2000, 5, 1)
        fracpois.chi_square_gof(emp)
    finally:
        undo()
    names = [f"{module.rsplit('.', 1)[1]}.{name}" for module, name, _ in tracer.SPAN_TARGETS]
    names += [f"{module.rsplit('.', 1)[1]}.{cls}.{method}"
              for module, cls, method in tracer.METHOD_TARGETS]
    counted = [f"{module.rsplit('.', 1)[1]}.{name}" for module, name, _ in tracer.COUNT_TARGETS]
    uncalled = [name for name in names if trace.calls[name] == 0]
    uncalled += [name for name in counted if trace.counts[name] == 0]
    assert [name for name in uncalled if name not in UNCALLED_TRACED] == []


def test_series_commands_load_no_numpy_or_scipy():
    # numpy belongs to the samplers only, and scipy to the tests' oracles;
    # the tracer still finds every module it wraps after `import fracpois.cli`
    # alone
    tracer = load_tracer()
    modules = {module for module, _, _ in tracer.SPAN_TARGETS}
    modules |= {module for module, _, _ in tracer.METHOD_TARGETS}
    for module, _, callers in tracer.COUNT_TARGETS:
        modules |= {module, *callers}
    readme = (ROOT / "README.md").read_text().splitlines()
    examples = [
        shlex.split(line)[1:] for line in readme
        if line.startswith(("fracpois pmf ", "fracpois pgf ", "fracpois survival ",
                            "fracpois verify "))
    ]
    assert sorted({argv[0] for argv in examples}) == ["pgf", "pmf", "survival", "verify"]

    proc = subprocess.run(
        [sys.executable, "-c", HYGIENE_PROBE, json.dumps(sorted(modules)), json.dumps(examples)],
        env=probe_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["tracer_modules"] == sorted(modules)
    assert report["codes"] == [0] * len(examples)
    assert report["loaded"] == {"import": [], "run": []}


def test_simulate_loads_numpy_and_no_scipy():
    # the chi-square p-value is summed in closed form: scipy is a test
    # dependency only
    readme = (ROOT / "README.md").read_text().splitlines()
    [argv] = [shlex.split(line)[1:] for line in readme if line.startswith("fracpois simulate ")]
    proc = subprocess.run(
        [sys.executable, "-c", SIMULATE_PROBE, json.dumps(argv)],
        env=probe_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "# p_value=" in proc.stdout
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"code": 0, "loaded": ["numpy"]}
