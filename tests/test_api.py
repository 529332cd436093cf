"""The public names of the package and the names the benchmark tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import fracpois

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_all_names_resolve():
    assert [name for name in fracpois.__all__ if not hasattr(fracpois, name)] == []


def test_traced_names_exist():
    # bench/tracer.py wraps these by (module, name); a deleted or renamed
    # function would otherwise only show up as a failed traced run
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
