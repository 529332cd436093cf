"""In-memory span recorder and the wrappers that time calls into fracpois.

The benchmark never edits the package: ``install`` swaps each traced
function for a timing wrapper in every ``fracpois`` module namespace that
holds it, so calls made through ``from .x import f`` bindings are seen too.
Each call becomes a span (id, name, start, end, parent id).  Calls, total
time and self time (duration minus the time covered by child spans) are
accumulated as the spans close; the spans themselves are kept in memory up
to ``MAX_SPANS`` and written out by the caller at exit.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

MAX_SPANS = 100_000


def _count_ck_entries(tracer: "Tracer", result: list) -> None:
    tracer.counts["saigo.ck_entries"] += len(result)


# (module, function, hook run on the result).  Besides the functions the
# per-layer metrics name, every processes/saigo entry point the CLI calls is
# wrapped, so that the CLI's self time is resolution plus formatting only.
SPAN_TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("fracpois.cli", "main", None),
    ("fracpois.processes", "pmf", None),
    ("fracpois.processes", "pmf_tail_mass", None),
    ("fracpois.processes", "pmf_table", None),
    ("fracpois.processes", "sstfpp_pgf", None),
    ("fracpois.processes", "waiting_survival", None),
    ("fracpois.processes", "truncated_normalization_residual", None),
    ("fracpois.processes", "adm_closed_form_diff", None),
    ("fracpois.processes", "kolmogorov_residual", None),
    ("fracpois.processes", "composition_tuples_residual", None),
    ("fracpois.saigo", "ck_log_coefficients", _count_ck_entries),
    ("fracpois.saigo", "semigroup_counterexample", None),
    ("fracpois.adm", "adm_solve_linear", None),
    ("fracpois.simulate", "sample_process", None),
    ("fracpois.simulate", "empirical_pmf", None),
    ("fracpois.simulate", "chi_square_gof", None),
)
METHOD_TARGETS = (("fracpois.adm", "PowerSeries", "evaluate"),)
# Count-only (no span: tens of thousands of calls per table), and only at
# the bindings through which processes and saigo call into specfun.
COUNT_TARGETS = (
    ("fracpois.specfun", "log_abs_gamma", ("fracpois.processes", "fracpois.saigo")),
)


class Tracer:
    """Spans and per-name call statistics of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0

    def span(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                self.calls[name] += 1
                self.total[name] += d
                self.self_time[name] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, name, t0, t1, parent))
                else:
                    self.dropped += 1
            if hook is not None:
                hook(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_time": dict(self.self_time),
            "counts": dict(self.counts),
            "spans": self.spans,
            "dropped": self.dropped,
        }

    def merge(self, other: dict, tag: str) -> None:
        """Add a child process's ``dump()``; its span ids are prefixed by tag."""
        self.calls.update(other["calls"])
        self.counts.update(other["counts"])
        for name, v in other["total"].items():
            self.total[name] += v
        for name, v in other["self_time"].items():
            self.self_time[name] += v
        for sid, name, t0, t1, parent in other["spans"]:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((f"{tag}:{sid}", name, t0, t1, f"{tag}:{parent}"))
            else:
                self.dropped += 1
        self.dropped += other["dropped"]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced fracpois function; returns the function that undoes it."""
    import fracpois.cli  # noqa: F401  (loads every fracpois module)

    modules = [m for n, m in sys.modules.items() if n == "fracpois" or n.startswith("fracpois.")]
    patches: list[tuple[object, str, object]] = []

    def rebind(original: object, wrapper: object, where) -> None:
        for m in where:
            for attr, value in list(vars(m).items()):
                if value is original:
                    patches.append((m, attr, value))
                    setattr(m, attr, wrapper)

    for modname, attr, hook in SPAN_TARGETS:
        original = getattr(sys.modules[modname], attr)
        name = f"{modname.rsplit('.', 1)[1]}.{attr}"
        rebind(original, tracer.span(name, original, hook), modules)
    for modname, cls_name, attr in METHOD_TARGETS:
        cls = getattr(sys.modules[modname], cls_name)
        original = getattr(cls, attr)
        name = f"{modname.rsplit('.', 1)[1]}.{cls_name}.{attr}"
        patches.append((cls, attr, original))
        setattr(cls, attr, tracer.span(name, original))
    for modname, attr, callers in COUNT_TARGETS:
        original = getattr(sys.modules[modname], attr)
        name = f"{modname.rsplit('.', 1)[1]}.{attr}"
        rebind(original, tracer.counter(name, original), [sys.modules[c] for c in callers])

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics that come straight from the span statistics."""
    out: dict[str, tuple[float, str]] = {
        "cli.main_calls": (t.calls["cli.main"], "count"),
        "cli.self_s": (t.self_time["cli.main"], "s"),
    }
    for short, fn in (("pmf", "pmf"), ("tail", "pmf_tail_mass"),
                      ("table", "pmf_table"), ("pgf", "sstfpp_pgf")):
        out[f"processes.{short}_calls"] = (t.calls[f"processes.{fn}"], "count")
        out[f"processes.{short}_s"] = (t.total[f"processes.{fn}"], "s")
    out.update({
        "saigo.ck_calls": (t.calls["saigo.ck_log_coefficients"], "count"),
        "saigo.ck_entries": (t.counts["saigo.ck_entries"], "count"),
        "saigo.ck_s": (t.total["saigo.ck_log_coefficients"], "s"),
        "specfun.log_abs_gamma_calls": (t.counts["specfun.log_abs_gamma"], "count"),
        "adm.solve_calls": (t.calls["adm.adm_solve_linear"], "count"),
        "adm.solve_s": (t.total["adm.adm_solve_linear"], "s"),
        "adm.evaluate_calls": (t.calls["adm.PowerSeries.evaluate"], "count"),
        "adm.evaluate_s": (t.total["adm.PowerSeries.evaluate"], "s"),
        "simulate.sample_calls": (t.calls["simulate.sample_process"], "count"),
        "simulate.sample_s": (t.total["simulate.sample_process"], "s"),
        "simulate.empirical_self_s": (t.self_time["simulate.empirical_pmf"], "s"),
        "simulate.chi2_self_s": (t.self_time["simulate.chi_square_gof"], "s"),
    })
    return out
