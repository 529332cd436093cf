"""Command-line front end: pmf | pgf | survival | verify | simulate.

Output is CSV (default) or JSON, printed only after the whole computation
succeeds, so a failure never leaves a partial table behind.  Configuration
precedence: command-line flags > the JSON file named by FRACPOIS_CONFIG >
built-in defaults; the config keys are the flags' destination names, and
each value must have the type and choices its flag accepts.  A subcommand
takes (and reads the config keys of) only the flags it reads, and no series
option: every series stops by one fixed rule (fracpois.specfun.SERIES_TOL).
Exit codes: 0 ok, 1 verification failed, 2 bad parameters, 3 convergence
failure, 4 unsupported variant.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

from .errors import ConvergenceError, ParameterError, UnsupportedVariantError
from .processes import (
    VARIANT_TOL,
    FractionalParams,
    _state_series,
    adm_closed_form_diff,
    composition_tuples_residual,
    kolmogorov_residual,
    pmf_table,
    sstfpp_pgf,
    truncated_normalization_residual,
    waiting_survival,
)
from .simulate import _chi_square, empirical_pmf

DEFAULTS = {
    "variant": "stfpp",
    "lam": 1.0,
    "alpha": 0.7,
    "nu": 0.6,
    "beta": None,
    "gamma_p": 0.0,
    "t": None,
    "t_start": 1.0,
    "t_stop": None,
    "t_count": 1,
    "n_max": 10,
    "u": 0.5,
    "format": "csv",
    "seed": 12345,
    "samples": 100_000,
}

# Per-variant parameter derivation: fixed values the variant pins down.
PINNED = {
    "classical": {"alpha": 1.0, "nu": 1.0, "beta": -1.0, "gamma_p": 0.0},
    "tfpp": {"nu": 1.0, "gamma_p": 0.0},
    "sfpp": {"alpha": 1.0, "beta": -1.0, "gamma_p": 0.0},
    "stfpp": {"gamma_p": 0.0},
    "sstfpp": {},
}
VARIANTS = tuple(PINNED)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class RunConfig:
    params: FractionalParams
    variant: str
    times: list[float]
    n_max: int
    u: float
    format: str
    seed: int
    samples: int


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.Action]]:
    """The argument parser, and its flags by destination: the config keys."""
    parser = argparse.ArgumentParser(
        prog="fracpois",
        description="State probabilities and diagnostics of fractional Poisson processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags: dict[str, argparse.Action] = {}
    for name, help_text in (
        ("pmf", "state-probability table with exact tail mass"),
        ("pgf", "probability generating function values"),
        ("survival", "first-waiting-time survival function"),
        ("verify", "run the built-in identity checks, report JSON"),
        ("simulate", "Monte-Carlo histogram vs the closed form"),
    ):
        p = sub.add_parser(name, help=help_text)

        def add(*names: str, **kwargs) -> None:
            action = p.add_argument(*names, **kwargs)
            flags[action.dest] = action

        add("--variant", choices=VARIANTS)
        add("--lam", type=float, help="intensity lambda > 0")
        add("--alpha", type=float, help="time-fractional order in (0, 1]")
        add("--nu", type=float, help="space-fractional order in (0, 1]")
        add("--beta", type=float, help="Saigo beta < 0 (sstfpp only)")
        add("--gamma", type=float, dest="gamma_p", help="Saigo gamma (sstfpp only)")
        add("-t", type=float, dest="t", help="single time point")
        if name != "simulate":
            add("--t-start", type=float, dest="t_start")
            add("--t-stop", type=float, dest="t_stop")
            add("--t-count", type=int, dest="t_count")
        if name not in ("pgf", "survival"):
            add("--n-max", type=int, dest="n_max")
        if name != "verify":
            add("--format", choices=("csv", "json"))
        if name == "pgf":
            add("-u", type=float, dest="u", help="pgf argument, |u| < 1")
        if name == "simulate":
            add("--seed", type=int, help="random seed, >= 0")
            add("--samples", type=int)
    return parser, flags


def _load_env_config(flags: dict[str, argparse.Action]) -> dict:
    path = os.environ.get("FRACPOIS_CONFIG")
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"FRACPOIS_CONFIG: cannot read {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError("FRACPOIS_CONFIG: top-level JSON value must be an object")
    unknown = set(data) - set(DEFAULTS)
    if unknown:
        raise ParameterError(f"FRACPOIS_CONFIG: unknown keys {sorted(unknown)}")
    # Each value must be what the flag of the same name would parse to.
    for key, value in data.items():
        flag = flags[key]
        kind = flag.type or str
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float) if kind is float else kind)
            or (flag.choices is not None and value not in flag.choices)
        ):
            raise ParameterError(
                f"FRACPOIS_CONFIG: {key} = {value!r} is not a valid "
                f"{flag.option_strings[0]} value"
            )
    return data


def _resolve(args: argparse.Namespace, flags: dict[str, argparse.Action]) -> RunConfig:
    # Explicit values (config file, then flags on top) are distinguished from
    # built-in defaults: a variant may override a default silently, but an
    # explicitly requested value it disagrees with is an error.  A config key
    # the subcommand takes no flag for is not read, so not range-checked.
    taken = vars(args)
    explicit = {k: v for k, v in _load_env_config(flags).items() if k in taken}
    for key, value in taken.items():
        if key != "command" and value is not None:
            explicit[key] = value
    merged = {**DEFAULTS, **explicit}

    variant = merged["variant"]
    pinned = dict(PINNED[variant])
    fields = {"lam": merged["lam"]}
    for name in ("alpha", "nu", "beta", "gamma_p"):
        if name in pinned:
            given = explicit.get(name)
            if given is not None and abs(given - pinned[name]) > VARIANT_TOL:
                raise ParameterError(
                    f"--{name.replace('_p', '')} = {given} conflicts with "
                    f"variant {variant} (requires {pinned[name]})"
                )
            fields[name] = pinned[name]
        elif merged[name] is not None:
            fields[name] = merged[name]
    params = FractionalParams(**fields)
    if variant != "sstfpp" and params.variant != variant:
        raise ParameterError(
            f"parameters classify as {params.variant!r}, not the requested {variant!r}"
        )

    if merged["t"] is not None:
        times = [float(merged["t"])]
    else:
        start = float(merged["t_start"])
        stop = float(merged["t_stop"]) if merged["t_stop"] is not None else start
        count = int(merged["t_count"])
        if count < 1:
            raise ParameterError(f"--t-count must be >= 1, got {count}")
        if count == 1:
            times = [start]
        else:
            step = (stop - start) / (count - 1)
            times = [start + i * step for i in range(count)]
    if any(t < 0.0 or not math.isfinite(t) for t in times):
        raise ParameterError("time points must be finite and >= 0")

    n_max = int(merged["n_max"])
    if n_max < 0:
        raise ParameterError(f"--n-max must be >= 0, got {n_max}")
    seed = int(merged["seed"])
    if seed < 0:
        raise ParameterError(f"--seed must be >= 0, got {seed}")
    return RunConfig(
        params=params,
        variant=variant,
        times=times,
        n_max=n_max,
        u=float(merged["u"]),
        format=str(merged["format"]),
        seed=seed,
        samples=int(merged["samples"]),
    )


def _params_dict(cfg: RunConfig) -> dict:
    return {"variant": cfg.variant, **asdict(cfg.params)}


def _table(
    cfg: RunConfig,
    header: tuple[str, ...],
    rows: list[tuple],
    before: dict | None = None,
    after: dict | None = None,
    footer: tuple[str, ...] = (),
) -> tuple[str, int]:
    """rows under header as CSV (ints as they are, floats by _fmt, then the
    footer lines) or as JSON (the params, before, the rows as objects keyed
    by header, after)."""
    if cfg.format == "json":
        body = json.dumps(
            {
                "params": _params_dict(cfg),
                **(before or {}),
                "rows": [dict(zip(header, row)) for row in rows],
                **(after or {}),
            }
        )
        return body + "\n", 0
    lines = [",".join(header)]
    lines += [",".join(str(v) if isinstance(v, int) else _fmt(v) for v in row) for row in rows]
    lines += footer
    return "\n".join(lines) + "\n", 0


def _cmd_pmf(cfg: RunConfig) -> tuple[str, int]:
    table = pmf_table(cfg.params, cfg.times, cfg.n_max)
    rows = [
        (t, n, p, tail)
        for t, row, tail in zip(table.times, table.probs, table.tail_mass)
        for n, p in enumerate(row)
    ]
    return _table(cfg, ("t", "n", "p", "tail_mass"), rows)


def _cmd_pgf(cfg: RunConfig) -> tuple[str, int]:
    rows = [(t, cfg.u, sstfpp_pgf(cfg.params, cfg.u, t)) for t in cfg.times]
    return _table(cfg, ("t", "u", "g"), rows)


def _cmd_survival(cfg: RunConfig) -> tuple[str, int]:
    rows = [(t, waiting_survival(cfg.params, t)) for t in cfg.times]
    return _table(cfg, ("t", "survival"), rows)


def _cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    params, n_max = cfg.params, cfg.n_max
    norm: list[float] = []
    kolm: list[float] = []
    for t in cfg.times:
        # Iterate k of state n is term k of its series, so t is checked to
        # the largest k at which the series of states 0..n_max stopped there.
        k = max(_state_series(params, t, n, "verify")[1] for n in range(n_max + 1))
        norm.append(truncated_normalization_residual(params, t, n_max, k))
        # At t = 0 every p_n(0) = [n = 0] holds exactly, and the equation's
        # t^beta has no value: only positive times are checked.
        if t > 0.0:
            kolm += (kolmogorov_residual(params, t, n, k) for n in range(min(n_max, 5) + 1))
    residuals = (
        ("normalization", max(norm), 1e-6),
        ("adm_closed_form", adm_closed_form_diff(params, min(n_max, 5), 10), 1e-10),
        ("kolmogorov", max(kolm, default=0.0), 1e-8),
        ("composition", composition_tuples_residual(params), 1e-10),
    )
    checks = [{"name": name, "residual": r, "threshold": tol, "pass": r <= tol}
              for name, r, tol in residuals]
    body = json.dumps({"checks": checks, "params": _params_dict(cfg)}, indent=2)
    return body + "\n", 0 if all(c["pass"] for c in checks) else 1


def _cmd_simulate(cfg: RunConfig) -> tuple[str, int]:
    t = cfg.times[0]
    emp = empirical_pmf(cfg.params, t, cfg.samples, cfg.n_max, cfg.seed)
    table = pmf_table(cfg.params, [t], cfg.n_max)
    # Too few samples (or too little spread) to pool two bins is a property
    # of the draws, not a bad parameter: the histogram still prints.
    stat, pvalue, dof = _chi_square(emp, table) or (None, None, None)
    rows = []
    for n, closed in enumerate(table.probs[0]):
        freq = emp.frequency(n)
        rows.append((n, freq, closed, abs(freq - closed)))
    if dof is None:
        footer = ("# chi_square=not computable (fewer than two usable bins)",)
    else:
        footer = (f"# chi_square={_fmt(stat)}", f"# p_value={_fmt(pvalue)}", f"# dof={dof}")
    return _table(
        cfg,
        ("n", "empirical", "closed_form", "abs_diff"),
        rows,
        before={"t": t, "samples": cfg.samples, "seed": cfg.seed},
        after={"chi_square": stat, "p_value": pvalue, "dof": dof},
        footer=footer,
    )


_COMMANDS = {
    "pmf": _cmd_pmf,
    "pgf": _cmd_pgf,
    "survival": _cmd_survival,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser, flags = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args, flags)
        body, code = _COMMANDS[args.command](cfg)
    except ParameterError as exc:
        print(f"fracpois: parameter error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"fracpois: convergence failure: {exc}", file=sys.stderr)
        return 3
    except UnsupportedVariantError as exc:
        print(f"fracpois: unsupported variant: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(body)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
