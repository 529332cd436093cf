import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fracpois.cli
import fracpois.simulate
from fracpois import processes
from fracpois.cli import main
from fracpois.processes import (
    FractionalParams,
    pmf,
    pmf_table,
    pmf_tail_mass,
    sstfpp_pgf,
)

CLASSICAL_PMF_GOLDEN = """\
t,n,p,tail_mass
1,0,0.36787944117144233,0.018988156876153808
1,1,0.36787944117144233,0.018988156876153808
1,2,0.18393972058572122,0.018988156876153808
1,3,0.061313240195240364,0.018988156876153808
"""

STFPP_PMF_GOLDEN = """\
t,n,p,tail_mass
1,0,0.39961197811559562,0.32232493244600091
1,1,0.18033715404772591,0.32232493244600091
1,2,0.097725935390664168,0.32232493244600091
"""


README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rejected(capsys, *argv):
    """Run argv, assert a parameter error (exit 2, nothing on stdout), return stderr."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "parameter error" in err
    return err


class TestPmfCommand:
    def test_classical_golden_bytes(self, capsys):
        code, out, err = run(
            capsys, "pmf", "--variant", "classical", "--lam", "1", "-t", "1",
            "--n-max", "3",
        )
        assert code == 0
        assert err == ""
        assert out == CLASSICAL_PMF_GOLDEN

    def test_default_variant_golden_bytes(self, capsys):
        code, out, _ = run(capsys, "pmf", "-t", "1", "--n-max", "2")
        assert code == 0
        assert out == STFPP_PMF_GOLDEN

    def test_values_round_trip_to_the_library(self, capsys):
        _, out, _ = run(capsys, "pmf", "-t", "1.0", "--n-max", "4")
        p = FractionalParams(1.0, alpha=0.7, nu=0.6)
        rows = out.strip().splitlines()[1:]
        for n, row in enumerate(rows):
            _, n_s, p_s, tail_s = row.split(",")
            assert int(n_s) == n
            # %.17g preserves every bit of the double
            assert float(p_s) == pmf(p, 1.0, n)
            assert float(tail_s) == pmf_tail_mass(p, 1.0, 4)

    def test_zero_time_rows(self, capsys):
        code, out, _ = run(capsys, "pmf", "-t", "0", "--n-max", "2")
        assert code == 0
        assert out.splitlines()[1:] == ["0,0,1,0", "0,1,0,0", "0,2,0,0"]

    def test_sstfpp_at_rl_point_is_bit_identical_to_stfpp(self, capsys):
        _, a, _ = run(
            capsys, "pmf", "--variant", "sstfpp", "--alpha", "0.7", "--nu", "0.6",
            "--beta", "-0.7", "-t", "1", "--n-max", "6",
        )
        _, b, _ = run(
            capsys, "pmf", "--variant", "stfpp", "--alpha", "0.7", "--nu", "0.6",
            "-t", "1", "--n-max", "6",
        )
        assert a == b

    def test_time_grid(self, capsys):
        code, out, _ = run(
            capsys, "survival", "--variant", "classical", "--lam", "1",
            "--t-start", "0.5", "--t-stop", "2", "--t-count", "4",
        )
        assert code == 0
        times = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert times == ["0.5", "1", "1.5", "2"]

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "pmf", "--variant", "classical", "--lam", "1", "-t", "1",
            "--n-max", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["variant"] == "classical"
        assert doc["rows"][0]["p"] == math.exp(-1.0)
        assert len(doc["rows"]) == 2

    def test_pinned_parameter_conflict(self, capsys):
        # a pinned value is compared with the classification's VARIANT_TOL:
        # 1 + 9e-10 is within a relative 1e-9 of 1, and still a conflict
        for variant, flag, value in (
            ("classical", "--alpha", "0.5"),
            ("sfpp", "--alpha", "1.0000000009"),
            ("tfpp", "--nu", "0.9999999995"),
        ):
            code, out, err = run(capsys, "pmf", "--variant", variant, flag, value, "-t", "1")
            assert code == 2
            assert out == ""
            assert f"conflicts with variant {variant}" in err

    def test_bad_lambda_exits_2(self, capsys):
        code, out, err = run(capsys, "pmf", "--lam", "-3", "-t", "1")
        assert code == 2
        assert out == ""
        assert "parameter error" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("--beta", "-0.5", "-t", "1"), "classify"),
            (("-t", "1", "--n-max", "-1"), "--n-max"),
            (("--t-start", "1", "--t-count", "0"), "--t-count"),
        ],
    )
    def test_bad_input_exits_2(self, capsys, argv, named):
        assert named in rejected(capsys, "pmf", *argv)

    # The series stop rule is fixed, and verify truncates where the series
    # stop; no subcommand takes a flag it would ignore.  Each is unknown.
    COMMANDS = tuple(fracpois.cli._COMMANDS)
    REMOVED_FLAGS = {
        "--tol-abs": COMMANDS,
        "--tol-rel": COMMANDS,
        "--term-cap": COMMANDS,
        "--max-k": COMMANDS,
        "--n-max": ("pgf", "survival"),
        "--format": ("verify",),
        "--t-start": ("simulate",),
        "--t-stop": ("simulate",),
        "--t-count": ("simulate",),
    }

    @pytest.mark.parametrize("flag", list(REMOVED_FLAGS))
    def test_removed_series_flags_exit_2(self, capsys, flag):
        for command in self.REMOVED_FLAGS[flag]:
            with pytest.raises(SystemExit) as exc:
                main([command, flag, "1", "-t", "1"])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert f"unrecognized arguments: {flag}" in err, command

    def test_classical_tail_past_the_series_guard(self, capsys):
        # the Poisson tail cancels nothing, so lambda t = 40 is answered
        code, out, err = run(capsys, "pmf", "--variant", "classical", "-t", "40")
        assert code == 0
        assert err == ""
        tails = {float(row.split(",")[3]) for row in out.strip().splitlines()[1:]}
        assert len(tails) == 1 and 0.0 < tails.pop() <= 1.0

    def test_unconvergeable_argument_exits_3(self, capsys):
        code, out, err = run(capsys, "pmf", "-t", "1e9")
        assert code == 3
        assert out == ""
        assert "convergence failure" in err

    HUGE_T = ("--variant", "sstfpp", "--alpha", "0.8", "--nu", "0.6", "--beta", "-2",
              "--gamma", "0.1", "-t", "1e200")

    @pytest.mark.parametrize("argv", [
        ("pmf", *HUGE_T, "--n-max", "2"),
        ("pgf", *HUGE_T),
        ("survival", *HUGE_T),
    ])
    def test_argument_overflow_exits_3(self, capsys, argv):
        # t^2 overflows a double: a refusal, not a traceback
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "series argument overflows at t = 1e+200" in err

    @pytest.mark.parametrize("argv", [
        ("pmf", "--variant", "sfpp", "--nu", "0.6", "-t", "20", "--n-max", "25"),
        ("pmf", "--variant", "stfpp", "--alpha", "0.5", "--nu", "0.6", "-t", "400",
         "--n-max", "25"),
        # E_{1/2}(-6) = 0.0928, which the alternating series cannot deliver
        ("survival", "--variant", "tfpp", "--alpha", "0.5", "--t-start", "36",
         "--t-count", "1"),
    ])
    def test_cancelled_series_exits_3(self, capsys, argv):
        # the refusal names the entry point the command calls
        label = {"pmf": "pmf", "survival": "waiting_survival"}[argv[0]]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert f"convergence failure: {label}: rounding error bound" in err


class TestSurvivalAndPgf:
    def test_survival_golden(self, capsys):
        code, out, _ = run(
            capsys, "survival", "--variant", "sfpp", "--nu", "0.5", "--lam", "1",
            "-t", "2",
        )
        assert code == 0
        assert out == "t,survival\n2,0.1353352832366109\n"

    def test_classical_survival_past_float_range(self, capsys):
        # lam t overflows to inf: e^{-lam t} is 0, not nan
        code, out, err = run(
            capsys, "survival", "--variant", "classical", "--lam", "1e200", "-t", "1e200"
        )
        assert (code, err) == (0, "")
        assert out == "t,survival\n9.9999999999999997e+199,0\n"

    def test_pgf_golden(self, capsys):
        code, out, _ = run(capsys, "pgf", "-u", "0.4", "-t", "1")
        assert code == 0
        assert out == "t,u,g\n1,0.40000000000000002,0.49253358589299417\n"

    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ)
        env.pop("FRACPOIS_CONFIG", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "fracpois", "pgf", "-u", "0.4", "-t", "1"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        # the bytes of test_pgf_golden
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "t,u,g\n1,0.40000000000000002,0.49253358589299417\n"

    def test_pgf_matches_library(self, capsys):
        _, out, _ = run(capsys, "pgf", "-u", "-0.25", "-t", "1.5")
        g = float(out.strip().splitlines()[1].split(",")[2])
        assert g == sstfpp_pgf(FractionalParams(1.0, alpha=0.7, nu=0.6), -0.25, 1.5)

    @pytest.mark.parametrize(
        "argv",
        [
            ("survival", "-t", "-1"),
            ("survival", "--alpha", "0", "-t", "1"),
            ("pgf", "-u", "nan", "-t", "1"),
            ("pgf", "-u", "0.5", "-t", "inf"),
        ],
    )
    def test_bad_input_exits_2(self, capsys, argv):
        rejected(capsys, *argv)

    def test_pgf_domain_error(self, capsys):
        code, _, err = run(capsys, "pgf", "-u", "1.5", "-t", "1")
        assert code == 2
        assert "|u| < 1" in err


class TestVerifyCommand:
    EXPECTED_CHECKS = [
        "normalization",
        "adm_closed_form",
        "kolmogorov",
        "composition",
    ]

    def test_default_parameters_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        doc = json.loads(out)
        assert [c["name"] for c in doc["checks"]] == self.EXPECTED_CHECKS
        for c in doc["checks"]:
            assert c["pass"] is True
            assert isinstance(c["residual"], float)
            assert isinstance(c["threshold"], float)
        assert doc["params"]["variant"] == "stfpp"

    def test_saigo_variant_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--variant", "sstfpp", "--alpha", "0.8",
            "--nu", "0.6", "--beta", "-0.5", "--gamma", "0.1",
        )
        assert code == 0
        doc = json.loads(out)
        assert all(c["pass"] for c in doc["checks"])

    @pytest.mark.parametrize(
        "argv",
        [("--variant", "sstfpp", "--beta", "-0.5", "--gamma", "-5"), ("--n-max", "-1"),
         ("-t", "inf")],
    )
    def test_bad_input_exits_2(self, capsys, argv):
        rejected(capsys, "verify", *argv)

    @pytest.mark.parametrize("beta", ["-1.8", "-2", "-3"])
    def test_composition_on_the_series_powers(self, capsys, beta):
        # the composition check runs on the powers t^(-k beta) of the
        # series terms, each in the operators' domain for accepted parameters
        code, out, err = run(
            capsys, "verify", "--variant", "sstfpp", "--alpha", "0.8", "--nu", "0.6",
            "--beta", beta, "--gamma", "0.1", "-t", "0.5",
        )
        assert (code, err) == (0, "")
        assert all(c["pass"] for c in json.loads(out)["checks"])

    @pytest.mark.parametrize("n_max", ["10", "20", "25"])
    def test_truncates_where_the_series_stop(self, capsys, n_max):
        # x = 3^0.6: the higher states need orders well past 40
        code, out, err = run(
            capsys, "verify", "--variant", "tfpp", "--alpha", "0.6", "-t", "3", "--n-max", n_max
        )
        assert (code, err) == (0, "")
        assert all(c["pass"] for c in json.loads(out)["checks"])

    def test_undeliverable_series_exits_3(self, capsys):
        # the k-series of the classical states at x = 30 cancels away its
        # digits: no order can be read from it, so nothing is checked
        code, out, err = run(capsys, "verify", "--variant", "classical", "--lam", "30", "-t", "1")
        assert (code, out) == (3, "")
        assert "convergence failure: verify: rounding error bound" in err

    @pytest.mark.parametrize(
        "argv", [("-t", "0"), ("--t-start", "0", "--t-stop", "2", "--t-count", "3")]
    )
    def test_time_zero_passes(self, capsys, argv):
        # p_n(0) = [n = 0] exactly; the equation is checked at positive times
        code, out, err = run(capsys, "verify", *argv)
        assert (code, err) == (0, "")
        if len(argv) == 2:
            by_name = {c["name"]: c for c in json.loads(out)["checks"]}
            assert by_name["normalization"]["residual"] == 0.0
            assert by_name["kolmogorov"]["residual"] == 0.0

    def test_engine_overflow_exits_3(self, capsys):
        # gamma = 1e15 overflows the decomposition coefficients at order 8,
        # whatever lam is: the engine runs at x = 1
        code, out, err = run(
            capsys, "verify", "--variant", "sstfpp", "--alpha", "0.3", "--nu", "0.6",
            "--beta", "-3", "--gamma", "1e15", "-t", "0",
        )
        assert (code, out) == (3, "")
        assert "convergence failure" in err
        assert "coefficient overflow at iterate k=8" in err

    def test_check_calls_fill_no_k_part_of_their_own(self, capsys, monkeypatch):
        # the checks read the sum step's shared k-part at the kernel's x, so
        # at the time's x they fill none of it; the engine's rows at x = 1
        # are the one k-part a check call fills
        fills, calls, inside = [], [], []
        grow = processes._SeriesTerms.grow

        def counting_grow(self, key, row, x, need):
            held = len(self.kpart[1]) if self.kpart[0] == x else 0
            kpart = grow(self, key, row, x, need)
            if inside and x != 1.0 and len(kpart) > held:
                fills.append((x, need))
            return kpart

        monkeypatch.setattr(processes._SeriesTerms, "grow", counting_grow)
        for name in ("truncated_normalization_residual", "kolmogorov_residual",
                     "adm_closed_form_diff"):
            def counting(*args, check=getattr(fracpois.cli, name)):
                calls.append(check.__name__)
                inside.append(check)
                try:
                    return check(*args)
                finally:
                    inside.pop()
            monkeypatch.setattr(fracpois.cli, name, counting)
        code, _, err = run(
            capsys, "verify", "--variant", "tfpp", "--alpha", "0.6", "-t", "3", "--n-max", "25"
        )
        assert (code, err) == (0, "")
        # one time: normalization once, the equation for n = 0 .. 5, the engine once
        assert len(calls) == 8
        assert fills == []

    def test_large_beta_loses_digits_and_exits_1(self, capsys):
        # |k beta| ~ 7e8: the engine's exponents match -k beta to rounding,
        # and the digits lost to the huge gamma arguments fail three checks
        code, out, err = run(
            capsys, "verify", "--variant", "sstfpp", "--alpha", "0.8", "--nu", "0.6",
            "--beta=-123456789.123", "--gamma", "0.1", "-t", "1",
        )
        assert (code, err) == (1, "")
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
        assert failed == ["adm_closed_form", "kolmogorov", "composition"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("tfpp", "--alpha", "0.5", "--lam", "1e100", "-t", "1e-250"),
            ("tfpp", "--alpha", "0.6523873364455304", "--lam", "231.2167549741006",
             "-t", "0.0014228580800520348", "--n-max", "3"),
            ("classical", "--lam", "273.00950035306437", "-t", "0.022424743109479586",
             "--n-max", "25"),
            ("tfpp", "--alpha", "0.5", "--lam", "1e200", "-t", "0"),
        ],
        ids=["x-1e-25", "x-3.21", "classical-x-6.1", "t-0"],
    )
    def test_checks_see_lam_only_through_x(self, capsys, argv):
        # every check is a function of x = lam^nu t^(-beta): a large lam
        # neither overflows the engine nor scales the equation's residual
        code, out, err = run(capsys, "verify", "--variant", *argv)
        assert (code, err) == (0, "")
        assert all(c["pass"] for c in json.loads(out)["checks"])


class TestSimulateCommand:
    def test_deterministic_and_consistent(self, capsys):
        args = (
            "simulate", "--variant", "classical", "--lam", "1", "-t", "1",
            "--seed", "42", "--samples", "20000", "--n-max", "8",
        )
        code, first, _ = run(capsys, *args)
        assert code == 0
        code, second, _ = run(capsys, *args)
        assert first == second

        lines = first.strip().splitlines()
        assert lines[0] == "n,empirical,closed_form,abs_diff"
        body = [ln for ln in lines[1:] if not ln.startswith("#")]
        footers = [ln for ln in lines[1:] if ln.startswith("#")]
        assert len(body) == 9
        for n, row in enumerate(body):
            n_s, emp_s, cf_s, diff_s = row.split(",")
            assert int(n_s) == n
            assert float(cf_s) == pmf(FractionalParams(1.0), 1.0, n)
            assert float(diff_s) == pytest.approx(
                abs(float(emp_s) - float(cf_s)), abs=1e-15
            )
        assert [f.split("=")[0] for f in footers] == [
            "# chi_square", "# p_value", "# dof",
        ]
        assert float(footers[1].split("=")[1]) > 0.01

    def test_closed_form_row_built_once(self, capsys, monkeypatch):
        # the printed closed-form column and the chi-square share one table
        calls = []

        def counting(*args):
            calls.append(args)
            return pmf_table(*args)

        monkeypatch.setattr(fracpois.cli, "pmf_table", counting)
        monkeypatch.setattr(fracpois.simulate, "pmf_table", counting)
        code, out, _ = run(
            capsys, "simulate", "--variant", "tfpp", "--alpha", "0.6",
            "--samples", "2000", "--seed", "42", "--n-max", "20",
        )
        assert code == 0
        assert "# p_value=" in out
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("--variant", "classical", "-t", "1", "--samples", "1"),
            ("--variant", "tfpp", "--alpha", "0.5", "-t", "1e-300", "--samples", "100"),
        ],
        ids=["one-sample", "tiny-t"],
    )
    def test_chi_square_not_computable_still_prints(self, capsys, argv):
        # legal input whose draws pool into one bin: histogram, exit 0
        code, out, err = run(capsys, "simulate", *argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "n,empirical,closed_form,abs_diff"
        assert [ln.split(",")[0] for ln in lines[1:-1]] == [str(n) for n in range(11)]
        assert lines[-1] == "# chi_square=not computable (fewer than two usable bins)"

        code, out, err = run(capsys, "simulate", *argv, "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert [row["n"] for row in doc["rows"]] == list(range(11))
        assert (doc["chi_square"], doc["p_value"], doc["dof"]) == (None, None, None)

    def test_seed_changes_the_draws(self, capsys):
        base = ("simulate", "--variant", "classical", "-t", "1", "--samples", "5000")
        _, a, _ = run(capsys, *base, "--seed", "1")
        _, b, _ = run(capsys, *base, "--seed", "2")
        assert a != b

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("-t", "1", "--seed", "-1"), "--seed"),
            (("-t", "1", "--samples", "0"), "n_samples"),
        ],
    )
    def test_bad_input_exits_2(self, capsys, argv, named):
        err = rejected(capsys, "simulate", "--variant", "classical", *argv)
        assert named in err

    def test_saigo_variant_exits_4(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--variant", "sstfpp", "--beta", "-0.5", "-t", "1"
        )
        assert code == 4
        assert out == ""
        assert "unsupported variant" in err

    def test_rl_point_of_saigo_family_is_simulable(self, capsys):
        # beta = -alpha parameters ARE the reduced variant, so sampling works
        code, out, _ = run(
            capsys, "simulate", "--variant", "sstfpp", "-t", "1",
            "--samples", "2000", "--n-max", "10",
        )
        assert code == 0
        assert out.startswith("n,empirical")


class TestConfigPrecedence:
    def test_config_file_overrides_defaults(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": 2.0}))
        monkeypatch.setenv("FRACPOIS_CONFIG", str(cfg))
        code, out, _ = run(
            capsys, "pmf", "--variant", "classical", "-t", "1", "--n-max", "0"
        )
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[2]) == math.exp(-2.0)

    def test_flags_override_config_file(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": 2.0}))
        monkeypatch.setenv("FRACPOIS_CONFIG", str(cfg))
        code, out, _ = run(
            capsys, "pmf", "--variant", "classical", "--lam", "1", "-t", "1",
            "--n-max", "0",
        )
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[2]) == math.exp(-1.0)

    def test_unknown_config_key_rejected(self, tmp_path, monkeypatch, capsys):
        # the series tolerances are fixed constants, and verify's order is
        # where the series stop: none is a config key
        cfg = tmp_path / "cfg.json"
        monkeypatch.setenv("FRACPOIS_CONFIG", str(cfg))
        for key in ("bogus", "tol_abs", "tol_rel", "term_cap", "max_k"):
            cfg.write_text(json.dumps({"lam": 2.0, key: 1}))
            code, _, err = run(capsys, "pmf", "-t", "1")
            assert code == 2
            assert key in err

    @pytest.mark.parametrize(
        "config, argv",
        [
            ({"variant": "foo"}, ("pmf", "--n-max", "1")),
            ({"format": "xml"}, ("pmf", "--n-max", "1")),
            ({"n_max": "abc"}, ("pmf", "--n-max", "1")),
            ({"n_max": 2.5}, ("pmf", "--n-max", "1")),
            ({"alpha": "0.5"}, ("pmf", "--n-max", "1")),
            ({"lam": True}, ("pmf", "--n-max", "1")),
            ({"t": None}, ("pmf", "--n-max", "1")),
            # pmf takes no --seed: the range check is simulate's
            ({"seed": -1}, ("simulate",)),
        ],
        ids=["variant-choice", "format-choice", "n_max-str", "n_max-float",
             "alpha-str", "lam-bool", "t-null", "seed-negative"],
    )
    def test_bad_config_value_exits_2(self, tmp_path, monkeypatch, capsys, config, argv):
        # a config value must be what its flag would parse to
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.setenv("FRACPOIS_CONFIG", str(cfg))
        (key,) = config
        assert key in rejected(capsys, *argv)

    @pytest.mark.parametrize("command", ["pgf", "survival"])
    def test_config_key_without_a_flag_is_not_read(self, tmp_path, monkeypatch, capsys, command):
        # pgf and survival take no --n-max or --seed: those config values are
        # neither read nor range-checked, and the output is unchanged
        code, plain, _ = run(capsys, command, "-t", "1")
        assert code == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": -1, "seed": -1}))
        monkeypatch.setenv("FRACPOIS_CONFIG", str(cfg))
        assert run(capsys, command, "-t", "1") == (0, plain, "")
        # pmf takes --n-max, so there the value is still refused
        assert "--n-max" in rejected(capsys, "pmf", "-t", "1")

    def test_missing_config_file_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("FRACPOIS_CONFIG", "/nonexistent/cfg.json")
        code, _, err = run(capsys, "pmf", "-t", "1")
        assert code == 2
        assert "FRACPOIS_CONFIG" in err

    def test_config_pinned_conflict(self, tmp_path, monkeypatch, capsys):
        # a config value that contradicts the variant is an error, same as a flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.5}))
        monkeypatch.setenv("FRACPOIS_CONFIG", str(cfg))
        code, _, err = run(capsys, "pmf", "--variant", "classical", "-t", "1")
        assert code == 2
        assert "conflicts" in err


def test_readme_cli_examples_run(monkeypatch, capsys):
    # every command the README documents must still parse and succeed
    monkeypatch.delenv("FRACPOIS_CONFIG", raising=False)
    lines = [ln for ln in README.read_text().splitlines() if ln.startswith("fracpois ")]
    assert len(lines) >= 5
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line)[1:])
        assert (code, err) == (0, ""), line
        assert out, line


def test_readme_table_commands_json_golden_bytes(monkeypatch, capsys):
    # the --format json stdout of the README's pmf, survival, pgf and
    # simulate commands, byte for byte: each command line of the golden file
    # is followed by its one line of output
    monkeypatch.delenv("FRACPOIS_CONFIG", raising=False)
    readme = README.read_text().splitlines()
    golden = (Path(__file__).with_name("readme_json_golden.txt")
              .read_text().splitlines(keepends=True))
    assert len(golden) == 8
    for command, expected in zip(golden[::2], golden[1::2]):
        assert command.removesuffix(" --format json\n") in readme, command
        code, out, err = run(capsys, *shlex.split(command)[1:])
        assert (code, err, out) == (0, "", expected), command
