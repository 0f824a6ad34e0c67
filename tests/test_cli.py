import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qconnect as qc
from qconnect.cli import _EVALUATORS, _build_parser, fmt_complex, main, parse_complex


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def first_value(stdout: str) -> complex:
    line = stdout.splitlines()[0]
    m = re.match(r"^([+-]?\d\.\d+e[+-]\d+)([+-]\d\.\d+e[+-]\d+)i$", line)
    assert m, f"unparseable value line: {line!r}"
    return complex(float(m.group(1)), float(m.group(2)))


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.5", 0.5),
            ("-3", -3.0),
            ("1+2i", 1 + 2j),
            ("1.5-0.25i", 1.5 - 0.25j),
            ("-3.1e-2-0.4i", -0.031 - 0.4j),
            ("2e1+1e-1i", 20 + 0.1j),
        ],
    )
    def test_accepts(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("bad", ["", "1 + 2i", "2i", "1+2j", "abc", "1+i"])
    def test_rejects_with_grammar(self, bad):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="a\\+bi"):
            parse_complex(bad)

    def test_format_15_significant_digits(self):
        s = fmt_complex(1 / 3 - 2j / 7)
        assert s == "3.33333333333333e-01-2.85714285714286e-01i"


class TestEval:
    def test_entire_function_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "Aq", "--q", "0.5", "--x", "0")
        assert code == 0
        assert first_value(out) == 1
        assert re.search(r"terms=\d+ eps=1e-15 n_max=10000", out)

    def test_theta_zero_warns(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "theta", "--q", "0.5", "--x", "-0.5")
        assert code == 0
        assert abs(first_value(out)) < 1e-13
        assert "theta zero spiral" in out

    def test_resummation_matches_closed_form(self, capsys):
        code1, out1, _ = run_cli(
            capsys, "eval", "2f0", "--q", "0.5", "--lambda", "0.7", "--x", "2.4"
        )
        code2, out2, _ = run_cli(
            capsys, "eval", "2f0-closed", "--q", "0.5", "--lambda", "0.7", "--x", "2.4"
        )
        assert code1 == code2 == 0
        assert abs(first_value(out1) - first_value(out2)) < 1e-8

    def test_rphis_with_parameter_lists(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "rphis", "--q", "0.5", "--x", "0.1",
            "--upper=-4,3", "--lower", "0.5",
        )
        assert code == 0
        from qconnect import rphis

        assert abs(first_value(out) - rphis((-4, 3), (0.5,), 0.5, 0.1)) < 1e-12

    # x = q^-1 and x = 1 are poles of the product form of e_q, the default;
    # 1 is excluded from inside the unit disc as well as from outside
    @pytest.mark.parametrize("x", ["2", "0.9999999", "1.0000001"])
    def test_domain_exclusion_exit_code(self, capsys, x):
        code, out, err = run_cli(capsys, "eval", "eq", "--q", "0.5", "--x", x)
        assert code == 3
        assert "pole" in err
        assert "Traceback" not in out + err

    def test_theta_out_of_double_range_exit_three(self, capsys):
        code, out, err = run_cli(capsys, "eval", "theta", "--q", "0.5", "--x", "1e300")
        assert code == 3
        assert "out of double range" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "argv",
        [
            # (-x; q)_inf overflows double range, and so does the A_q series
            ("eval", "Eq", "--q", "0.5", "--x", "1e300"),
            ("eval", "Aq", "--q", "0.5", "--x", "1e300"),
            # theta(lambda/x) is undefined at x = 0
            ("eval", "2f0-closed", "--q", "0.5", "--lambda", "0.7", "--x", "0"),
            # tiny bases: q^k underflows to 0 in theta's shift law, and q^2
            # in the spiral sum's lower tail
            ("eval", "theta", "--q", "1e-120", "--x", "1e308+1e308i"),
            ("eval", "2f0", "--q", "1e-300", "--lambda", "0.7", "--x", "2.1"),
            # the closed 2f0: theta(-lambda/q) theta(lambda/x) overflows (it
            # printed nan+nani with exit 0), and q x underflows to 0 (a
            # ZeroDivisionError traceback)
            (
                "eval", "2f0-closed", "--q", "1.3941465272413474e-48",
                "--lambda=-0.005378541608418432+0.0018798344886986364i",
                "--x=-1.1013363134775243e+193-3.480201140742112e+192i",
            ),
            (
                "eval", "2f0-closed", "--q", "2.0118859755897055e-162",
                "--lambda", "2.272212050433223+13.66354344196615i",
                "--x", "9.929724116268112e-182-1.9589323927271065e-181i",
            ),
        ],
    )
    def test_domain_edge_exit_three(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert err.startswith("domain error:")
        assert "nan" not in out and "Traceback" not in out + err

    @pytest.mark.parametrize("fn", ["2f0", "2f0-closed"])
    def test_lambda_over_x_underflow_names_the_given_x(self, capsys, fn):
        argv = ("eval", fn, "--q", "0.05", "--lambda", "0.7", "--x", "1e308+1e308i")
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert err.startswith("domain error:")
        assert "x = 0" not in err and "Traceback" not in out + err

    @pytest.mark.parametrize("fn", ["2f0", "2f0-closed"])
    def test_theta_of_lambda_over_x_out_of_range_names_the_given_x(self, capsys, fn):
        argv = ("eval", fn, "--q", "0.05", "--lambda", "0.7", "--x", "1.5e308")
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert err.startswith("domain error:") and "1.5e+308" in err
        assert "Traceback" not in out + err

    def test_missing_lambda_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "2f0", "--q", "0.5", "--x", "2.4")
        assert code == 2

    def test_bad_literal_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "Aq", "--q", "0.5", "--x", "nope")
        assert code == 2

    @pytest.mark.parametrize("command", ["eval", "check"])
    def test_n_max_zero_is_usage_error(self, capsys, command):
        argv = ("Aq", "--x", "0.3") if command == "eval" else ("qde-ramanujan",)
        code, out, err = run_cli(capsys, command, *argv, "--q", "0.5", "--n-max", "0")
        assert code == 2
        assert err.startswith("error: n_max must be at least 1")
        assert "Traceback" not in out + err

    def test_infinite_eps_is_usage_error(self, capsys):
        # the product plan took round/floor of log(inf): an OverflowError traceback
        argv = ("eval", "theta", "--q", "0.5", "--x", "1", "--eps", "inf")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: eps must satisfy 0 < eps < 1")
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("eps", ["1", "30", "1e300"])
    def test_eps_of_one_or_more_is_usage_error(self, capsys, eps):
        # the product plan's log-series count went negative: theta printed terms=-736
        argv = ("eval", "theta", "--q", "0.5", "--x", "1", "--eps", eps)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: eps must satisfy 0 < eps < 1")
        assert out == "" and "Traceback" not in err

    def test_truncation_cap_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "eval", "Aq", "--q", "0.5", "--x", "100", "--n-max", "3")
        assert code == 1
        assert err.startswith("error: A_q series tail not below eps=1e-15 after n_max=3 terms")
        assert out == ""


X = 0.3 + 0.2j
LAM_ARGS = ("--lambda", "0.7")

# (eval choice, extra arguments, the library call it must reproduce)
EVERY_EVAL = [
    ("Aq", (), lambda: qc.ramanujan_Aq(0.5, X)),
    ("Aiq", (), lambda: qc.qairy_Ai(0.5, X)),
    ("theta", (), lambda: qc.theta(0.5, X)),
    ("eq", (), lambda: qc.e_exp(0.5, X)),
    ("Eq", (), lambda: qc.E_exp(0.5, X)),
    ("rphis", ("--upper=-4,3", "--lower", "0.5"), lambda: qc.rphis((-4, 3), (0.5,), 0.5, X)),
    ("2f0", LAM_ARGS, lambda: qc.two_f_zero(0.5, 0.7, X)),
    ("2f0-closed", LAM_ARGS, lambda: qc.two_f_zero_closed(0.5, 0.7, X)),
    ("f-residues", (), lambda: qc.f_via_residues(0.5, X)),
    ("g-borel", (), lambda: qc.g_borel_image(0.5, X)),
]


class TestEveryEvalChoice:
    def test_cases_cover_the_choices_in_order(self):
        assert [fn for fn, _, _ in EVERY_EVAL] == list(_EVALUATORS)

    @pytest.mark.parametrize("fn, extra, want", EVERY_EVAL, ids=[c[0] for c in EVERY_EVAL])
    def test_prints_the_library_value(self, capsys, fn, extra, want):
        code, out, err = run_cli(capsys, "eval", fn, "--q", "0.5", "--x", "0.3+0.2i", *extra)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 2
        assert abs(first_value(out) - want()) <= 1e-14 * abs(want())
        assert re.fullmatch(r"terms=\d+ eps=1e-15 n_max=10000", lines[1])


class TestCheck:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "check", "thm-ramanujan-qairy", "--q", "0.5")
        assert code == 0
        assert out.startswith("PASS max_rel_err=")

    def test_lambda_identity(self, capsys):
        code, out, _ = run_cli(capsys, "check", "thm-2f0", "--q", "0.5", "--lambda", "0.7")
        assert code == 0
        assert out.startswith("PASS")

    def test_excluded_lambda_exit_three(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "thm-2f0", "--q", "0.5", "--lambda", "1.0"
        )
        assert code == 3
        assert "spiral" in err

    def test_failing_tolerance_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "qde-ramanujan", "--q", "0.5", "--tol", "1e-30"
        )
        assert code == 1
        assert out.startswith("FAIL")

    def test_bad_grid_literal_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "ismail-zhang", "--q", "0.5", "--grid", "1+0.3i;nope"
        )
        assert code == 2
        assert err.startswith("error: cannot parse 'nope'")
        assert out == ""

    def test_explicit_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "ismail-zhang", "--q", "0.5", "--grid", "1+0.3i;0.4-0.2i"
        )
        assert code == 0
        assert "evaluated=2" in out

    def test_json_report_round_trips(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "check", "thm-eq-Eq", "--q", "0.5", "--out", str(out_file),
        )
        assert code == 0
        text = out_file.read_text(encoding="utf-8")
        data = json.loads(text)
        assert data["identity"] == "thm-eq-Eq"
        assert data["pass"] is True
        assert json.dumps(data, separators=(",", ":")) == text

    def test_csv_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        code, _, _ = run_cli(
            capsys,
            "check", "watson", "--q", "0.5", "--abc=-4,3,0.5",
            "--out", str(out_file), "--format", "csv",
        )
        assert code == 0
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("x_re,x_im,lhs_re")

    def test_abc_wrong_arity(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "watson", "--q", "0.5", "--abc", "1,2"
        )
        assert code == 2

    def test_usage_error(self, capsys):
        assert main(["check"]) == 2
        assert main(["frobnicate"]) == 2

    def test_underflowed_denominator_fails_without_traceback(self, capsys):
        # the fourth skip is the point whose closed form overflows to nan
        code, out, err = run_cli(capsys, "check", "thm-2f0", "--q", "0.99", "--lambda", "0.7")
        assert code == 1
        assert out.startswith("FAIL") and "skipped=4" in out
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "thm-2f0", "--q", "0.995", "--lambda", "0.7"),
            ("check", "thm-eq-Eq", "--q", "0.997"),
        ],
    )
    def test_underflowed_theta_skips_without_traceback(self, capsys, argv):
        # theta values below the double range: a ZeroDivisionError traceback
        # before they were domain errors
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out.startswith("FAIL") and "skipped=" in out
        assert "Traceback" not in out + err

    def test_underflowed_product_skips_without_traceback(self, capsys):
        # (q;q)_inf underflows at q = 0.998: both lambdas skip with a domain error
        code, out, err = run_cli(capsys, "check", "residue-lemma", "--q", "0.998")
        assert code == 1
        assert out.startswith("FAIL") and "evaluated=0 skipped=2" in out
        assert "Traceback" not in out + err


class TestFormalGridPoints:
    """The formal identities read a grid point as integers (order, seed) or
    (m, l); points out of their range end without a traceback."""

    def test_negative_order_is_usage_error(self, capsys):
        # an IndexError traceback from drawing a series of no coefficients
        code, out, err = run_cli(capsys, "check", "formal-inverses", "--q", "0.5", "--grid=-5")
        assert code == 2
        assert err.startswith("error: the series order")
        assert "Traceback" not in out + err

    def test_order_above_n_max_is_a_skip(self, capsys, tmp_path):
        # refused before any coefficient is drawn: 1e300 of them never allocate
        out_file = tmp_path / "r.json"
        argv = ("check", "formal-inverses", "--q", "0.5", "--grid=1e300", "--out", str(out_file))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out.startswith("FAIL") and "evaluated=0 skipped=1" in out
        (point,) = json.loads(out_file.read_text(encoding="utf-8"))["points"]
        assert point["reason"] == f"series order {int(1e300)} is above n_max=10000"

    def test_huge_shift_ends(self):
        # sigma_q^l with l = 1e9: the chunked weight q^(l n) kept multiplying
        # after it reached 0 and did not end; run apart, so a hang fails the test
        argv = ["check", "operational-lemma", "--q", "0.5", "--grid=0+1e9i"]
        code = f"from qconnect.cli import main\nraise SystemExit(main({argv!r}))\n"
        src = str(Path(qc.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.startswith("FAIL") and "evaluated=0 skipped=1" in proc.stdout
        assert "Traceback" not in proc.stdout + proc.stderr


class TestParser:
    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_reuse_keeps_no_state(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "theta", "--q", "0.5", "--x", "5e9")
        assert code == 0
        assert abs(first_value(out) / 4.099309391157117e161 - 1) < 1e-13
        code, _, _ = run_cli(capsys, "eval", "Aq", "--q", "0.5", "--x", "1")
        assert code == 0
        assert run_cli(capsys, "eval", "theta", "--q", "0.5")[0] == 2


class TestOverflowingModulus:
    @pytest.mark.parametrize("fn", ["eq", "theta", "Aq"])
    def test_exit_three_without_traceback(self, capsys, fn):
        # finite, but its modulus overflows a double
        code, out, err = run_cli(capsys, "eval", fn, "--q", "0.5", "--x", "1.7e308+1.7e308i")
        assert code == 3
        assert "out of double range" in err
        assert "Traceback" not in out + err
