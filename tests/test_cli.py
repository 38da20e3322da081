import argparse
import json
import math

import pytest

from thetaq import cli, formal_certify, make_param, qtrig_product_any
from thetaq.cli import format_value, main, parse_complex, render_reports
from thetaq.errors import DomainError, GradeMismatch


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex():
    assert parse_complex("0,1") == 1j
    assert parse_complex("1.5") == 1.5
    assert parse_complex("pi*0.25,0") == complex(math.pi / 4, 0)
    assert parse_complex("0,pi*0.5") == complex(0, math.pi / 2)
    assert parse_complex("-0.3,1.1") == -0.3 + 1.1j
    for bad in ("abc", "pi*x,0", "nan,0", "1e400,0", "0,pi*1e308", "1,2,3"):
        with pytest.raises(DomainError):
            parse_complex(bad)


def test_format_value():
    assert format_value(complex(1.086434811213308, 0)) == "1.08643481121331"
    assert format_value(0j) == "0"
    assert "j" in format_value(1 + 2j)


def test_eval_theta3(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "theta3",
                           "--z", "0,0", "--tau", "0,1")
    assert code == 0
    assert abs(float(out) - 1.086434811213308) < 1e-13


def test_eval_theta1_zero(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "theta1",
                           "--z", "0,0", "--tau", "0,1")
    assert code == 0
    assert float(out) == 0.0


def test_eval_tan_q_quarter_pi(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "tan_q",
                           "--z", "pi*0.25,0", "--tau", "0,1.3")
    assert code == 0
    assert abs(float(out) - 1) < 1e-12


def test_eval_product_method(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "theta2",
                           "--z", "0.4,0.1", "--tau", "0.2,1.3",
                           "--method", "product")
    assert code == 0


def test_eval_domain_error(capsys):
    code, out, err = run_cli(capsys, "eval", "--fn", "theta3",
                             "--z", "0,0", "--tau", "0,-1")
    assert code == 2
    assert "tau" in err
    # unparsable or non-finite numbers are domain errors, not crashes
    for z in ("abc", "pi*x,0", "nan,0", "1e400,0"):
        code, _, err = run_cli(capsys, "eval", "--fn", "theta3",
                               "--z", z, "--tau", "0,1")
        assert code == 2, z
        assert err.startswith("error:") and z in err
    # tan_q evaluates at tau' = -1/tau = 1e-20i, whose |q'| rounds to 1
    code, _, err = run_cli(capsys, "eval", "--fn", "tan_q",
                           "--z", "0.3,0", "--tau", "0,1e20")
    assert code == 2
    assert "1e-20j" in err


def test_eval_pole_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--fn", "cot_q",
                           "--z", "0,0", "--tau", "0,1.3")
    assert code == 3
    assert "pole" in err.lower()


def test_eval_convergence_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--fn", "theta3",
                           "--z", "0.1,0", "--tau", "0,0.00001")
    assert code == 3


def test_eval_huge_imaginary_argument(capsys):
    for method in ("series", "product"):
        for fn in ("theta1", "theta2", "theta3", "theta4"):
            for z in ("0,800", "0,-800", "0,400"):
                code, _, err = run_cli(capsys, "eval", "--fn", fn, "--z", z,
                                       "--tau", "0,1", "--method", method)
                assert code == 3, (method, fn, z)
                assert "%s overflowed double range" % method in err


def test_eval_huge_real_argument(capsys):
    # 2*Re z overflows in e^(2iz), and q^((w-1/2)^2) overflows on the q-trig
    # product path: a typed range error (exit 3), not an internal error
    cases = [(fn, "1e308,0", method) for fn in ("theta3", "theta4")
             for method in ("series", "product")]
    cases += [("ssn_q", "1e308,0", "series")]
    cases += [(fn, "1e17,0", "product") for fn in ("sin_q", "tan_q", "ssn_q")]
    for fn, z, method in cases:
        code, out, err = run_cli(capsys, "eval", "--fn", fn, "--z", z,
                                 "--tau", "0,1.1", "--method", method)
        assert (code, out) == (3, ""), (fn, z, method)
        assert "overflowed double range" in err


def test_eval_overflowed_product_exits_3(capsys):
    code, out, err = run_cli(capsys, "eval", "--fn", "tan_q", "--z", "9,0",
                             "--tau", "0,30", "--method", "product")
    assert (code, out) == (3, "")
    assert "factors overflowed double range" in err


@pytest.mark.parametrize("exc", [RuntimeError("boom"), GradeMismatch("boom")])
def test_internal_error_exit_code(capsys, monkeypatch, exc):
    def crash(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_eval", crash)
    code, out, err = run_cli(capsys, "eval", "--fn", "theta3",
                             "--z", "0,0", "--tau", "0,1")
    assert code == 5
    assert out == ""
    assert err == "internal error: %s: boom\n" % type(exc).__name__


def test_eval_unknown_function(capsys):
    code, _, err = run_cli(capsys, "eval", "--fn", "sec_q",
                           "--z", "0,0", "--tau", "0,1")
    assert code == 2


def test_verify_pinned_thm2(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "thm2", "--count", "1",
                           "--x", "pi*0.25,0", "--y", "pi*0.25,0")
    assert code == 0
    assert "pass" in out


def test_verify_sampled(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "thm1_tan",
                           "--count", "25", "--seed", "42", "--tol", "1e-10")
    assert code == 0
    assert "pass" in out


def test_verify_classical_limit(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "classical_limit_tan")
    assert code == 0
    assert "pass" in out


def test_verify_classical_limit_prints_log10_residual(capsys):
    # max_residual underflows to 0.0; the log10 carries the magnitude
    code, out, _ = run_cli(capsys, "verify", "--id", "classical_limit_tan")
    assert code == 0
    assert "max_residual=0.000e+00 log10_residual=-8567.940627" in out


def test_verify_impossible_tolerance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "thm1_tan",
                           "--count", "10", "--seed", "42", "--tol", "1e-18")
    assert code == 1
    assert "fail" in out


def test_non_finite_or_negative_tolerance_exits_2(capsys):
    # no residual is above nan or inf, so neither can judge an identity
    for argv in (("verify", "--id", "thm1_tan", "--count", "20", "--tol", "nan"),
                 ("verify", "--id", "thm2", "--x", "0.3,0", "--y", "0.4,0",
                  "--tol", "nan"),
                 ("verify", "--id", "thm2", "--x", "0.3,0", "--y", "0.4,0",
                  "--tol=-1e-10"),
                 ("suite", "--count", "5", "--tol", "nan"),
                 ("suite", "--count", "5", "--tol", "inf")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: tolerance must be finite"), argv


def test_verify_json_deterministic(capsys, tmp_path):
    args = ("verify", "--id", "cosq_shift", "--count", "15", "--seed", "9",
            "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload[0]["id"] == "cosq_shift"
    assert payload[0]["status"] == "pass"
    assert payload[0]["samples"] == 15


def test_verify_writes_report_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--id", "thm2", "--count", "5",
                           "--seed", "2", "--format", "json",
                           "--output", str(path))
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)


def test_certify_thm2(capsys, tmp_path):
    path = tmp_path / "cert.txt"
    code, out, _ = run_cli(capsys, "certify", "--id", "thm2",
                           "--order", "8", "--output", str(path))
    assert code == 0
    text = path.read_text()
    assert "status: pass" in text
    assert "lhs (prefactor q^1)" in text


def test_certify_duplication_order_20(capsys):
    code, out, _ = run_cli(capsys, "certify", "--id", "duplication_12",
                           "--order", "20")
    assert code == 0
    assert "status: pass" in out


def test_certify_unsupported(capsys):
    code, _, err = run_cli(capsys, "certify", "--id", "thm1_tan")
    assert code == 4
    assert "formal" in err


def test_text_report_of_a_formal_check():
    text = render_reports([formal_certify("duplication_12", 4)], "text")
    assert text == "duplication_12       formal   pass\n  certified_order=q^4\n"


def test_suite_small(capsys):
    code, out, _ = run_cli(capsys, "suite", "--seed", "7", "--count", "20",
                           "--format", "csv")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if "," in l]
    header = lines[0].split(",")
    assert header == ["id", "mode", "samples", "certified_order",
                      "max_abs_residual", "status"]
    assert all(l.rsplit(",", 1)[1] == "pass" for l in lines[1:])
    assert "checks passed" in out


def test_suite_deterministic(capsys):
    args = ("suite", "--seed", "5", "--count", "12", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_suite_custom_tau(capsys):
    code, out, _ = run_cli(capsys, "suite", "--seed", "3", "--count", "10",
                           "--tau", "0.3,1.1", "--format", "csv")
    assert code == 0


def test_suite_json_reports_classical_exponents(capsys):
    code, out, _ = run_cli(capsys, "suite", "--seed", "7", "--count", "12",
                           "--format", "json")
    assert code == 0
    reports, _ = json.JSONDecoder().raw_decode(out)
    classical = {r["id"]: r["params"]["log10_residuals"] for r in reports
                 if r["id"].startswith("classical_limit_")}
    assert set(classical) == {"classical_limit_tan", "classical_limit_cot"}
    for logs in classical.values():
        assert [round(v, 3) for v in logs] == [-80.963, -852.568, -8567.941]


def test_eval_qtrig_product_method(capsys, monkeypatch):
    def no_theta_path(*args):
        raise AssertionError("took the theta quotient path")

    monkeypatch.setattr(cli, "qtrig_theta", no_theta_path)
    code, out, _ = run_cli(capsys, "eval", "--fn", "tan_q", "--z", "0.3,0.1",
                           "--tau", "0.2,1.1", "--method", "product")
    assert code == 0
    expected = qtrig_product_any("tan_q", complex(0.3, 0.1) / math.pi,
                                 make_param(complex(0.2, 1.1)))
    assert out == format_value(expected) + "\n"


def test_bad_order_or_unused_y_exits_2(capsys):
    code, out, err = run_cli(capsys, "suite", "--order", "-1", "--count", "1")
    assert (code, out) == (2, "")
    assert "order must be >= 0" in err
    code, out, err = run_cli(capsys, "verify", "--id", "quasi_period_1",
                             "--x", "0.3,0", "--y", "0.5,0", "--format", "json")
    assert (code, out) == (2, "")
    assert "takes x only" in err


def test_underflowed_nome_is_a_failure_not_a_crash(capsys):
    # q rounds to 0 above Im tau ~ 237, where 1/q cannot be formed
    code, out, err = run_cli(capsys, "verify", "--id", "quasi_period_2",
                             "--tau", "0,240", "--count", "3")
    assert code == 1 and "overflowed double range" in out and err == ""
    code, _, err = run_cli(capsys, "verify", "--id", "quasi_period_2",
                           "--x", "0.3,-100", "--tau", "0,240")
    assert code == 3
    assert "quasi-period multiplier overflowed double range" in err
    code, out, err = run_cli(capsys, "suite", "--tau", "0,1000", "--count", "3",
                             "--format", "csv")
    assert code == 1 and err == ""
    assert "quasi_period_2,numeric,0,0,0.0,fail" in out


# every option of each subcommand; the truncation is fixed (params.EPS,
# params.MAX_TERMS), so no subcommand takes --eps or --max-terms
CLI_OPTIONS = {
    "eval": {"--fn", "--z", "--tau", "--method"},
    "verify": {"--id", "--x", "--y", "--seed", "--count", "--tau", "--tol",
               "--output", "--format"},
    "certify": {"--id", "--order", "--output"},
    "suite": {"--order", "--seed", "--count", "--tau", "--tol", "--output", "--format"},
}


def test_subcommand_options_are_pinned(capsys):
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {name: {opt for action in sub._actions for opt in action.option_strings}
               - {"-h", "--help"} for name, sub in subparsers.choices.items()}
    assert options == CLI_OPTIONS
    for argv in (["eval", "--fn", "theta3", "--z", "0.3,0", "--tau", "0,1"],
                 ["verify", "--id", "thm2"], ["suite"]):
        for flag, value in (("--eps", "1e-3"), ("--max-terms", "10")):
            with pytest.raises(SystemExit) as exc:
                main(argv + [flag, value])
            assert exc.value.code == 2, (argv[0], flag)
            assert "unrecognized arguments: %s" % flag in capsys.readouterr().err
