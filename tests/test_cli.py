import argparse
import json
import math

import pytest

from thetaq import (cli, formal_certify, make_param, numeric_residual,
                    qtrig_product_any, qtrig_theta, theta_eval)
from thetaq.cli import format_value, main, parse_complex, render_reports
from thetaq.errors import DomainError, GradeMismatch
from thetaq.identities import PROBE_TAU


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


def test_eval_keeps_the_imaginary_part_of_a_small_value(capsys):
    # both parts are far below 1e-13, and neither is negligible against |value|
    p = make_param(1j)
    for fn, z, value in (
            ("theta1", "1e-14,2e-14", theta_eval(1, complex(1e-14, 2e-14), p)),
            ("sin_q", "1e-15,1e-15", qtrig_theta("sin_q", complex(1e-15, 1e-15), p))):
        code, out, _ = run_cli(capsys, "eval", "--fn", fn, "--z", z, "--tau", "0,1")
        assert code == 0
        assert "j" in out, fn
        assert abs(complex(out) - value) <= 1e-14 * abs(value), (fn, out)


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


def test_eval_product_with_underflowed_q_squared_exits_3(capsys):
    # the caller's tau is valid; only the doubled tau's nome underflows
    code, out, err = run_cli(capsys, "eval", "--fn", "ssn_q", "--z", "pi*0.3,0",
                             "--tau", "0,130", "--method", "product")
    assert (code, out) == (3, "")
    assert "nome q^2 underflowed to 0" in err and "tau = 130j" in err


def test_eval_product_value_out_of_double_range_exits_3(capsys):
    # sin_q's nome power overflows (once a silent nan); cos_q's q-Pochhammer
    # argument has finite parts whose modulus overflows (once an internal error)
    for fn, z, tau, what in (
            ("sin_q", "pi*-1.078733358996308,pi*1.9180127898351902",
             "2.613700830316138,0.10671726809833318", "sin_q(pi*w) overflowed"),
            ("cos_q", "pi*1.4981853132870695,pi*-0.20854892118746562",
             "-0.4616097580120826,113.07552540918324", "|a| overflowed")):
        code, out, err = run_cli(capsys, "eval", "--fn", fn, "--z=" + z,
                                 "--tau=" + tau, "--method", "product")
        assert (code, out) == (3, ""), fn
        assert what in err, fn


@pytest.mark.parametrize("argv", [
    ("suite", "--count", "2"),
    ("verify", "--id", "thm2", "--count", "2"),
    ("certify", "--id", "thm2", "--order", "2"),
])
def test_unwritable_output_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "r.txt"
    code, out, err = run_cli(capsys, *argv, "--output", str(path))
    assert (code, out) == (2, "")
    assert err == "error: cannot write %s: No such file or directory\n" % path


def test_misplaced_pin_flags_exit_2(capsys):
    for argv, what in (
            (("--y", "1,0", "--count", "2"), "--y pins a sample point only"),
            (("--x", "1,0", "--y", "1,0", "--tau", "0,1", "--tau", "0,2"),
             "takes one --tau, got 2"),
            (("--x", "1,0", "--y", "1,0", "--count", "1"), "takes no --seed or --count"),
            (("--x", "1,0", "--y", "1,0", "--seed", "3"), "takes no --seed or --count")):
        code, out, err = run_cli(capsys, "verify", "--id", "thm2", *argv)
        assert (code, out) == (2, ""), argv
        assert what in err, argv
    # one --tau pins tau; without one the default plan's first tau is used
    for argv, tau in ((("--tau", "0,2"), [0.0, 2.0]), ((), [0.0, 1.1])):
        code, out, _ = run_cli(capsys, "verify", "--id", "thm2", "--x", "1,0",
                               "--y", "0.5,0", "--format", "json", *argv)
        assert code == 0
        assert json.loads(out)[0]["params"]["tau"] == tau


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
    code, out, _ = run_cli(capsys, "verify", "--id", "thm2",
                           "--x", "pi*0.25,0", "--y", "pi*0.25,0")
    assert code == 0
    assert "pass" in out


def test_verify_pinned_f_constancy(capsys):
    # the probe at one x: its y and its quotient's target 1 are fixed
    code, out, _ = run_cli(capsys, "verify", "--id", "f_constancy", "--x", "0.5,0.1")
    assert code == 0
    assert "samples=1 " in out
    code, out, err = run_cli(capsys, "verify", "--id", "f_constancy",
                             "--x", "0.5,0.1", "--y", "0.7,0")
    assert (code, out) == (2, "")
    assert "takes x only, not y" in err
    assert numeric_residual("f_constancy", 0.5 + 0.1j, tau=PROBE_TAU) <= 1e-10


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


def test_plan_tau_whose_nome_rounds_to_1_is_a_domain_error(capsys):
    # make_param rejects this tau; the plan must too, before any sampling,
    # so it is not reported as failed identities
    for argv in (("verify", "--id", "thm2"), ("suite", "--count", "2")):
        code, out, err = run_cli(capsys, *argv, "--tau", "0,1e-300")
        assert code == 2 and out == "", argv
        assert "|q| rounds to 1 in double precision" in err, argv


def test_tau_whose_double_is_not_finite_is_a_domain_error(capsys):
    # the plan checks 2*tau as well as tau, so the identity does not take
    # the blame for 2*tau
    for argv in (("verify", "--id", "thm2", "--count", "3", "--tau", "1e308,1e308"),
                 ("verify", "--id", "thm2", "--count", "3", "--tau", "0,1e308"),
                 ("verify", "--id", "thm2", "--x", "0.5,0", "--tau", "1e308,1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "is too large: 2*tau is not finite in double precision" in err, argv
    # tau itself only needs Re tau mod 8, so a huge Re tau evaluates
    reduced = "%r,1" % math.fmod(6e307, 8.0)
    outs = [run_cli(capsys, "eval", "--fn", "theta3", "--z", "0.3,0", "--tau", tau)
            for tau in ("6e307,1", reduced)]
    assert outs[0] == outs[1] and outs[0][0] == 0


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
