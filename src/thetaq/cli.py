"""Command-line front end: evaluate, verify, certify, run the full suite.

Complex numbers are written as "re,im"; either component may use a pi*
literal prefix, so --z pi*0.25,0 is z = pi/4.  A value that starts with a
minus sign takes the "=" form, --z=-0.3,0.1: argparse reads --z -0.3,0.1 as
an option with no value.  Exit codes: 0 pass, 1 identity failure, 2 domain
error, 3 numeric error (convergence/pole), 4 unsupported mode, 5 internal
error (any other exception).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .errors import ConvergenceError, DomainError, PoleError, UnsupportedFormal
from .identities import (
    DEFAULT_PLAN,
    IDENTITY_IDS,
    IdentityReport,
    SamplePlan,
    certificate_text,
    numeric_residual,
    run_suite,
    sample_point,
    tolerance_for,
    verify_numeric,
)
from .params import make_param
from .qtrig import QTRIG_KINDS, qtrig_product_any, qtrig_theta
from .theta import theta_eval

THETA_NAMES = {"theta1": 1, "theta2": 2, "theta3": 3, "theta4": 4}


def parse_complex(text: str) -> complex:
    """Parse "re,im" (or bare "re") with optional pi* prefixes."""

    def one(piece: str) -> float:
        piece = piece.strip()
        scale = 1.0
        if piece.startswith("pi*"):
            scale, piece = math.pi, piece[3:]
        try:
            value = scale * float(piece)
        except ValueError:
            raise DomainError("cannot parse %r in complex value %r"
                              % (piece, text)) from None
        if not math.isfinite(value):
            raise DomainError("complex value %r must be finite" % (text,))
        return value

    parts = text.split(",")
    if len(parts) > 2:
        raise DomainError("complex value must be 're,im', got %r" % text)
    re = one(parts[0])
    im = one(parts[1]) if len(parts) == 2 else 0.0
    return complex(re, im)


def format_value(value: complex) -> str:
    """15 significant digits; drop an imaginary part below 1e-13 of |value|."""
    if abs(value.imag) <= 1e-13 * abs(value):
        return "%.15g" % value.real
    return "%.15g%+.15gj" % (value.real, value.imag)


def _report_lines(report: IdentityReport) -> list:
    bits = ["%-20s %-8s %s" % (report.id, report.mode, report.status)]
    if report.mode == "numeric":
        line = "  samples=%d max_residual=%.3e" % (report.samples,
                                                    report.max_abs_residual)
        if "log10_residuals" in report.params:
            line += " log10_residual=%.6f" % report.params["log10_residuals"][-1]
        bits.append(line)
    else:
        bits.append("  certified_order=q^%d" % report.certified_order)
    for fail in report.failures:
        bits.append("  failure: %s" % json.dumps(fail, sort_keys=True))
    return bits


def render_reports(reports: list, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([dataclasses.asdict(r) for r in reports],
                          sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        rows = ["id,mode,samples,certified_order,max_abs_residual,status"]
        for r in reports:
            rows.append("%s,%s,%d,%d,%r,%s" % (r.id, r.mode, r.samples,
                                               r.certified_order,
                                               r.max_abs_residual, r.status))
        return "\n".join(rows) + "\n"
    lines = []
    for r in reports:
        lines.extend(_report_lines(r))
    return "\n".join(lines) + "\n"


def _emit(text: str, path) -> None:
    if path:
        try:
            with open(path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise DomainError("cannot write %s: %s"
                              % (path, exc.strerror or exc)) from None
    sys.stdout.write(text)


def cmd_eval(args) -> int:
    z = parse_complex(args.z)
    p = make_param(parse_complex(args.tau))
    if args.fn in THETA_NAMES:
        value = theta_eval(THETA_NAMES[args.fn], z, p, method=args.method)
    elif args.fn in QTRIG_KINDS and args.method == "product":
        value = qtrig_product_any(args.fn, z / math.pi, p)
    elif args.fn in QTRIG_KINDS:
        value = qtrig_theta(args.fn, z, p)
    else:
        raise DomainError("unknown function %r (theta1..theta4 or %s)"
                          % (args.fn, ", ".join(QTRIG_KINDS)))
    print(format_value(value))
    return 0


def cmd_verify(args) -> int:
    plan = _plan_from(args)
    if args.x is None:
        if args.y is not None:
            raise DomainError("--y pins a sample point only together with --x")
        report = verify_numeric(args.id, plan, args.tol)
    else:
        if args.seed is not None or args.count is not None:
            raise DomainError("a pinned sample point takes no --seed or --count")
        if args.tau is not None and len(args.tau) > 1:
            raise DomainError("a pinned sample point takes one --tau, got %d"
                              % len(args.tau))
        tol = tolerance_for(args.id, args.tol)
        x = parse_complex(args.x)
        y = parse_complex(args.y) if args.y is not None else None
        tau = complex(plan.tau_set[0])
        res = numeric_residual(args.id, x, y, tau)
        report = IdentityReport(
            id=args.id, mode="numeric",
            status="pass" if res <= tol else "fail",
            samples=1, max_abs_residual=res,
            params={"pinned": True, **sample_point(x, y, tau), "tolerance": tol})
    _emit(render_reports([report], args.format), args.output)
    return 0 if report.passed else 1


def cmd_certify(args) -> int:
    report, text = certificate_text(args.id, args.order)
    _emit(text + "\n", args.output)
    return 0 if report.passed else 1


def cmd_suite(args) -> int:
    reports = run_suite(_plan_from(args), args.tol, args.order)
    text = render_reports(reports, args.format)
    summary = "%d/%d checks passed\n" % (sum(r.passed for r in reports),
                                         len(reports))
    _emit(text + summary, args.output)
    return 0 if all(r.passed for r in reports) else 1


def _plan_from(args) -> SamplePlan:
    taus = None if args.tau is None else tuple(parse_complex(t) for t in args.tau)
    changes = {"seed": args.seed, "count": args.count, "tau_set": taus}
    return dataclasses.replace(DEFAULT_PLAN, **{
        name: value for name, value in changes.items() if value is not None})


def _add_plan_args(sub) -> None:
    sub.add_argument("--seed", type=int, default=None, help="sampling seed")
    sub.add_argument("--count", type=int, default=None, help="sample count")
    sub.add_argument("--tau", action="append", default=None, metavar="RE,IM",
                     help="override the tau set (repeatable)")
    sub.add_argument("--tol", type=float, default=None,
                     help="residual tolerance (default: per identity)")


def _add_output_args(sub) -> None:
    sub.add_argument("--output", default=None, help="also write the report here")
    sub.add_argument("--format", choices=("json", "csv", "text"),
                     default="text", help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetaq",
        description="Jacobi theta / q-trigonometric evaluation and "
                    "identity verification")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate one function at one point")
    ev.add_argument("--fn", required=True,
                    help="theta1..theta4 or a q-trig name like tan_q")
    ev.add_argument("--z", required=True, metavar="RE,IM")
    ev.add_argument("--tau", required=True, metavar="RE,IM")
    ev.add_argument("--method", choices=("series", "product"),
                    default="series",
                    help="series: theta sums (theta quotients at -1/tau for "
                         "q-trig names); product: infinite products in q")
    ev.set_defaults(func=cmd_eval)

    vf = sub.add_parser("verify", help="numeric check of one identity")
    vf.add_argument("--id", required=True, choices=IDENTITY_IDS)
    vf.add_argument("--x", default=None, metavar="RE,IM",
                    help="pin the sample point instead of sampling")
    vf.add_argument("--y", default=None, metavar="RE,IM")
    _add_plan_args(vf)
    _add_output_args(vf)
    vf.set_defaults(func=cmd_verify)

    ct = sub.add_parser("certify", help="exact series certificate")
    ct.add_argument("--id", required=True, choices=IDENTITY_IDS)
    ct.add_argument("--order", type=int, default=None,
                    help="certification order in whole powers of q")
    ct.add_argument("--output", default=None)
    ct.set_defaults(func=cmd_certify)

    st = sub.add_parser("suite", help="run every identity in every mode")
    st.add_argument("--order", type=int, default=None,
                    help="formal certification order")
    _add_plan_args(st)
    _add_output_args(st)
    st.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedFormal as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except (ConvergenceError, PoleError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash must not read as exit 1, "identity failure"
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
