"""Gosper-style q-trigonometric functions with two independent paths.

Every function is available as

* a theta quotient at the companion parameter tau' = -1/tau, e.g.
  sin_q z  = theta1(z|tau') / theta2(0|tau'),
  tan_q z  = theta1(z|tau') / theta2(z|tau'),
  ssn_q z  = theta4(z|tau') / theta3(0|tau'),
* a q-shifted-factorial product in the nome q = exp(i*pi*tau), e.g.
  sin_q(pi w) = (q^(2-2w);q^2) (q^(2w);q^2) / (q;q^2)^2 * q^((w-1/2)^2),

and the two parameterizations agree; qtrig_crosscheck measures that
agreement, which is itself one of the verified claims (the suite's
qtrig_bridge identity).

The theta-quotient path cancels the q^(1/4) prefactors analytically, so it
stays well conditioned even when tau' has a huge imaginary part (nome q
close to 1).  The product path writes every fractional nome power as
q^a = exp(i*pi*tau*a), taking tau from the ModularParam, so it holds on the
whole upper half-plane: the principal Log q equals i*pi*tau only while
|Re tau| < 1.

ssn_q and ccs_q are the quotients sin_{q^2}/sin_q and cos_{q^2}/cos_q; the
nome-q^2 functions correspond to doubling tau.
"""

from __future__ import annotations

import cmath

from .errors import DomainError, PoleError, RangeError
from .params import (
    ModularParam,
    make_param,  # unused here, but perfbench's tracer rebinds qtrig.make_param
    qsquared_param,
    tau_prime,
)
from .theta import qpochhammer, theta_sum, theta_sum_null

QTRIG_KINDS = ("sin_q", "cos_q", "tan_q", "cot_q", "ssn_q", "ccs_q")

# |denominator| below POLE_RATIO times its natural scale counts as a pole
POLE_RATIO = 1e-10


def check_qtrig_kind(kind: str) -> str:
    if kind not in QTRIG_KINDS:
        raise DomainError("unknown q-trig function %r (choose from %s)"
                          % (kind, ", ".join(QTRIG_KINDS)))
    return kind


def qtrig_theta(kind: str, z: complex, p: ModularParam) -> complex:
    """Evaluate a q-trig function as a theta quotient at tau' = -1/tau.

    The z-free denominators theta2(0|tau') and theta3(0|tau') come from the
    null cache of tau' (theta_sum_null), so each is summed once per tau'.
    tan_q, cot_q sum both thetas at once, denominator first.
    """
    if kind not in QTRIG_KINDS:
        check_qtrig_kind(kind)
    z = complex(z)
    if kind in ("ssn_q", "ccs_q"):
        return ssn_ccs(z, p, kind)[0]
    pp = tau_prime(p)
    null2 = theta_sum_null(2, pp)  # prefactor-free theta2 null
    if kind == "sin_q":
        return -1j * theta_sum(1, z, pp)[0] / null2
    if kind == "cos_q":
        return theta_sum(2, z, pp)[0] / null2
    eps_pole = POLE_RATIO * abs(null2)
    den_kind = 2 if kind == "tan_q" else 1
    den, num = theta_sum(den_kind, z, pp)
    if abs(den) < eps_pole:
        raise PoleError("%s pole: theta%d(z|tau') ~ 0 at z = %r" % (kind, den_kind, z))
    return (-1j if den_kind == 2 else 1j) * num / den


def ssn_ccs(z: complex, p: ModularParam, lead: str = "ssn_q") -> tuple:
    """(lead, partner) of ssn_q = theta4(z|tau')/theta3(0|tau') and ccs_q =
    theta3(z|tau')/theta3(0|tau'), from one theta_sum led by lead's theta."""
    pp = tau_prime(p)
    s, t = theta_sum(4 if lead == "ssn_q" else 3, z, pp)
    null3 = theta_sum_null(3, pp)
    return s / null3, t / null3


def _nome_power(p: ModularParam, a: complex) -> complex:
    """q^a as exp(i*pi*tau*a): the branch follows tau, never Log q.

    Raises RangeError when q^a leaves double range (a huge argument, or a
    large Im tau).
    """
    try:
        return cmath.exp(1j * cmath.pi * p.tau * a)
    except (ValueError, OverflowError):
        raise RangeError("q^a overflowed double range at a = %r, tau = %r"
                         % (a, p.tau)) from None


def _sin_q_factors(w: complex, p: ModularParam) -> complex:
    """(q^(2-2w);q^2) (q^(2w);q^2), the w-dependent factors of sin_q(pi w).

    Raises DomainError unless 0 < |q| < 1, and RangeError when the product
    leaves double range (a quotient of such products would be nan).
    """
    if p.q == 0 or abs(p.q) >= 1:
        raise DomainError("product form needs 0 < |q| < 1, got |q| = %g" % abs(p.q))
    q2 = p.q * p.q
    value = (qpochhammer(_nome_power(p, 2 - 2 * w), q2, p.q2_logs)
             * qpochhammer(_nome_power(p, 2 * w), q2, p.q2_logs))
    if not cmath.isfinite(value):
        raise RangeError("sin_q(pi*w) factors overflowed double range at w = %r, "
                         "tau = %r" % (w, p.tau))
    return value


def _sin_q(w: complex, p: ModularParam) -> complex:
    """sin_q(pi w); the z-free (q;q^2)^2 is computed once per nome, in p.products."""
    num = _sin_q_factors(w, p)
    den = p.products.get("sin_q")
    if den is None:
        den = p.products["sin_q"] = qpochhammer(p.q, p.q * p.q, p.q2_logs) ** 2
    return num / den * _nome_power(p, (w - 0.5) ** 2)


def qtrig_product_any(kind: str, z_over_pi: complex, p: ModularParam) -> complex:
    """Evaluate any q-trig function at pi*z_over_pi by the product forms.

    This path never touches theta functions, so it is fully independent of
    qtrig_theta.  cos_q(pi w) = sin_q(pi (w + 1/2)) term for term, so both
    come from one builder; tan_q and cot_q are its quotient with (q;q^2)^2
    cancelled, and ssn_q = sin_{q^2} / sin_q, ccs_q = cos_{q^2} / cos_q take
    the q^2 side at qsquared_param(p).  Raises PoleError when a denominator
    vanishes, DomainError when the nome underflows to 0 and RangeError when
    a factor product overflows.
    """
    check_qtrig_kind(kind)
    w = complex(z_over_pi)
    if kind in ("tan_q", "cot_q"):
        tan_num = _sin_q_factors(w, p)
        tan_den = _sin_q_factors(w + 0.5, p)
        if kind == "tan_q":
            if abs(tan_den) < POLE_RATIO * max(1.0, abs(tan_num)):
                raise PoleError("tan_q pole at pi*%r" % (w,))
            return tan_num / tan_den * _nome_power(p, 0.25 - w)
        if abs(tan_num) < POLE_RATIO * max(1.0, abs(tan_den)):
            raise PoleError("cot_q pole at pi*%r" % (w,))
        return tan_den / tan_num * _nome_power(p, w - 0.25)

    v = w + 0.5 if kind in ("cos_q", "ccs_q") else w
    if kind in ("sin_q", "cos_q"):
        return _sin_q(v, p)
    den = _sin_q(v, p)
    num = _sin_q(v, qsquared_param(p))
    if abs(den) < POLE_RATIO * max(1.0, abs(num)):
        raise PoleError("%s pole at pi*%r" % (kind, w))
    return num / den


def qtrig_crosscheck(kind: str, z: complex, p: ModularParam) -> float:
    """|theta path - product path| for one function at one point.

    The product path takes p itself and the argument as z/pi; the theta
    path evaluates at tau' = -1/tau.  Propagates PoleError.
    """
    check_qtrig_kind(kind)
    z = complex(z)
    via_theta = qtrig_theta(kind, z, p)
    via_product = qtrig_product_any(kind, z / cmath.pi, p)
    return abs(via_theta - via_product)
