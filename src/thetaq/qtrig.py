"""Gosper-style q-trigonometric functions with two independent paths.

Every function is available as

* a theta quotient at the companion parameter tau' = -1/tau, e.g.
  sin_q z  = theta1(z|tau') / theta2(0|tau'),
  tan_q z  = theta1(z|tau') / theta2(z|tau'),
  ssn_q z  = theta4(z|tau') / theta3(0|tau'),
* a q-shifted-factorial product in the nome q = exp(i*pi*tau), e.g.
  sin_q(pi w) = (q^(2-2w);q^2) (q^(2w);q^2) / (q;q^2)^2 * q^((w-1/2)^2),

and the two parameterizations agree; qtrig_crosscheck measures that
agreement, which is itself one of the verified claims.

The theta-quotient path cancels the q^(1/4) prefactors analytically, so it
stays well conditioned even when tau' has a huge imaginary part (nome q
close to 1).  Fractional powers of complex q use the principal branch
throughout, which assumes |Re tau| < 1 so that Log q = i*pi*tau.

ssn_q and ccs_q are the quotients sin_{q^2}/sin_q and cos_{q^2}/cos_q; the
nome-q^2 functions correspond to doubling tau.
"""

from __future__ import annotations

import cmath

from .errors import DomainError, PoleError
from .params import (
    DEFAULT_POLICY,
    ModularParam,
    TruncationPolicy,
    make_param,
    principal_power,
    tau_prime,
)
from .theta import qpochhammer, theta_sum

QTRIG_KINDS = ("sin_q", "cos_q", "tan_q", "cot_q", "ssn_q", "ccs_q")
PRODUCT_KINDS = ("sin_q", "cos_q", "tan_q", "cot_q")

# |denominator| below POLE_RATIO times its natural scale counts as a pole
POLE_RATIO = 1e-10


def check_qtrig_kind(kind: str) -> str:
    if kind not in QTRIG_KINDS:
        raise DomainError("unknown q-trig function %r (choose from %s)"
                          % (kind, ", ".join(QTRIG_KINDS)))
    return kind


def qtrig_theta(kind: str, z: complex, p: ModularParam,
                policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Evaluate a q-trig function as a theta quotient at tau' = -1/tau."""
    check_qtrig_kind(kind)
    z = complex(z)
    pp = tau_prime(p)
    if kind == "ssn_q":
        return theta_sum(4, z, pp, policy) / theta_sum(3, 0.0, pp, policy)
    if kind == "ccs_q":
        return theta_sum(3, z, pp, policy) / theta_sum(3, 0.0, pp, policy)

    null2 = theta_sum(2, 0.0, pp, policy)  # prefactor-free theta2 null
    if kind == "sin_q":
        return -1j * theta_sum(1, z, pp, policy) / null2
    if kind == "cos_q":
        return theta_sum(2, z, pp, policy) / null2
    eps_pole = POLE_RATIO * abs(null2)
    if kind == "tan_q":
        den = theta_sum(2, z, pp, policy)
        if abs(den) < eps_pole:
            raise PoleError("tan_q pole: theta2(z|tau') ~ 0 at z = %r" % (z,))
        return -1j * theta_sum(1, z, pp, policy) / den
    den = theta_sum(1, z, pp, policy)
    if abs(den) < eps_pole:
        raise PoleError("cot_q pole: theta1(z|tau') ~ 0 at z = %r" % (z,))
    return 1j * theta_sum(2, z, pp, policy) / den


def _sin_q_product(w: complex, q: complex, policy: TruncationPolicy) -> complex:
    q2 = q * q
    num = (qpochhammer(principal_power(q, 2 - 2 * w), q2, policy)
           * qpochhammer(principal_power(q, 2 * w), q2, policy))
    den = qpochhammer(q, q2, policy) ** 2
    return num / den * principal_power(q, (w - 0.5) ** 2)


def _cos_q_product(w: complex, q: complex, policy: TruncationPolicy) -> complex:
    q2 = q * q
    num = (qpochhammer(principal_power(q, 1 - 2 * w), q2, policy)
           * qpochhammer(principal_power(q, 1 + 2 * w), q2, policy))
    den = qpochhammer(q, q2, policy) ** 2
    return num / den * principal_power(q, w * w)


def qtrig_product(kind: str, z_over_pi: complex, q: complex,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Evaluate sin_q/cos_q/tan_q/cot_q at pi*z_over_pi by the product forms.

    This path never touches theta functions, so it is fully independent of
    qtrig_theta.  Raises PoleError when a denominator product vanishes and
    DomainError unless 0 < |q| < 1.
    """
    if kind not in PRODUCT_KINDS:
        raise DomainError("product form is defined for %s, got %r"
                          % (", ".join(PRODUCT_KINDS), kind))
    q = complex(q)
    if q == 0 or abs(q) >= 1:
        raise DomainError("product form needs 0 < |q| < 1, got |q| = %g" % abs(q))
    w = complex(z_over_pi)
    q2 = q * q

    if kind == "sin_q":
        return _sin_q_product(w, q, policy)
    if kind == "cos_q":
        return _cos_q_product(w, q, policy)

    tan_num = (qpochhammer(principal_power(q, 2 - 2 * w), q2, policy)
               * qpochhammer(principal_power(q, 2 * w), q2, policy))
    tan_den = (qpochhammer(principal_power(q, 1 - 2 * w), q2, policy)
               * qpochhammer(principal_power(q, 1 + 2 * w), q2, policy))
    if kind == "tan_q":
        if abs(tan_den) < POLE_RATIO * max(1.0, abs(tan_num)):
            raise PoleError("tan_q pole at pi*%r" % (w,))
        return tan_num / tan_den * principal_power(q, 0.25 - w)
    if abs(tan_num) < POLE_RATIO * max(1.0, abs(tan_den)):
        raise PoleError("cot_q pole at pi*%r" % (w,))
    return tan_den / tan_num * principal_power(q, w - 0.25)


def qtrig_product_any(kind: str, z_over_pi: complex, q: complex,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Product-path value for every q-trig kind.

    ssn_q and ccs_q are built from their defining quotients, e.g.
    ssn_q = sin_{q^2} / sin_q, with both pieces on the product path.
    """
    check_qtrig_kind(kind)
    if kind in PRODUCT_KINDS:
        return qtrig_product(kind, z_over_pi, q, policy)
    q = complex(q)
    w = complex(z_over_pi)
    if kind == "ssn_q":
        den = qtrig_product("sin_q", w, q, policy)
        num = qtrig_product("sin_q", w, q * q, policy)
    else:
        den = qtrig_product("cos_q", w, q, policy)
        num = qtrig_product("cos_q", w, q * q, policy)
    if abs(den) < POLE_RATIO * max(1.0, abs(num)):
        raise PoleError("%s pole at pi*%r" % (kind, w))
    return num / den


def qtrig_crosscheck(kind: str, z: complex, p: ModularParam,
                     policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """|theta path - product path| for one function at one point.

    The product path takes the nome q = exp(i*pi*tau) and the argument as
    z/pi; the theta path evaluates at tau' = -1/tau.  Propagates PoleError.
    """
    check_qtrig_kind(kind)
    z = complex(z)
    via_theta = qtrig_theta(kind, z, p, policy)
    via_product = qtrig_product_any(kind, z / cmath.pi, p.q, policy)
    return abs(via_theta - via_product)


def qsquared_param(p: ModularParam) -> ModularParam:
    """Parameter whose nome is q^2, i.e. tau doubled."""
    return make_param(2 * p.tau)
