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
q^a = exp(i*pi*tau*a) from the ModularParam's tau, never from Log q (which
is i*pi*tau only while |Re tau| < 1).  The branch is checked, not proven: at
the default plan's tau, at CI's off-plan tau (Re tau 1.3 and 9.3), and in
tier-1 against mpmath at Re tau up to 1e12.
Where |Re tau| > 8 the exponents are formed from w in exact rationals and
Re tau * a is reduced mod 2 before one rounding, so q^a keeps its digits
(sin_q within 1e-15 of a 300-bit product at tau = 1e12 + i).  The function
is still ill-conditioned in w there: the phase of q^((w-1/2)^2) has
derivative 2*pi*|tau|*|w - 1/2|, so the value is right at the double w, not
at the caller's z/pi before it was rounded.

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
        return ssn_ccs(z, p)[kind == "ccs_q"]
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


def ssn_ccs(z: complex, p: ModularParam) -> tuple:
    """(ssn_q, ccs_q) = (theta4(z|tau'), theta3(z|tau')) / theta3(0|tau'),
    from one theta_sum."""
    pp = tau_prime(p)
    s, t = theta_sum(4, z, pp)
    null3 = theta_sum_null(3, pp)
    return s / null3, t / null3


def _nome_power(p: ModularParam, a) -> complex:
    """q^a as exp(i*pi*tau*a): the branch follows tau, never Log q.

    a is a complex number, or an _Exact one where |Re tau| > 8: there
    i*pi*tau*a = pi*(-(x Im a + y Re a) + i (x Re a - y Im a)) at tau = x + iy
    is formed in rationals, its phase reduced mod 2 exactly, and each part
    rounded once.  Raises RangeError when q^a leaves double range (a huge
    argument, or a large Im tau); the message names a unless it is exact.
    """
    try:
        if not isinstance(a, _Exact):
            return cmath.exp(p.i_pi_tau * a)
        t = _Exact.of(p.tau)
        return cmath.exp(cmath.pi * complex(-float(t.re * a.im + t.im * a.re),
                                            float((t.re * a.re - t.im * a.im) % 2)))
    except (ValueError, OverflowError):
        # an exact a can run to hundreds of digits; callers name w
        raise RangeError("q^a overflowed double range" + (
            "" if isinstance(a, _Exact) else " for a = %r" % (a,))) from None


class _Exact:
    """A complex number with Fraction parts: the product path's w where
    |Re tau| > 8, so that the exponents it forms (2 - 2w, 2w, (w - 1/2)^2,
    +-(1/4 - w), each at w or w + 1/2) are exact.  u + x, u - x, x - u,
    u * x and x * u take an int, float or complex x exactly."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    @staticmethod
    def of(value) -> "_Exact":
        if isinstance(value, _Exact):
            return value
        from fractions import Fraction
        value = complex(value)
        return _Exact(Fraction(value.real), Fraction(value.imag))

    def __add__(self, other) -> "_Exact":
        other = _Exact.of(other)
        return _Exact(self.re + other.re, self.im + other.im)

    def __sub__(self, other) -> "_Exact":
        return self + -1 * _Exact.of(other)

    def __rsub__(self, other) -> "_Exact":
        return _Exact.of(other) - self

    def __mul__(self, other) -> "_Exact":
        other = _Exact.of(other)
        return _Exact(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    __rmul__ = __mul__


def _finite(value: complex, what: str) -> complex:
    """value, or RangeError when it left double range (inf, or nan from inf * 0)."""
    if not cmath.isfinite(value):
        raise RangeError("%s overflowed double range" % what)
    return value


def _sin_q_factors(w: complex, p: ModularParam) -> complex:
    """(q^(2-2w);q^2) (q^(2w);q^2), the w-dependent factors of sin_q(pi w).

    Raises DomainError unless 0 < |q| < 1, and RangeError when the product
    leaves double range (a quotient of such products would be nan).
    """
    if p.q == 0 or abs(p.q) >= 1:
        raise DomainError("product form needs 0 < |q| < 1, got |q| = %g" % abs(p.q))
    nome = p.q2_context
    value = (qpochhammer(_nome_power(p, 2 - 2 * w), nome.q, nome)
             * qpochhammer(_nome_power(p, 2 * w), nome.q, nome))
    return _finite(value, "sin_q(pi*w) factors")


def _sin_q(w: complex, p: ModularParam) -> complex:
    """sin_q(pi w); the z-free (q;q^2)^2 is computed once per nome, in p.products.

    Raises RangeError when the value leaves double range."""
    num = _sin_q_factors(w, p)
    den = p.products.get("sin_q")
    if den is None:
        nome = p.q2_context
        den = p.products["sin_q"] = qpochhammer(p.q, nome.q, nome) ** 2
    d = w - 0.5
    return _finite(num / den * _nome_power(p, d * d), "sin_q(pi*w)")


def qtrig_product_any(kind: str, z_over_pi: complex, p: ModularParam) -> complex:
    """Evaluate any q-trig function at pi*z_over_pi by the product forms.

    This path never touches theta functions, so it is fully independent of
    qtrig_theta.  cos_q(pi w) = sin_q(pi (w + 1/2)) term for term, so both
    come from one builder; tan_q and cot_q are its quotient with (q;q^2)^2
    cancelled, and ssn_q = sin_{q^2} / sin_q, ccs_q = cos_{q^2} / cos_q take
    the q^2 side at qsquared_param(p).  Raises PoleError when a denominator
    vanishes, DomainError when the nome q underflows to 0 and RangeError
    when only q^2 does or a factor product or a value leaves double range;
    a RangeError names z_over_pi as w and the caller's tau, whichever
    shifted argument or doubled tau overflowed.
    """
    check_qtrig_kind(kind)
    w = complex(z_over_pi)
    # the exponents are formed from u, exact where a large Re tau makes q^a
    # ill-conditioned in them (see _nome_power); messages name w
    u = _Exact.of(w) if abs(p.tau.real) > 8 and cmath.isfinite(w) else w
    side = ""
    try:
        v = u + 0.5 if kind in ("cos_q", "ccs_q") else u
        if kind in ("sin_q", "cos_q"):
            return _sin_q(v, p)
        power = None
        if kind in ("ssn_q", "ccs_q"):
            den = _sin_q(v, p)
            side = "on the nome-q^2 side of "
            double = qsquared_param(p)
            if not double.q:
                # Im tau above about 118.5: q is in range, q^2 is not
                raise RangeError("nome q^2 underflowed to 0")
            num = _sin_q(v, double)
        else:
            num, den, power = _sin_q_factors(u, p), _sin_q_factors(u + 0.5, p), 0.25 - u
            if kind == "cot_q":
                num, den, power = den, num, u - 0.25
        if abs(den) < POLE_RATIO * max(1.0, abs(num)):
            raise PoleError("%s pole at pi*%r" % (kind, w))
        value = num / den
        if power is None:
            return value    # the pole test bounds the quotient by 1/POLE_RATIO
        return _finite(value * _nome_power(p, power), kind)
    except RangeError as exc:   # the helpers say what overflowed, this says where
        raise RangeError("%s at w = %r, %stau = %r" % (exc, w, side, p.tau)) from None


def qtrig_crosscheck(kind: str, z: complex, p: ModularParam) -> float:
    """|theta path - product path| for one function at one point.

    The product path takes p itself and the argument as z/pi; the theta
    path evaluates at tau' = -1/tau.  Propagates PoleError.
    """
    via_theta = qtrig_theta(kind, z, p)
    return abs(via_theta - qtrig_product_any(kind, complex(z) / cmath.pi, p))
