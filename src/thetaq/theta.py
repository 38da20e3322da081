"""Numeric evaluation of the four Jacobi theta functions.

Two independent paths are provided:

* series  -- the defining bilateral sums, e.g.
             theta3(z|tau) = sum_k q^(k^2) e^(2kzi),
             theta1(z|tau) = -i q^(1/4) sum_k (-1)^k q^(k(k+1)) e^((2k+1)zi),
             summed in symmetric pairs until a geometric tail bound meets
             the policy tolerance;
* product -- the infinite product forms built from q-shifted factorials,
             e.g. theta4(z|tau) = (q^2;q^2) (q e^(2zi);q^2) (q e^(-2zi);q^2).

Arguments are never reduced implicitly.  For z far outside the fundamental
box use reduce_argument first; evaluation raises ConvergenceError rather
than silently losing precision.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .params import (
    DEFAULT_POLICY,
    ModularParam,
    TruncationPolicy,
    check_kind,
)

# Sign of theta_k under z -> z + pi and (up to q^-1 e^-2zi) under z -> z + pi*tau.
PI_SHIFT_SIGN = {1: -1, 2: -1, 3: 1, 4: 1}
PI_TAU_SHIFT_SIGN = {1: -1, 2: 1, 3: 1, 4: -1}

# z -> z + pi*tau/2 swaps kinds; the multiplier is B = q^(-1/4) e^(-iz),
# times i for the rows that map between kind 1 and kind 4.
HALF_PERIOD_MAP = {1: 4, 2: 3, 3: 2, 4: 1}
HALF_PERIOD_HAS_I = {1: True, 2: False, 3: False, 4: True}


@dataclass(frozen=True)
class ShiftResult:
    """Outcome of an argument shift: theta_old(...) = multiplier * theta_new(new_z)."""

    new_kind: int
    new_z: complex
    multiplier: complex


# log of the largest finite double
_LN_DOUBLE_MAX = math.log(sys.float_info.max)


def _overflow(kind: int, z: complex, path: str) -> ConvergenceError:
    return ConvergenceError("theta%d %s overflowed double range at z = %r "
                            "(reduce the argument first)" % (kind, path, z))


def _check_exp_range(kind: int, z: complex, scale: int, path: str) -> None:
    """Raise before exp(scale*i*z) or its inverse leaves double range."""
    if abs(z.imag) * scale > _LN_DOUBLE_MAX:
        raise _overflow(kind, z, path)


def theta_sum(kind: int, z: complex, p: ModularParam,
              policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """The bare lattice sum of theta_kind, without the q^(1/4) prefactors.

    For kinds 3 and 4 this is the full theta value.  For kind 1 multiply by
    -i*q^(1/4), for kind 2 by q^(1/4).  Exposed separately because theta
    quotients (q-trigonometric functions) cancel those prefactors exactly,
    which matters when q^(1/4) underflows.
    """
    check_kind(kind)
    # the largest argument factor is |e^(iz)|^2 for kinds 3, 4 and |e^(iz)|
    # for kinds 1, 2; past double range exp overflows or 1/e^(2iz) divides by 0
    _check_exp_range(kind, z, 2 if kind in (3, 4) else 1, "series")
    q = p.q
    if abs(q) == 0.0:
        # nome underflowed (huge Im tau); the q -> 0 limit is the correctly
        # rounded value: only the innermost summation indices survive
        if kind in (3, 4):
            return 1 + 0j
        u = cmath.exp(1j * z)
        return u - 1 / u if kind == 1 else u + 1 / u
    # tail bounds live in log space so huge |Im z| cannot overflow a float
    ln_q = math.log(abs(q))
    ln_eps = math.log(policy.eps)
    imz2 = 2.0 * abs(z.imag)   # log of the growth factor |e^(2zi)|^(+-1)

    def tail_met(ln_bound: float, ln_ratio: float) -> bool:
        if ln_ratio >= 0.0:
            return False
        ratio = math.exp(ln_ratio)
        return ln_bound + ln_ratio - math.log1p(-ratio) < ln_eps

    def finished(total: complex) -> complex:
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            raise _overflow(kind, z, "series")
        return total

    if kind in (3, 4):
        w = cmath.exp(2j * z)
        winv = 1 / w
        sign = -1 if kind == 4 else 1
        total = 1 + 0j
        wk = 1 + 0j
        wik = 1 + 0j
        for k in range(1, policy.max_terms + 1):
            wk *= w
            wik *= winv
            qk = q ** (k * k)
            s = sign if k % 2 else 1
            total += s * qk * (wk + wik)
            ln_bound = math.log(2.0) + (k * k) * ln_q + k * imz2
            ln_ratio = (2 * k + 1) * ln_q + imz2
            if tail_met(ln_bound, ln_ratio):
                return finished(total)
        raise ConvergenceError(
            "theta%d series did not meet eps=%g in %d terms (reduce the argument?)"
            % (kind, policy.eps, policy.max_terms))

    # kinds 1 and 2: terms e^((2k+1)zi) paired as k and -k-1
    u = cmath.exp(1j * z)
    uinv = 1 / u
    total = 0 + 0j
    up = u        # u^(2k+1)
    um = uinv     # u^-(2k+1)
    for k in range(0, policy.max_terms + 1):
        qk = q ** (k * (k + 1))
        if kind == 1:
            pair = qk * (up - um)
            total += -pair if k % 2 else pair
        else:
            total += qk * (up + um)
        ln_bound = math.log(2.0) + (k * (k + 1)) * ln_q + (k + 0.5) * imz2
        ln_ratio = (2 * k + 2) * ln_q + imz2
        if tail_met(ln_bound, ln_ratio):
            return finished(total)
        up *= u * u
        um *= uinv * uinv
    raise ConvergenceError(
        "theta%d series did not meet eps=%g in %d terms (reduce the argument?)"
        % (kind, policy.eps, policy.max_terms))


def qpochhammer(a: complex, q: complex,
                policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """The q-shifted factorial (a;q)_inf = prod_{n>=0} (1 - a q^n).

    Truncated once the remaining logarithmic tail |a| |q|^n / (1 - |q|)
    drops below the policy tolerance.
    """
    q = complex(q)
    aq = abs(q)
    if aq >= 1:
        raise DomainError("q-Pochhammer needs |q| < 1, got |q| = %g" % aq)
    a = complex(a)
    prod = 1 + 0j
    term = a
    for _ in range(policy.max_terms):
        if abs(term) / (1.0 - aq) < policy.eps:
            return prod
        prod *= 1 - term
        term *= q
    raise ConvergenceError(
        "(a;q)_inf with |a|=%g, |q|=%g needs more than %d factors"
        % (abs(a), aq, policy.max_terms))


def theta_eval(kind: int, z: complex, p: ModularParam,
               policy: TruncationPolicy = DEFAULT_POLICY,
               method: str = "series") -> complex:
    """Evaluate theta_kind(z|tau) by the series or the product path."""
    check_kind(kind)
    z = complex(z)
    if method == "series":
        s = theta_sum(kind, z, p, policy)
        if kind == 1:
            return -1j * p.q_quarter * s
        if kind == 2:
            return p.q_quarter * s
        return s
    if method != "product":
        raise DomainError("method must be 'series' or 'product', got %r" % (method,))

    # every kind's product carries e^(2iz) and its inverse
    _check_exp_range(kind, z, 2, "product")
    q = p.q
    q2 = q * q
    w = cmath.exp(2j * z)
    winv = 1 / w
    base = qpochhammer(q2, q2, policy)
    if kind == 1:
        value = (2 * p.q_quarter * cmath.sin(z) * base
                 * qpochhammer(q2 * w, q2, policy)
                 * qpochhammer(q2 * winv, q2, policy))
    elif kind == 2:
        value = (2 * p.q_quarter * cmath.cos(z) * base
                 * qpochhammer(-q2 * w, q2, policy)
                 * qpochhammer(-q2 * winv, q2, policy))
    elif kind == 3:
        value = (base * qpochhammer(-q * w, q2, policy)
                 * qpochhammer(-q * winv, q2, policy))
    else:
        value = (base * qpochhammer(q * w, q2, policy)
                 * qpochhammer(q * winv, q2, policy))
    # e^(2iz) is in range, but the partial products can still overflow
    if not cmath.isfinite(value):
        raise _overflow(kind, z, "product")
    return value


def theta_null(j: int, p: ModularParam,
               policy: TruncationPolicy = DEFAULT_POLICY,
               method: str = "series") -> complex:
    """Theta constant: theta_j(0|tau) for j in {2, 3, 4}."""
    if j not in (2, 3, 4):
        raise DomainError("theta null is used for j in {2,3,4}, got %r" % (j,))
    return theta_eval(j, 0.0, p, policy, method)


def reduce_argument(kind: int, z: complex, p: ModularParam) -> ShiftResult:
    """Pull z into the fundamental box by full-period shifts.

    Returns (kind, z_red, m) with z = z_red + a*pi + b*pi*tau for integers
    a, b chosen so |Re z_red| <= pi/2 and |Im z_red| <= pi*Im(tau)/2, and

        theta_kind(z|tau) = m * theta_kind(z_red|tau),
        m = s_pi^a * s_tau^b * q^(-b^2) * e^(-2ib*z_red).
    """
    check_kind(kind)
    z = complex(z)
    b = round(z.imag / (math.pi * p.tau.imag))
    a = round((z.real - b * math.pi * p.tau.real) / math.pi)
    z_red = z - a * math.pi - b * math.pi * p.tau
    mult = complex(PI_SHIFT_SIGN[kind] ** (a & 1) * PI_TAU_SHIFT_SIGN[kind] ** (b & 1))
    if b:
        mult *= p.q ** (-b * b) * cmath.exp(-2j * b * z_red)
    return ShiftResult(new_kind=kind, new_z=z_red, multiplier=mult)


def half_period_shift(kind: int, z: complex, p: ModularParam) -> ShiftResult:
    """Shift by the half period pi*tau/2, swapping the theta kind:

        theta_kind(z + pi*tau/2 | tau) = multiplier * theta_new(z | tau)

    with kinds mapped 1->4, 2->3, 3->2, 4->1 and multiplier i*B, B, B, i*B
    where B = q^(-1/4) e^(-iz).
    """
    check_kind(kind)
    z = complex(z)
    mult = cmath.exp(-1j * z) / p.q_quarter
    if HALF_PERIOD_HAS_I[kind]:
        mult *= 1j
    return ShiftResult(new_kind=HALF_PERIOD_MAP[kind], new_z=z, multiplier=mult)
