"""Numeric evaluation of the four Jacobi theta functions.

Two independent paths are provided:

* series  -- the defining bilateral sums, e.g.
             theta3(z|tau) = sum_k q^(k^2) e^(2kzi),
             theta1(z|tau) = -i q^(1/4) sum_k (-1)^k q^(k(k+1)) e^((2k+1)zi),
             summed in symmetric pairs by one loop for all four kinds (the
             kind only sets the index offset, the sign pattern and the
             pairing; see theta_sum) until a geometric tail bound drops
             below params.EPS;
* product -- the infinite product forms built from q-shifted factorials,
             e.g. theta4(z|tau) = (q^2;q^2) (q e^(2zi);q^2) (q e^(-2zi);q^2),
             read for every kind from the one table PRODUCT_FACTOR.

Arguments are never reduced implicitly.  For z far outside the fundamental
box use reduce_argument first; evaluation raises ConvergenceError rather
than silently losing precision.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, RangeError
from .params import (
    EPS,
    LN_EPS,
    MAX_TERMS,
    THETA_KINDS,
    ModularParam,
    check_kind,
    pochhammer_logs,
    theta_term,
)

# Sign of theta_k under z -> z + pi and (up to q^-1 e^-2zi) under z -> z + pi*tau.
PI_SHIFT_SIGN = {1: -1, 2: -1, 3: 1, 4: 1}
PI_TAU_SHIFT_SIGN = {1: -1, 2: 1, 3: 1, 4: -1}

# z -> z + pi*tau/2 swaps kinds; the multiplier is B = q^(-1/4) e^(-iz),
# times i for the rows that map between kind 1 and kind 4.
HALF_PERIOD_MAP = {1: 4, 2: 3, 3: 2, 4: 1}
HALF_PERIOD_HAS_I = {1: True, 2: False, 3: False, 4: True}

# Product forms: theta_k = head * (q^2;q^2) (s q^c e^(2iz);q^2) (s q^c e^(-2iz);q^2)
# with (s, c) = PRODUCT_FACTOR[k]; head is 2 q^(1/4) sin z, 2 q^(1/4) cos z
# for kinds 1, 2 and 1 for kinds 3, 4; (a;q) = prod_{n>=0} (1 - a q^n).
PRODUCT_FACTOR = {1: (1, 2), 2: (-1, 2), 3: (-1, 1), 4: (1, 1)}

# Partner kinds share every lattice term; theta_sum sums both at once.
PARTNER = {1: 2, 2: 1, 3: 4, 4: 3}


@dataclass(frozen=True)
class ShiftResult:
    """Outcome of an argument shift: theta_old(...) = multiplier * theta_new(new_z)."""

    new_kind: int
    new_z: complex
    multiplier: complex


# log of the largest finite double
_LN_DOUBLE_MAX = math.log(sys.float_info.max)
# ln of the factor by which qpochhammer's untested prefix keeps its terms
# above the tail test's threshold; see qpochhammer
PREFIX_MARGIN = 1e-9


def _overflow(kind: int, z: complex, path: str) -> RangeError:
    return RangeError("theta%d %s overflowed double range at z = %r "
                      "(reduce the argument first)" % (kind, path, z))


def range_overflow(what: str, z: complex, p: ModularParam) -> RangeError:
    """what (a shift multiplier, e.g. 1/q once q underflowed to 0 above Im tau
    of about 237, or 1/q^(1/4) above about 948) left double range."""
    return RangeError("%s overflowed double range at z = %r, tau = %r"
                      % (what, z, p.tau))


def theta_sum(kind: int, z: complex, p: ModularParam) -> tuple:
    """The bare lattice sums of theta_kind and of PARTNER[kind], in that
    order, without the q^(1/4) prefactors (see theta_pair).

    For kinds 3 and 4 a sum is the full theta value.  Exposed because theta
    quotients (q-trigonometric functions) cancel the prefactors exactly,
    which matters when q^(1/4) underflows.

    One call sums both of a pair, in one loop per parity.  With odd = 1 for
    kinds 1, 2 and 0 for kinds 3, 4, index k >= 1 - odd contributes

        q^(k(k+odd)) (e^((2k+odd)iz) +- e^(-(2k+odd)iz)),

    the difference for kind 1, a sign (-1)^k for kinds 1 and 4, and the
    k = 0 term of kinds 3, 4 is the 1 the sum starts from.  A term with sign
    -1 is subtracted, which in IEEE arithmetic is adding its negation, so
    each sum keeps the bits of a loop of its own.  It stops once the
    geometric tail past k, first term 2 |q|^(k(k+odd)) e^((2k+odd)|Im z|)
    and ratio r = |q|^(2k+1+odd) e^(2|Im z|), is below EPS.  Errors name
    kind, and the partner only when its sum alone is not finite.

    In log space the tail test is ln_bound + ln r - log1p(-r) < ln eps,
    with ln r = (2k+1+odd) ln|q| + 2|Im z| and ln_bound = ln 2 +
    k(k+odd) ln|q| + (k + odd/2) 2|Im z|.  The power and the k-only parts of
    both logarithms are read from the term table p.terms[odd] (see
    params.theta_term), which this call extends when it needs an entry the
    table lacks, so every call at one nome shares them; the loop adds only
    the z terms.  As -log1p(-r) > 0 for r < 1, the test cannot pass before
    ln_bound + ln r < ln eps does, so log1p and exp run only once that
    cheaper pre-test passes.
    """
    if kind not in THETA_KINDS:
        check_kind(kind)
    odd = 1 if kind < 3 else 0
    imz = abs(z.imag)
    # |e^(iz)|^(2-odd) is the largest factor; past double range exp fails,
    # as it does when (2-odd)*Re z overflows to inf
    if imz * (2 - odd) > _LN_DOUBLE_MAX:
        raise _overflow(kind, z, "series")
    try:
        up = cmath.exp((2 - odd) * 1j * z)    # e^((2k+odd)iz), stepped with k
    except (ValueError, OverflowError):
        raise _overflow(kind, z, "series") from None
    um = 1 / up
    q = p.q
    if not q:
        # nome underflowed (huge Im tau); the q -> 0 limit is the correctly
        # rounded value: only the innermost summation indices survive
        pair = (up - um, up + um) if odd else (1 + 0j, 1 + 0j)
        return pair if kind % 2 else pair[::-1]
    # tail bounds live in log space so huge |Im z| cannot overflow a float
    imz2 = 2.0 * imz   # log of the growth factor |e^(2zi)|^(+-1)
    # the term table grows by slice stores: a thread that extended it first
    # is overwritten with the same entry
    table = p.terms[odd]
    n = len(table)
    if odd:
        # a = theta1's sum, with (-1)^k, b = theta2's; e^((2k+1)iz) steps by e^(2iz)
        a = b = 0j
        step, step_inv = up * up, um * um
        for k in range(MAX_TERMS + 1):
            if k == n:
                table[k:k + 1] = (theta_term(q, p.ln_abs_q, k, 1),)
                n = len(table)
            qk, lnr, lnb, half = table[k]
            if k & 1:
                a -= qk * (up - um)
            else:
                a += qk * (up - um)
            b += qk * (up + um)
            ln_ratio = lnr + imz2
            if ln_ratio < 0.0:
                head = lnb + half * imz2 + ln_ratio
                if head < LN_EPS and head - math.log1p(-math.exp(ln_ratio)) < LN_EPS:
                    return _finished(kind, z, a, b)
            up *= step
            um *= step_inv
    else:
        # a = theta3's sum, b = theta4's, with (-1)^k; e^(2kiz) steps by e^(2iz)
        a = b = 1 + 0j
        step, step_inv = up, um
        for k in range(1, MAX_TERMS + 1):
            if k == n:
                table[k:k + 1] = (theta_term(q, p.ln_abs_q, k, 0),)
                n = len(table)
            qk, lnr, lnb, half = table[k]
            plus = qk * (up + um)
            a += plus
            if k & 1:
                b -= plus
            else:
                b += plus
            ln_ratio = lnr + imz2
            if ln_ratio < 0.0:
                head = lnb + half * imz2 + ln_ratio
                if head < LN_EPS and head - math.log1p(-math.exp(ln_ratio)) < LN_EPS:
                    return _finished(kind, z, a, b)
            up *= step
            um *= step_inv
    raise ConvergenceError(
        "theta%d series did not meet eps=%g in %d terms (reduce the argument?)"
        % (kind, EPS, MAX_TERMS))


def _finished(kind: int, z: complex, a: complex, b: complex) -> tuple:
    """theta_sum's result from the sums a of kind 1 or 3 and b of kind 2 or 4:
    kind's sum first, or RangeError naming the first sum that is not finite."""
    pair = (a, b) if kind % 2 else (b, a)
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        bad = kind if not cmath.isfinite(pair[0]) else PARTNER[kind]
        raise _overflow(bad, z, "series")
    return pair


def theta_sum_null(kind: int, p: ModularParam) -> complex:
    """theta_sum(kind, 0, p)[0], cached in p.nulls per kind.

    A call that raises caches nothing, so it raises again next time.
    """
    value = p.nulls.get(kind)
    if value is None:
        value = p.nulls[kind] = theta_sum(kind, 0.0, p)[0]
    return value


def qpochhammer(a: complex, q: complex, logs: tuple | None = None) -> complex:
    """The q-shifted factorial (a;q)_inf = prod_{n>=0} (1 - a q^n).

    Truncated once the remaining logarithmic tail |a| |q|^n / (1 - |q|)
    drops below EPS, or ConvergenceError after MAX_TERMS factors.

    The first n factors skip that test, where n (at most MAX_TERMS) is the
    largest count with ln|a| + j ln|q| >= ln(EPS (1 - |q|)) + PREFIX_MARGIN
    for every j < n: the test provably fails there, so the value and the
    errors are those of a loop that tests every factor.  The margin covers
    the rounding, which stays below 1e-12 in log space:
    * the computed term a q^j is at most 255 complex products away from a,
      each off by at most sqrt(5) 2^-53 relative (Brent, Percival and
      Zimmermann, 2007), 3.2e-14 in all;
    * abs, 1 - |q| and the division add a few 2^-53, and |q| rounded in
      abs(q), then raised to j < 256, another 2.9e-14;
    * the logarithms are each within an ulp of values below 800 in
      magnitude, and n comes from one rounded quotient, about 3e-13.
    Terms in the prefix exceed 1e-32, far above the subnormals, and a term
    that overflowed to inf or nan fails the test anyway.

    logs is pochhammer_logs(abs(q)), the nome-only parts of that bound,
    computed here when omitted; ModularParam.q2_logs holds it for q*q, so
    a call at a param's nome q^2 takes one logarithm, of |a|.
    """
    q = complex(q)
    aq = abs(q)
    if aq >= 1:
        raise DomainError("q-Pochhammer needs |q| < 1, got |q| = %g" % aq)
    a = complex(a)
    prod = 1 + 0j
    term = a
    n = 0
    abs_a = abs(a)
    if abs_a > 0.0:
        ln_floor, ln_step = logs or pochhammer_logs(aq)
        slack = math.log(abs_a) - ln_floor - PREFIX_MARGIN
        if slack >= 0.0:
            # n <= MAX_TERMS: short of the first branch's bound, slack /
            # ln_step rounds to at most 255; that branch also takes |a| = inf
            n = (MAX_TERMS if slack >= (MAX_TERMS - 1) * ln_step
                 else int(slack / ln_step) + 1)
            for _ in range(n):
                prod *= 1 - term
                term *= q
    for _ in range(n, MAX_TERMS):
        if abs(term) / (1.0 - aq) < EPS:
            return prod
        prod *= 1 - term
        term *= q
    raise ConvergenceError(
        "(a;q)_inf with |a|=%g, |q|=%g needs more than %d factors"
        % (abs(a), aq, MAX_TERMS))


def theta_eval(kind: int, z: complex, p: ModularParam, *,
               method: str = "series") -> complex:
    """Evaluate theta_kind(z|tau) by the series or the product path.

    The series path is the first half of theta_pair.  The product path
    forms head * (q^2;q^2) (a e^(2iz);q^2) (a e^(-2iz);q^2) with a = s q^c
    from PRODUCT_FACTOR and head as documented there; the z-free factor
    (q^2;q^2) is computed once per nome, in p.products.
    """
    if method == "series":
        return theta_pair(kind, z, p)[0]
    check_kind(kind)
    z = complex(z)
    if method != "product":
        raise DomainError("method must be 'series' or 'product', got %r" % (method,))

    # every kind's product carries e^(2iz) and its inverse, both in range here
    # unless 2*Re z overflows to inf
    if abs(z.imag) * 2 > _LN_DOUBLE_MAX:
        raise _overflow(kind, z, "product")
    q = p.q
    q2 = q * q
    try:
        w = cmath.exp(2j * z)
    except (ValueError, OverflowError):
        raise _overflow(kind, z, "product") from None
    winv = 1 / w
    logs = p.q2_logs
    base = p.products.get("theta")
    if base is None:
        base = p.products["theta"] = qpochhammer(q2, q2, logs)
    sign, power = PRODUCT_FACTOR[kind]
    a = q2 if power == 2 else q
    if sign < 0:
        a = -a
    value = base
    if kind in (1, 2):
        trig = cmath.sin if kind == 1 else cmath.cos
        value = 2 * p.q_quarter * trig(z) * base
    value = value * qpochhammer(a * w, q2, logs) * qpochhammer(a * winv, q2, logs)
    # e^(2iz) is in range, but the partial products can still overflow
    if not cmath.isfinite(value):
        raise _overflow(kind, z, "product")
    return value


def theta_pair(kind: int, z: complex, p: ModularParam) -> tuple:
    """(theta_kind(z|tau), theta_PARTNER[kind](z|tau)) from one theta_sum: the
    sums times -i*q^(1/4) for kind 1, q^(1/4) for kind 2 and 1 for kinds 3, 4."""
    pair = theta_sum(kind, complex(z), p)
    if kind > 2:
        return pair
    s, t = pair
    c = p.q_quarter
    return (-1j * c * s, c * t) if kind == 1 else (c * s, -1j * c * t)


def reduce_argument(kind: int, z: complex, p: ModularParam) -> ShiftResult:
    """Pull z into the fundamental box by full-period shifts.

    Public as the remedy the series errors advise ("reduce the argument").

    Returns (kind, z_red, m) with z = z_red + a*pi + b*pi*tau for integers
    a, b chosen so |Re z_red| <= pi/2 and |Im z_red| <= pi*Im(tau)/2, and

        theta_kind(z|tau) = m * theta_kind(z_red|tau),
        m = s_pi^a * s_tau^b * q^(-b^2) * e^(-2ib*z_red).

    Raises ConvergenceError when m leaves double range.
    """
    check_kind(kind)
    z = complex(z)
    b = round(z.imag / (math.pi * p.tau.imag))
    a = round((z.real - b * math.pi * p.tau.real) / math.pi)
    z_red = z - a * math.pi - b * math.pi * p.tau
    mult = complex(PI_SHIFT_SIGN[kind] ** (a & 1) * PI_TAU_SHIFT_SIGN[kind] ** (b & 1))
    if b:
        try:
            mult *= p.q ** (-b * b) * cmath.exp(-2j * b * z_red)
        except (ZeroDivisionError, OverflowError):
            raise range_overflow("theta%d period multiplier" % kind, z, p) from None
    return ShiftResult(new_kind=kind, new_z=z_red, multiplier=mult)


def half_period_shift(kind: int, z: complex, p: ModularParam) -> ShiftResult:
    """Shift by the half period pi*tau/2, swapping the theta kind:

        theta_kind(z + pi*tau/2 | tau) = multiplier * theta_new(z | tau)

    with kinds mapped 1->4, 2->3, 3->2, 4->1 and multiplier i*B, B, B, i*B
    where B = q^(-1/4) e^(-iz); raises ConvergenceError when B leaves
    double range.
    """
    check_kind(kind)
    z = complex(z)
    try:
        mult = cmath.exp(-1j * z) / p.q_quarter
    except (ZeroDivisionError, OverflowError):
        raise range_overflow("theta%d half-period multiplier" % kind, z, p) from None
    if HALF_PERIOD_HAS_I[kind]:
        mult *= 1j
    return ShiftResult(new_kind=HALF_PERIOD_MAP[kind], new_z=z, multiplier=mult)
