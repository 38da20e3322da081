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
from bisect import bisect_right
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, RangeError
from .params import (
    EPS,
    LN_1M_LOG_SWITCH,
    LN_DOUBLE_MAX,
    LN_LOG_SWITCH,
    LOG_MIN,
    MAX_TERMS,
    PREFIX_MARGIN,
    THETA_KINDS,
    ModularParam,
    PochhammerContext,
    check_kind,
    grow_terms,
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


def _overflow(kind: int, z: complex, path: str) -> RangeError:
    return RangeError("theta%d %s overflowed double range at z = %r "
                      "(reduce the argument first)" % (kind, path, z))


def finite_argument(what: str, z) -> complex:
    """complex(z), or DomainError naming what when z is nan or infinite."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("%s needs a finite z, got z = %r" % (what, z))
    return z


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

    One call sums both of a pair, in one loop for every kind.  With odd = 1
    for kinds 1, 2 and 0 for kinds 3, 4, index k >= 1 - odd contributes

        q^(k(k+odd)) (e^((2k+odd)iz) +- e^(-(2k+odd)iz)),

    the difference for kind 1, a sign (-1)^k for kinds 1 and 4, and the
    k = 0 term of kinds 3, 4 is the 1 the sum starts from.  A term with sign
    -1 is subtracted, which in IEEE arithmetic is adding its negation, so
    each sum keeps the bits of a loop of its own.  It stops at the first k
    whose geometric tail, first term 2 |q|^(k(k+odd)) e^((2k+odd)|Im z|) and
    ratio r = |q|^(2k+1+odd) e^(2|Im z|), is below EPS (params.tail_below_eps,
    in log space so huge |Im z| cannot overflow a float).  Errors name kind,
    and the partner only when its sum alone is not finite.

    That test depends on z only through imz2 = 2|Im z| and passes below one
    double, params.stop_threshold, so the loop runs no test: the stop table
    p.stops[odd] holds the running maximum M_k of those thresholds, and the
    sum stops at the first k with imz2 < M_k, where a loop testing each k
    would.  Powers come from the term table p.terms[odd] (params.theta_term),
    shared by every call at one nome.  Both tables grow by one entry while
    no M_k exceeds imz2; past MAX_TERMS, or at a nan imz2, that ends in
    ConvergenceError.
    """
    if kind not in THETA_KINDS:
        check_kind(kind)
    odd = 1 if kind < 3 else 0
    imz = abs(z.imag)
    # |e^(iz)|^(2-odd) is the largest factor; past double range exp fails,
    # as it does when (2-odd)*Re z overflows to inf
    if imz * (2 - odd) > LN_DOUBLE_MAX:
        raise _overflow(kind, z, "series")
    try:
        up = cmath.exp((2 - odd) * 1j * z)    # e^((2k+odd)iz), stepped with k
    except (ValueError, OverflowError):
        raise _overflow(kind, z, "series") from None
    um = 1 / up
    if not p.q:
        # nome underflowed (huge Im tau); the q -> 0 limit is the correctly
        # rounded value: only the innermost summation indices survive
        pair = (up - um, up + um) if odd else (1 + 0j, 1 + 0j)
        return pair if kind % 2 else pair[::-1]
    imz2 = 2.0 * imz
    # one len() for the bisection and the test: one read again may count an
    # entry another thread stored since, and stop a term early
    stops = p.stops[odd]
    size = len(stops)
    n = bisect_right(stops, imz2, 0, size)
    while n == size:
        if size > MAX_TERMS:
            raise ConvergenceError(
                "theta%d series did not meet eps=%g in %d terms (reduce the "
                "argument?)" % (kind, EPS, MAX_TERMS))
        grow_terms(p, odd, size)
        size += 1
        n = bisect_right(stops, imz2, n, size)
    # alt = the sum with (-1)^k (theta1's or theta4's), same = its partner's;
    # e^((2k+odd)iz) steps by e^(2iz), which is up squared when odd
    table = p.terms[odd]
    if odd:
        alt = same = 0j
        step, step_inv = up * up, um * um
        k = 0
    else:
        alt = same = 1 + 0j
        step, step_inv = up, um
        k = 1
    while True:
        qk = table[k][0]
        plus = qk * (up + um)
        same += plus
        term = qk * (up - um) if odd else plus
        if k & 1:
            alt -= term
        else:
            alt += term
        if k == n:
            break
        up *= step
        um *= step_inv
        k += 1
    if cmath.isfinite(alt) and cmath.isfinite(same):
        return (alt, same) if kind in (1, 4) else (same, alt)
    first = alt if kind in (1, 4) else same
    raise _overflow(kind if not cmath.isfinite(first) else PARTNER[kind], z, "series")


def theta_sum_null(kind: int, p: ModularParam) -> complex:
    """theta_sum(kind, 0, p)[0], cached in p.nulls per kind.

    A call that raises caches nothing, so it raises again next time.
    """
    value = p.nulls.get(kind)
    if value is None:
        value = p.nulls[kind] = theta_sum(kind, 0.0, p)[0]
    return value


def qpochhammer(a: complex, q: complex,
                nome: PochhammerContext | None = None) -> complex:
    """The q-shifted factorial (a;q)_inf = prod_{n>=0} (1 - a q^n).

    Truncated once the remaining logarithmic tail |a| |q|^n / (1 - |q|)
    drops below EPS, or ConvergenceError after MAX_TERMS factors; RangeError
    when |a| itself overflows though its parts are finite.

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

    One loop multiplies that untested head.  A long product, LOG_MIN <= n
    <= MAX_TERMS - 2, takes there only the factors with |a q^k| > LOG_SWITCH
    and ends in its logarithm series instead of the tested tail (Gasper and
    Rahman, Basic Hypergeometric Series, 2nd ed., 2004, ch. 1), the rest,
    (x;q)_inf at x = a q^k, as exp(-s) with

        s = sum_{m=1}^{M} c_m x^m,  c_m = 1 / (m (1 - q^m)),

    summed by Horner's rule over the coefficients of the nome's context,
    M the least count with |x|^(M+1) / ((1 - |q|) (1 - |x|)) below EPS.
    That geometric bound on the dropped terms ignores their factors 1/m,
    which absorb the rounding of ln|x| = ln|a| + k ln|q|, so the log series
    ends on the same EPS contract as the loop.  The branch is taken only
    where -ln|q| > 2 PREFIX_MARGIN: then term n lies below the threshold
    times e^PREFIX_MARGIN, term n + 1 below the threshold, and the tested
    loop would stop at factor n or n + 1 < MAX_TERMS; so a call returns a
    value, or raises, exactly when the loop does.  Below LOG_MIN every bit
    is the loop's.

    nome is the PochhammerContext of q, its logarithms and log-series
    coefficients; ModularParam.q2_context holds it for q*q, so a call at a
    param's nome q^2 takes one logarithm, of |a|.  Omitted, or built for
    another q, it is built here from q.
    """
    q = complex(q)
    if nome is None or nome.q != q:
        nome = PochhammerContext(q)
    aq = nome.abs_q
    if aq >= 1:
        raise DomainError("q-Pochhammer needs |q| < 1, got |q| = %g" % aq)
    a = complex(a)
    prod = 1 + 0j
    term = a
    n = 0
    try:
        abs_a = abs(a)
    except OverflowError:
        raise RangeError("q-Pochhammer argument |a| overflowed double range for "
                         "a = %r" % (a,)) from None
    if abs_a > 0.0:
        ln_floor, ln_step = nome.ln_floor, nome.ln_step
        ln_a = math.log(abs_a)
        slack = ln_a - ln_floor - PREFIX_MARGIN
        if slack >= 0.0:
            # n <= MAX_TERMS: short of the first branch's bound, slack /
            # ln_step rounds to at most 255; that branch also takes |a| = inf
            n = MAX_TERMS if slack >= nome.ln_cap else int(slack / ln_step) + 1
            log_tail = LOG_MIN <= n <= MAX_TERMS - 2 and ln_step > 2 * PREFIX_MARGIN
            head = n
            if log_tail:
                # only the k factors with |a q^k| > LOG_SWITCH, then the rest
                # as exp(-sum_m c_m x^m) at x = a q^k, to M terms
                head = (int((ln_a - LN_LOG_SWITCH) / ln_step) + 1
                        if ln_a > LN_LOG_SWITCH else 0)
            for _ in range(head):
                prod *= 1 - term
                term *= q
            if log_tail:
                c, s = nome.series, 0j
                for m in range(int((ln_floor + LN_1M_LOG_SWITCH)
                                   / (ln_a - head * ln_step)), 0, -1):
                    s = (s + c[m]) * term
                return prod * cmath.exp(-s)
    one_minus = nome.one_minus
    for _ in range(n, MAX_TERMS):
        if abs(term) / one_minus < EPS:
            return prod
        prod *= 1 - term
        term *= q
    raise ConvergenceError(
        "(a;q)_inf with |a|=%g, |q|=%g needs more than %d factors"
        % (abs(a), aq, MAX_TERMS))


def theta_eval(kind: int, z: complex, p: ModularParam, *,
               method: str = "series") -> complex:
    """Evaluate theta_kind(z|tau) by the series or the product path.

    The series path is theta_pair's first value alone.  The product path
    forms head * (q^2;q^2) (a e^(2iz);q^2) (a e^(-2iz);q^2) with a = s q^c
    from PRODUCT_FACTOR and head as documented there; the z-free factor
    (q^2;q^2) is computed once per nome, in p.products.
    """
    if method == "series":
        s = theta_sum(kind, complex(z), p)[0]
        if kind > 2:
            return s
        return -1j * p.q_quarter * s if kind == 1 else p.q_quarter * s
    check_kind(kind)
    if method != "product":
        raise DomainError("method must be 'series' or 'product', got %r" % (method,))
    # sin and cos raise a bare ValueError at an infinite z
    z = finite_argument("the theta product path", z)

    # every kind's product carries e^(2iz) and its inverse, both in range here
    # unless 2*Re z overflows to inf
    if abs(z.imag) * 2 > LN_DOUBLE_MAX:
        raise _overflow(kind, z, "product")
    nome = p.q2_context
    q2 = nome.q
    try:
        w = cmath.exp(2j * z)
    except (ValueError, OverflowError):
        raise _overflow(kind, z, "product") from None
    winv = 1 / w
    base = p.products.get("theta")
    if base is None:
        base = p.products["theta"] = qpochhammer(q2, q2, nome)
    sign, power = PRODUCT_FACTOR[kind]
    a = q2 if power == 2 else p.q
    if sign < 0:
        a = -a
    value = base
    if kind in (1, 2):
        trig = cmath.sin if kind == 1 else cmath.cos
        value = 2 * p.q_quarter * trig(z) * base
    value = value * qpochhammer(a * w, q2, nome) * qpochhammer(a * winv, q2, nome)
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

    Raises DomainError when z is not finite and ConvergenceError when m
    leaves double range.  Re z is reduced by the double pi, 1.2e-16 off, so
    z_red is off by about |a| * 1.2e-16 and theta rebuilt from it about as
    much, relative: at tau = 1.1i and Im z = 0.2, theta1 is off by 1.2e-11
    at Re z = 1e5 and 9.2e-10 at 1e7, where theta_eval is within 1.4e-16.
    """
    check_kind(kind)
    z = finite_argument("reduce_argument", z)
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
    where B = q^(-1/4) e^(-iz); raises DomainError when z is not finite and
    ConvergenceError when B leaves double range.
    """
    check_kind(kind)
    z = finite_argument("half_period_shift", z)
    try:
        mult = cmath.exp(-1j * z) / p.q_quarter
    except (ZeroDivisionError, OverflowError):
        raise range_overflow("theta%d half-period multiplier" % kind, z, p) from None
    if HALF_PERIOD_HAS_I[kind]:
        mult *= 1j
    return ShiftResult(new_kind=HALF_PERIOD_MAP[kind], new_z=z, multiplier=mult)
