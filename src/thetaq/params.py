"""Modular parameter, nome branches, and the truncation contract.

The whole package works with a parameter tau in the upper half-plane and
its nome q = exp(i*pi*tau), |q| < 1.  The quarter nome q^{1/4} is defined
as exp(i*pi*tau/4) -- the exponential form, never a root of q -- so theta
prefactors carry no branch ambiguity.

make_param is memoised per tau (up to PARAM_CACHE_SIZE of them), so the
tau', 2*tau and nome data that every evaluation derives are built once per
tau.  Each ModularParam also carries the per-nome context of both numeric
kernels, filled as they go: ln|q|, the theta term tables (q^(k(k+odd)) with
the k-only parts of the series tail bound) and stop tables, the theta nulls,
the z-free product factors (q^2;q^2)_inf and (q;q^2)_inf^2, the
PochhammerContext of nome q^2 (the logarithms that bound qpochhammer's
untested prefix and the coefficients of its log series), i*pi*tau, and weak
links to the tau' and 2*tau params -- none of it in equality or repr.

Every infinite sum and product in the package stops on one contract: once
a geometric tail bound drops below EPS, which lies under a double's
rounding unit, or with ConvergenceError when MAX_TERMS terms do not get
there.  A long q-Pochhammer product sums its tail's logarithm series
instead of multiplying it out, cut where that series' geometric remainder
drops below EPS; it raises ConvergenceError exactly where the factor loop
would (see theta.qpochhammer), and reads its coefficients from the table of
a PochhammerContext, built once per nome.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import sys
import weakref
from dataclasses import dataclass, field

from .errors import DomainError

THETA_KINDS = (1, 2, 3, 4)

# distinct tau whose ModularParam make_param keeps (least recently used go first)
PARAM_CACHE_SIZE = 256
# the truncation contract: absolute tail tolerance and hard cap on terms
EPS = 1e-16
LN_EPS = math.log(EPS)
MAX_TERMS = 256
LN_2 = math.log(2.0)
# log of the largest finite double
LN_DOUBLE_MAX = math.log(sys.float_info.max)
# ln of the factor by which qpochhammer's untested prefix keeps its terms
# above the tail test's threshold; see theta.qpochhammer
PREFIX_MARGIN = 1e-9
# A product with at least LOG_MIN untested factors multiplies those with
# |a q^k| > LOG_SWITCH and sums the rest as a log series by Horner's rule
# over the coefficients of its PochhammerContext; see theta.qpochhammer.
# Per call (x86-64, Python 3.11, 2 vCPUs), at |a| = 1 and 0.1, the series
# takes 0.70-0.77 of the factor loop's time at 16-20 factors, 0.44-0.48 at
# 40 and 0.20-0.25 at 120, and 0.93-1.08 at 8-10: LOG_MIN sits above the
# crossing.  At |q| = 0.73 a call takes 3.1 and 2.4 us with this switch,
# 3.8 and 3.1 with 1e-3 and 4.5 and 3.8 with 1e-4; at 0.53, 2.5 and 2.2
# against 2.7 and 2.5 with 1e-3; at 0.15, 4-7% more than with 1e-3.
# Switches from 1e-2 to 5e-2 cost the same within noise, and 1e-1 is up to
# 18% dearer at |q| = 0.53 and 0.15: fewer factors, more terms.
LOG_SWITCH = 3e-2
LOG_MIN = 16
LN_LOG_SWITCH = math.log(LOG_SWITCH)
LN_1M_LOG_SWITCH = math.log1p(-LOG_SWITCH)


@dataclass(frozen=True)
class ModularParam:
    """Validated tau with its derived nome and quarter nome.

    Instances are immutable; build them with make_param so the invariants
    Im(tau) > 0, |q| < 1, q_quarter**4 == q always hold.  make_param returns
    the same instance for the same tau.

    The remaining fields are per-nome state that depends on q alone and is
    not part of equality, hash or repr:

    * ln_abs_q = log|q| (-inf when q underflowed to 0);
    * terms[odd][k] = theta_term(q, ln_abs_q, k, odd), two tables that
      theta_sum grows on demand, to at most MAX_TERMS + 1 entries;
    * stops[odd][k] = max(stop_threshold(terms[odd][j]), j <= k), the stop
      tables, grown with terms (stops[0][0] = -inf: no sum stops there);
    * nulls maps kind to theta_sum(kind, 0, self)[0]; see theta.theta_sum_null;
    * products maps "theta" to (q^2;q^2)_inf, the z-free factor of every
      theta product (theta.theta_eval), and "sin_q" to (q;q^2)_inf^2, the
      z-free denominator of the q-trig products (qtrig._sin_q), both with
      q^2 = q*q;
    * q2_context = PochhammerContext(q*q), the nome-only data of every
      qpochhammer call at nome q^2, and i_pi_tau = 1j*pi*tau, from which
      the product path forms q^a = exp(i_pi_tau*a) (qtrig._nome_power);
    * companions weakly links "prime" and "double" to tau' and 2*tau's params.
    """

    tau: complex
    q: complex
    q_quarter: complex
    ln_abs_q: float = field(init=False, compare=False, repr=False)
    terms: tuple = field(init=False, compare=False, repr=False)
    stops: tuple = field(init=False, compare=False, repr=False)
    nulls: dict = field(init=False, compare=False, repr=False,
                        default_factory=dict)
    products: dict = field(init=False, compare=False, repr=False,
                           default_factory=dict)
    q2_context: PochhammerContext = field(init=False, compare=False, repr=False)
    i_pi_tau: complex = field(init=False, compare=False, repr=False)
    companions: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        q = self.q
        ln_q = math.log(abs(q)) if q else -math.inf
        object.__setattr__(self, "ln_abs_q", ln_q)
        object.__setattr__(self, "terms", tuple([theta_term(q, ln_q, 0, odd)]
                                                for odd in (0, 1)))
        object.__setattr__(self, "stops", ([-math.inf],
                                           [stop_threshold(self.terms[1][0])]))
        object.__setattr__(self, "q2_context", PochhammerContext(q * q))
        object.__setattr__(self, "i_pi_tau", 1j * cmath.pi * self.tau)


def theta_term(q: complex, ln_q: float, k: int, odd: int) -> tuple:
    """Entry k of the theta term table of parity odd (see theta.theta_sum):

        (q^(k(k+odd)), (2k+1+odd) ln|q|, ln 2 + k(k+odd) ln|q|, k + odd/2),

    the power and the k-only parts of the tail ratio, the tail's first term
    and its growth exponent, as tail_below_eps reads them.
    """
    return (q ** (k * (k + odd)), (2 * k + 1 + odd) * ln_q,
            LN_2 + (k * (k + odd)) * ln_q, k + odd / 2)


def tail_below_eps(entry: tuple, imz2: float) -> bool:
    """theta_sum's tail test past entry = (power, lnr, lnb, half) at imz2 =
    2|Im z|: ln_bound + ln r - log1p(-r) < ln EPS, ln r = lnr + imz2 and
    ln_bound = lnb + half imz2.  Each step is monotone in imz2, so the test
    passes below one double, stop_threshold(entry), and fails from it on."""
    _, lnr, lnb, half = entry
    ln_ratio = lnr + imz2
    if not ln_ratio < 0.0:
        return False
    head = lnb + half * imz2 + ln_ratio
    return head < LN_EPS and head - math.log1p(-math.exp(ln_ratio)) < LN_EPS


def stop_threshold(entry: tuple) -> float:
    """The least double imz2 >= 0 at which tail_below_eps(entry, imz2) fails:
    a bisection down to adjacent doubles of a bracket in [0, -lnr] around x,
    the unrounded root after three fixed-point steps.  The bracket starts one
    ulp either side of x, where about nine thresholds in ten lie, and widens
    8-fold per step on each side until the test passes below x and fails
    above it.  The test is monotone, so any bracket gives the same double."""
    if not tail_below_eps(entry, 0.0):
        return 0.0
    _, lnr, lnb, half = entry
    x = 0.0
    for _ in range(3):
        x = (LN_EPS - lnb - lnr + math.log1p(-math.exp(lnr + x))) / (half + 1)
    # the test passes at lo and fails at hi throughout
    lo, hi, span = 0.0, -lnr, math.ulp(x)
    while lo < x - span < hi:
        if tail_below_eps(entry, x - span):
            lo = x - span
            break
        hi = x - span
        span *= 8
    span = math.ulp(x)
    while lo < x + span < hi:
        if not tail_below_eps(entry, x + span):
            hi = x + span
            break
        lo = x + span
        span *= 8
    while (mid := (lo + hi) / 2) != lo and mid != hi:
        if tail_below_eps(entry, mid):
            lo = mid
        else:
            hi = mid
    return hi


def grow_terms(p: ModularParam, odd: int, k: int) -> None:
    """Store entry k = len(p.stops[odd]) of p.terms[odd], then of p.stops[odd],
    by slice stores: a thread that stored one first is overwritten with the
    same entry, and p.terms[odd] is never the shorter."""
    entry = theta_term(p.q, p.ln_abs_q, k, odd)
    p.terms[odd][k:k + 1] = (entry,)
    p.stops[odd][k:k + 1] = (max(p.stops[odd][k - 1], stop_threshold(entry)),)


class PochhammerContext:
    """The nome-only data of theta.qpochhammer at nome q (a complex), built
    once, eagerly, and immutable:

    * abs_q = |q|, one_minus = 1 - |q|, the tested tail's denominator;
    * ln_floor = ln(EPS (1 - |q|)) and ln_step = -ln|q| (+inf when q = 0),
      which bound the untested prefix, and ln_cap = (MAX_TERMS - 1) ln_step,
      the slack from which the whole prefix is untested; at |q| >= 1
      ln_floor is nan, and qpochhammer raises DomainError before it reads it;
    * series = (0, c_1, ..., c_M) with c_m = 1 / (m (1 - q^m)), the log
      series' coefficients up to the largest M a call can ask for, or ()
      where no call at this nome takes the log series.

    A call takes the log series only where ln_step > 2 PREFIX_MARGIN and its
    n >= LOG_MIN, so where (LOG_MIN - 1) ln_step <= ln|a| - ln_floor for some
    finite |a|; the table is built there, with one unit of margin in that
    count.  The call's x = a q^k has ln|x| <= ln LOG_SWITCH up to a relative
    1e-12, so its M is at most the M of |x| = LOG_SWITCH plus one; the table
    keeps one more.
    """

    __slots__ = ("q", "abs_q", "one_minus", "ln_floor", "ln_step", "ln_cap", "series")

    def __init__(self, q: complex) -> None:
        aq = abs(q)
        ln_floor = math.log(EPS * (1.0 - aq)) if aq < 1 else math.nan
        ln_step = -math.log(aq) if aq else math.inf
        series = []
        if ln_step > 2 * PREFIX_MARGIN and (LN_DOUBLE_MAX - ln_floor) / ln_step > LOG_MIN - 2:
            series.append(0j)
            qm = q
            for m in range(1, int((ln_floor + LN_1M_LOG_SWITCH) / LN_LOG_SWITCH) + 3):
                series.append(1 / (m * (1 - qm)))
                qm *= q
        for name, value in zip(self.__slots__, (q, aq, 1.0 - aq, ln_floor, ln_step,
                                                (MAX_TERMS - 1) * ln_step, tuple(series))):
            object.__setattr__(self, name, value)

    def _immutable(self, *args):
        raise AttributeError("a PochhammerContext is immutable")

    __setattr__ = __delattr__ = _immutable


def check_integer(value, name: str) -> int:
    """value, if it is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError("%s must be an integer, got %r" % (name, value))
    return value


def check_kind(kind: int) -> int:
    if kind not in THETA_KINDS:
        raise DomainError("theta kind must be 1..4, got %r" % (kind,))
    return kind


def make_param(tau: complex) -> ModularParam:
    """Validate tau and derive q = exp(i*pi*tau), q^{1/4} = exp(i*pi*tau/4).

    q has period 2 in tau and q^{1/4} period 8, so both are formed at
    fmod(Re tau, 8) + i*Im tau: fmod is exact, and it leaves |Re tau| < 8
    unchanged, so no digits are lost to a large Re tau.  The param keeps
    the caller's tau, since -1/tau and 2*tau are not 8-periodic in tau.
    Raises DomainError unless tau is finite with Im(tau) > 0 and |q| < 1
    holds in double precision (below Im(tau) ~ 1.8e-17, |q| rounds to 1).
    Memoised: the same tau gives the same ModularParam, and an invalid tau
    raises on every call.
    """
    tau = complex(tau)
    # 0.0 == -0.0, so the sign of Re tau joins the key to keep tau's bits
    return _make_param(tau, math.copysign(1.0, tau.real))


@functools.lru_cache(maxsize=PARAM_CACHE_SIZE)
def _make_param(tau: complex, _re_sign: float) -> ModularParam:
    if not tau.imag > 0:
        raise DomainError("tau must satisfy Im(tau) > 0, got %r" % (tau,))
    if not cmath.isfinite(tau):
        raise DomainError("tau must be finite, got %r" % (tau,))
    # |Re| < 8 and Im > 0 keep both finite: a huge Im tau underflows them to 0
    reduced = complex(math.fmod(tau.real, 8.0), tau.imag)
    q = cmath.exp(1j * cmath.pi * reduced)
    q_quarter = cmath.exp(1j * cmath.pi * reduced / 4)
    if not abs(q) < 1:
        raise DomainError("tau = %r is too close to the real axis: |q| rounds "
                          "to 1 in double precision" % (tau,))
    return ModularParam(tau=tau, q=q, q_quarter=q_quarter)


def param_from_nome(q: complex) -> ModularParam:
    """Parameter whose nome is q (0 < |q| < 1), via tau = Log(q)/(i*pi).

    Public as the only constructor that starts from the nome, not from tau.
    """
    q = complex(q)
    if q == 0 or abs(q) >= 1:
        raise DomainError("nome must satisfy 0 < |q| < 1, got %r" % (q,))
    return make_param(cmath.log(q) / (1j * cmath.pi))


def tau_prime(p: ModularParam) -> ModularParam:
    """The companion parameter -1/tau (an involution on the half-plane)."""
    ref = p.companions.get("prime")
    if ref is not None and (c := ref()) is not None:
        return c
    return _link(p, "prime", -1 / p.tau)


def qsquared_param(p: ModularParam) -> ModularParam:
    """Parameter whose nome is q^2, i.e. tau doubled."""
    ref = p.companions.get("double")
    if ref is not None and (c := ref()) is not None:
        return c
    if not cmath.isfinite(2 * p.tau):
        raise DomainError("tau = %r is too large: 2*tau is not finite in double "
                          "precision" % (p.tau,))
    return _link(p, "double", 2 * p.tau)


def _link(p: ModularParam, key: str, tau: complex) -> ModularParam:
    """make_param(tau), weakly linked from p.companions[key]: a link keeps no
    param alive, so the make_param cache alone bounds how many stay.  The
    callers form tau only when the link is missing or dead."""
    p.companions[key] = weakref.ref(c := make_param(tau))
    return c
