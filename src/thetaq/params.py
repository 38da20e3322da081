"""Modular parameter, nome branches, and the truncation contract.

The whole package works with a parameter tau in the upper half-plane and
its nome q = exp(i*pi*tau), |q| < 1.  The quarter nome q^{1/4} is defined
as exp(i*pi*tau/4) -- the exponential form, never a root of q -- so theta
prefactors carry no branch ambiguity.

make_param is memoised per tau (up to PARAM_CACHE_SIZE of them), so the
tau', 2*tau and nome data that every evaluation derives are built once per
tau.  Each ModularParam also carries the per-nome context of both numeric
kernels, filled as they go: ln|q|, the theta term tables (q^(k(k+odd)) with
the k-only parts of the series tail bound), the theta nulls, the z-free
product factors (q^2;q^2)_inf and (q;q^2)_inf^2, the logarithms that bound
qpochhammer's untested prefix at nome q^2, and weak links to the tau' and
2*tau params -- none of it in equality or repr.

Every infinite sum and product in the package stops on one contract: once
a geometric tail bound drops below EPS, which lies under a double's
rounding unit, or with ConvergenceError when MAX_TERMS terms do not get
there.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
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
    * nulls maps kind to theta_sum(kind, 0, self)[0]; see theta.theta_sum_null;
    * products maps "theta" to (q^2;q^2)_inf, the z-free factor of every
      theta product (theta.theta_eval), and "sin_q" to (q;q^2)_inf^2, the
      z-free denominator of the q-trig products (qtrig._sin_q), both with
      q^2 = q*q;
    * q2_logs = pochhammer_logs(abs(q*q)), for qpochhammer at nome q*q;
    * companions weakly links "prime" and "double" to tau' and 2*tau's params.
    """

    tau: complex
    q: complex
    q_quarter: complex
    ln_abs_q: float = field(init=False, compare=False, repr=False)
    terms: tuple = field(init=False, compare=False, repr=False)
    nulls: dict = field(init=False, compare=False, repr=False,
                        default_factory=dict)
    products: dict = field(init=False, compare=False, repr=False,
                           default_factory=dict)
    q2_logs: tuple = field(init=False, compare=False, repr=False)
    companions: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        q = self.q
        ln_q = math.log(abs(q)) if q else -math.inf
        object.__setattr__(self, "ln_abs_q", ln_q)
        object.__setattr__(self, "terms", tuple([theta_term(q, ln_q, 0, odd)]
                                                for odd in (0, 1)))
        object.__setattr__(self, "q2_logs", pochhammer_logs(abs(q * q)))


def theta_term(q: complex, ln_q: float, k: int, odd: int) -> tuple:
    """Entry k of the theta term table of parity odd (see theta.theta_sum):

        (q^(k(k+odd)), (2k+1+odd) ln|q|, ln 2 + k(k+odd) ln|q|, k + odd/2),

    the power and the k-only parts of the tail ratio, the tail's first term
    and its growth exponent, each formed as theta_sum formed it inline.
    """
    return (q ** (k * (k + odd)), (2 * k + 1 + odd) * ln_q,
            LN_2 + (k * (k + odd)) * ln_q, k + odd / 2)


def pochhammer_logs(aq: float) -> tuple:
    """(ln(EPS*(1 - aq)), -ln aq): the nome-only parts of the bound on
    theta.qpochhammer's untested prefix at |q| = aq < 1 (+inf when aq = 0)."""
    return math.log(EPS * (1.0 - aq)), -math.log(aq) if aq else math.inf


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
    q = cmath.exp(1j * cmath.pi * tau)
    if not abs(q) < 1:
        raise DomainError("tau = %r is too close to the real axis: |q| rounds "
                          "to 1 in double precision" % (tau,))
    q_quarter = cmath.exp(1j * cmath.pi * tau / 4)
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
    return _link(p, "double", 2 * p.tau)


def _link(p: ModularParam, key: str, tau: complex) -> ModularParam:
    """make_param(tau), weakly linked from p.companions[key]: a link keeps no
    param alive, so the make_param cache alone bounds how many stay.  The
    callers form tau only when the link is missing or dead."""
    p.companions[key] = weakref.ref(c := make_param(tau))
    return c
