"""Modular parameter, nome branches, and truncation policy.

The whole package works with a parameter tau in the upper half-plane and
its nome q = exp(i*pi*tau), |q| < 1.  The quarter nome q^{1/4} is defined
as exp(i*pi*tau/4) -- the exponential form, never a root of q -- so theta
prefactors carry no branch ambiguity.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import DomainError

THETA_KINDS = (1, 2, 3, 4)


@dataclass(frozen=True)
class ModularParam:
    """Validated tau with its derived nome and quarter nome.

    Instances are immutable; build them with make_param so the invariants
    Im(tau) > 0, |q| < 1, q_quarter**4 == q always hold.
    """

    tau: complex
    q: complex
    q_quarter: complex


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping contract for every infinite sum / product in the package.

    eps is an absolute tail tolerance; max_terms is a hard cap.  Evaluators
    stop once a geometric tail bound drops below eps and raise
    ConvergenceError when the cap is reached first.
    """

    eps: float = 1e-16
    max_terms: int = 256

    def __post_init__(self) -> None:
        if not self.eps > 0:
            raise DomainError("eps must be positive, got %r" % (self.eps,))
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1, got %r" % (self.max_terms,))


DEFAULT_POLICY = TruncationPolicy()


def check_kind(kind: int) -> int:
    if kind not in THETA_KINDS:
        raise DomainError("theta kind must be 1..4, got %r" % (kind,))
    return kind


def make_param(tau: complex) -> ModularParam:
    """Validate tau and derive q = exp(i*pi*tau), q^{1/4} = exp(i*pi*tau/4).

    Raises DomainError unless tau is finite with Im(tau) > 0 and |q| < 1
    holds in double precision (below Im(tau) ~ 1.8e-17, |q| rounds to 1).
    """
    tau = complex(tau)
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
    """Parameter whose nome is q (0 < |q| < 1), via tau = Log(q)/(i*pi)."""
    q = complex(q)
    if q == 0 or abs(q) >= 1:
        raise DomainError("nome must satisfy 0 < |q| < 1, got %r" % (q,))
    return make_param(cmath.log(q) / (1j * cmath.pi))


def tau_prime(p: ModularParam) -> ModularParam:
    """The companion parameter -1/tau (an involution on the half-plane)."""
    return make_param(-1 / p.tau)
