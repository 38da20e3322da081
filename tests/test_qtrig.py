import math
import random

import mpmath as mp
import pytest

from thetaq import (
    ConvergenceError,
    DomainError,
    ModularParam,
    PoleError,
    RangeError,
    make_param,
    param_from_nome,
    qsquared_param,
    qtrig_crosscheck,
    qtrig_product_any,
    qtrig_theta,
    tau_prime,
    qpochhammer,
    theta_eval,
    theta_sum,
)
from thetaq import qtrig as qtrig_module
from thetaq.qtrig import QTRIG_KINDS

TAUS = (1.1j, 0.3 + 1.1j, 1.3j)
# Log q != i*pi*tau once |Re tau| >= 1, and Log q^2 != 2*pi*i*tau once
# |Re tau| > 1/2: a product path that powers a bare q disagrees here
BRANCH_TAUS = (0.55 + 1j, 0.9 + 0.3j, 1.5 + 1j, -1.5 + 1j, 3.3 + 0.7j, 2 + 5j)


def test_tan_q_at_quarter_pi_is_one():
    for tau in TAUS:
        v = qtrig_theta("tan_q", math.pi / 4, make_param(tau))
        assert abs(v - 1) <= 1e-12


def test_tan_q_zero_and_cot_q_pole():
    p = make_param(1.3j)
    assert abs(qtrig_theta("tan_q", 0.0, p)) < 1e-14
    with pytest.raises(PoleError):
        qtrig_theta("cot_q", 0.0, p)
    with pytest.raises(PoleError):
        qtrig_theta("tan_q", math.pi / 2, param_from_nome(0.4))


def test_ssn_at_zero_is_theta_constant_ratio():
    # tau = i is self-dual, so tau' = i and the constants are the frozen ones
    p = make_param(1j)
    got = qtrig_theta("ssn_q", 0.0, p)
    pp = tau_prime(p)
    want = theta_eval(4, 0.0, pp) / theta_eval(3, 0.0, pp)
    assert abs(got - want) < 1e-14
    assert abs(got - 0.9135791381561168 / 1.086434811213308) < 1e-13


def test_sin_cos_normalization():
    for tau in TAUS:
        p = make_param(tau)
        assert abs(qtrig_theta("cos_q", 0.0, p) - 1) < 1e-14
        assert abs(qtrig_theta("ccs_q", 0.0, p) - 1) < 1e-14
        assert abs(qtrig_theta("sin_q", 0.0, p)) < 1e-14


def test_cos_q_is_shifted_sin_q():
    rng = random.Random(9)
    for q in (0.3, 0.5, 0.8):
        p = param_from_nome(q)
        for _ in range(20):
            z = rng.uniform(0.0, math.pi / 2)
            c = qtrig_theta("cos_q", z, p)
            for s in (qtrig_theta("sin_q", math.pi / 2 - z, p),
                      qtrig_theta("sin_q", math.pi / 2 + z, p)):
                assert abs(c - s) <= 1e-12 * max(1.0, abs(c))


def test_tan_cot_are_reciprocal():
    rng = random.Random(10)
    for _ in range(40):
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.6))
        z = complex(rng.uniform(0.2, 1.3), rng.uniform(-0.3, 0.3))
        p = make_param(tau)
        t = qtrig_theta("tan_q", z, p)
        c = qtrig_theta("cot_q", z, p)
        assert abs(t * c - 1) <= 1e-12


def test_ssn_ccs_quotient_definitions():
    # ssn_q * sin_q = sin_{q^2} and ccs_q * cos_q = cos_{q^2}
    rng = random.Random(12)
    for _ in range(30):
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.5))
        z = complex(rng.uniform(0.1, 1.3), rng.uniform(-0.25, 0.25))
        p = make_param(tau)
        p2 = qsquared_param(p)
        lhs = qtrig_theta("ssn_q", z, p) * qtrig_theta("sin_q", z, p)
        rhs = qtrig_theta("sin_q", z, p2)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))
        lhs = qtrig_theta("ccs_q", z, p) * qtrig_theta("cos_q", z, p)
        rhs = qtrig_theta("cos_q", z, p2)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def test_product_path_basics():
    p = param_from_nome(0.5)
    assert abs(qtrig_product_any("sin_q", 0.0, p)) < 1e-14
    assert abs(qtrig_product_any("cos_q", 0.0, p) - 1) < 1e-14
    # sin_q(pi/2) = cos_q(0) = 1
    assert abs(qtrig_product_any("sin_q", 0.5, p) - 1) < 1e-13
    for q in (0.3, 0.7):
        assert abs(qtrig_product_any("tan_q", 0.25, param_from_nome(q)) - 1) <= 1e-12
    with pytest.raises(PoleError):
        qtrig_product_any("cot_q", 0.0, p)


def test_product_path_poles():
    # cos_q and ccs_q are built at w + 1/2; the message names the caller's w
    poles = (("cot_q", 0.0, r"pi\*0j"), ("tan_q", 0.5, r"pi\*\(0\.5\+0j\)"),
             ("ssn_q", 0.0, r"pi\*0j"), ("ccs_q", 0.5, r"pi\*\(0\.5\+0j\)"))
    for tau in TAUS + BRANCH_TAUS:
        p = make_param(tau)
        for kind, w, where in poles:
            with pytest.raises(PoleError, match=kind + " pole at " + where):
                qtrig_product_any(kind, w, p)


def test_product_path_rejects_underflowed_nome():
    p = make_param(1000j)
    assert p.q == 0
    for kind in ("sin_q", "cos_q", "tan_q", "cot_q", "ssn_q", "ccs_q"):
        with pytest.raises(DomainError, match="product form needs 0 < \\|q\\| < 1"):
            qtrig_product_any(kind, 0.3, p)


def test_crosscheck_every_kind():
    rng = random.Random(21)
    kinds = ("sin_q", "cos_q", "tan_q", "cot_q", "ssn_q", "ccs_q")
    for kind in kinds:
        for _ in range(25):
            tau = rng.choice(TAUS + BRANCH_TAUS)
            z = complex(rng.uniform(0.15, 1.35), rng.uniform(-0.2, 0.2))
            p = make_param(tau)
            diff = qtrig_crosscheck(kind, z, p)
            scale = max(1.0, abs(qtrig_theta(kind, z, p)))
            assert diff <= 1e-11 * scale, (kind, z, tau, diff)


def test_crosscheck_examples():
    assert qtrig_crosscheck("sin_q", 0.7, make_param(1.1j)) <= 1e-11
    assert qtrig_crosscheck("tan_q", math.pi / 4, make_param(1.1j)) <= 1e-12
    # both cos_q paths equal 1 at z = 0
    p = make_param(1.1j)
    assert abs(qtrig_theta("cos_q", 0.0, p) - 1) < 1e-14
    assert abs(qtrig_product_any("cos_q", 0.0, p) - 1) < 1e-14


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        qtrig_theta("sec_q", 0.3, make_param(1j))


def _mp_tan_q_real(z, qprime, terms=8):
    num = mp.mpf(0)
    den = mp.mpf(0)
    for k in range(terms):
        w = qprime ** (k * (k + 1))
        s = -1 if k % 2 else 1
        num += s * w * mp.sin((2 * k + 1) * z)
        den += w * mp.cos((2 * k + 1) * z)
    return num / den


def test_classical_limit_of_tan_q():
    # |tan_q(0.6) - tan(0.6)| shrinks superexponentially along q -> 1; the
    # gap sits far below double rounding, so measure it in high precision.
    gaps = []
    for qv in (0.9, 0.99, 0.999):
        lnq = -math.log(qv)
        digits = int(2 * math.pi ** 2 / lnq / math.log(10)) + 60
        with mp.workdps(digits):
            qprime = mp.exp(-mp.pi ** 2 / mp.log(1 / mp.mpf(qv)))
            gaps.append(abs(_mp_tan_q_real(mp.mpf("0.6"), qprime) - mp.tan(mp.mpf("0.6"))))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2
    # and in doubles the two values are simply indistinguishable
    p = param_from_nome(0.9)
    assert abs(qtrig_theta("tan_q", 0.6, p) - math.tan(0.6)) < 1e-13


def test_failed_null_is_not_cached():
    # theta2(0|tau') at tau' = -1/tau = 1e-5i needs more than MAX_TERMS terms
    p = make_param(1e5j)
    for _ in range(2):
        with pytest.raises(ConvergenceError, match="theta2 series"):
            qtrig_theta("sin_q", 0.3, p)
    assert tau_prime(p).nulls == {}
    # a cached null is the sum it stands for
    p = make_param(0.3 + 1.1j)
    pp = tau_prime(p)
    z = 0.4 + 0.1j
    assert qtrig_theta("sin_q", z, p) == -1j * theta_sum(1, z, pp)[0] / theta_sum(2, 0.0, pp)[0]
    assert pp.nulls[2] == theta_sum(2, 0.0, pp)[0]


def test_six_kinds_crosscheck_reuses_the_product_denominators(monkeypatch):
    # (q;q^2)^2 is computed once per nome, for p and for 2*tau's param
    calls = []

    def counted(a, q, *logs):
        calls.append(a)
        return qpochhammer(a, q, *logs)

    monkeypatch.setattr(qtrig_module, "qpochhammer", counted)
    p = make_param(0.123 + 0.987j)    # a tau (and 2*tau) no other test uses
    z = 0.4 + 0.1j

    def six():
        del calls[:]
        return [qtrig_crosscheck(kind, z, p) for kind in QTRIG_KINDS]

    cold = six()
    assert len(calls) == 22
    warm = six()
    assert len(calls) == 20 and warm == cold     # 26 without the caches
    assert p.products == {"sin_q": qpochhammer(p.q, p.q * p.q) ** 2}
    assert qsquared_param(p).products.keys() == {"sin_q"}


def test_failed_product_denominator_is_not_cached(monkeypatch):
    calls = []
    warm = make_param(1.1j)
    p = ModularParam(tau=warm.tau, q=warm.q, q_quarter=warm.q_quarter)   # cold

    def fail_on_denominator(a, q, *logs):
        calls.append(a)
        if a == p.q:
            raise ConvergenceError("injected")
        return qpochhammer(a, q, *logs)

    monkeypatch.setattr(qtrig_module, "qpochhammer", fail_on_denominator)
    for _ in range(2):
        with pytest.raises(ConvergenceError, match="injected"):
            qtrig_product_any("sin_q", 0.3, p)
    assert p.products == {} and calls.count(p.q) == 2
    monkeypatch.undo()
    value = qtrig_product_any("sin_q", 0.3, p)
    assert p.products == {"sin_q": qpochhammer(p.q, p.q * p.q) ** 2}
    assert value == qtrig_product_any("sin_q", 0.3, warm)
    # the underflowed-nome DomainError still comes first and caches nothing
    dead = make_param(1000j)
    with pytest.raises(DomainError):
        qtrig_product_any("sin_q", 0.3, dead)
    assert dead.products == {}


def test_huge_real_argument_raises_range_error():
    # q^(2-2w) overflows at w = 1e17 on the product path; at 1e308 the
    # theta path's theta4(z|tau') exponent 2*Re z is inf
    p = make_param(1.1j)
    for kind in QTRIG_KINDS:
        with pytest.raises(RangeError, match="overflowed double range"):
            qtrig_product_any(kind, 1e17 / math.pi, p)
    for kind in ("ssn_q", "ccs_q"):
        with pytest.raises(RangeError, match="overflowed double range"):
            qtrig_theta(kind, 1e308, p)


def test_overflowed_factor_product_raises_range_error():
    # at Im tau = 30, w = 9/pi, (q^(2-2w);q^2) overflows; a quotient of it would be nan
    p = make_param(30j)
    for kind in ("ssn_q", "tan_q"):
        with pytest.raises(RangeError, match=r"sin_q\(pi\*w\) factors overflowed"):
            qtrig_product_any(kind, 9 / math.pi, p)
