import cmath
import math
import random

import mpmath as mp
import pytest

from thetaq import (
    ConvergenceError,
    DomainError,
    half_period_shift,
    make_param,
    qpochhammer,
    reduce_argument,
    theta_eval,
    theta_null,
    theta_sum,
)
from thetaq.params import EPS, MAX_TERMS
from thetaq.theta import PARTNER

TAU = 0.2 + 1.3j


def brute_theta(kind, z, tau, terms=50):
    """Independent oracle: direct bilateral summation at fixed width."""
    q = cmath.exp(1j * cmath.pi * tau)
    quarter = cmath.exp(1j * cmath.pi * tau / 4)
    ks = range(-terms, terms + 1)
    if kind == 1:
        return -1j * quarter * sum(
            (-1) ** k * q ** (k * (k + 1)) * cmath.exp(1j * (2 * k + 1) * z) for k in ks)
    if kind == 2:
        return quarter * sum(
            q ** (k * (k + 1)) * cmath.exp(1j * (2 * k + 1) * z) for k in ks)
    if kind == 3:
        return sum(q ** (k * k) * cmath.exp(2j * k * z) for k in ks)
    return sum((-1) ** k * q ** (k * k) * cmath.exp(2j * k * z) for k in ks)


# values frozen from the brute_theta / direct-product oracles
THETA3_NULL_I = 1.086434811213308
THETA2_NULL_I = 0.9135791381561168
QPOCH_HALF = 0.2887880950866024


def test_frozen_values_match_oracle():
    assert abs(brute_theta(3, 0, 1j) - THETA3_NULL_I) < 1e-15
    assert abs(brute_theta(2, 0, 1j) - THETA2_NULL_I) < 1e-15
    prod = 1.0
    for n in range(60):
        prod *= 1 - 0.5 * 0.5 ** n
    assert abs(prod - QPOCH_HALF) < 1e-15


def test_theta_null_values():
    p = make_param(1j)
    assert abs(theta_null(3, p) - THETA3_NULL_I) < 1e-13
    assert abs(theta_null(2, p) - THETA2_NULL_I) < 1e-13
    # tau = i is the self-dual point where the second and fourth constants agree
    assert abs(theta_null(4, p) - THETA2_NULL_I) < 1e-13
    assert abs(theta_null(2, p) - theta_null(4, p)) < 1e-14
    with pytest.raises(DomainError):
        theta_null(1, p)


def test_theta1_vanishes_at_zero():
    for tau in (1j, TAU, 0.5 + 0.9j):
        assert abs(theta_eval(1, 0, make_param(tau))) < 1e-15


def test_theta1_equals_theta2_at_quarter_pi():
    p = make_param(TAU)
    a = theta_eval(1, math.pi / 4, p)
    b = theta_eval(2, math.pi / 4, p)
    assert abs(a - b) <= 1e-12 * abs(b)


def test_qpochhammer_examples():
    assert qpochhammer(0, 0.77) == 1
    assert abs(qpochhammer(0.5, 0.5) - QPOCH_HALF) < 1e-14
    assert abs(qpochhammer(1, 0.5)) == 0
    with pytest.raises(DomainError):
        qpochhammer(0.5, 1.0)
    with pytest.raises(ConvergenceError):
        qpochhammer(0.5, 0.99)    # needs more than MAX_TERMS factors


def test_series_matches_brute_oracle():
    rng = random.Random(31)
    for _ in range(40):
        kind = rng.choice([1, 2, 3, 4])
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.7, 0.7))
        got = theta_eval(kind, z, make_param(tau))
        want = brute_theta(kind, z, tau)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _log_uniform_im_tau(rng):
    # Im tau from 0.05 (|q| ~ 0.85, about 40 series terms) to 5
    return 10 ** rng.uniform(math.log10(0.05), math.log10(5.0))


def test_series_matches_mpmath():
    # third-party oracle on top of the in-repo one
    rng = random.Random(13)
    for _ in range(25):
        kind = rng.choice([1, 2, 3, 4])
        tau = complex(rng.uniform(-0.4, 0.4), _log_uniform_im_tau(rng))
        z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.5, 0.5))
        p = make_param(tau)
        got = theta_eval(kind, z, p)
        want = complex(mp.jtheta(kind, z, mp.mpc(p.q)))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_path_agreement_series_vs_product():
    rng = random.Random(42)
    for _ in range(100):
        kind = rng.choice([1, 2, 3, 4])
        tau = complex(rng.uniform(-0.5, 0.5), _log_uniform_im_tau(rng))
        z = complex(rng.uniform(-math.pi / 2, math.pi / 2),
                    rng.uniform(-0.6, 0.6))
        p = make_param(tau)
        a = theta_eval(kind, z, p, method="series")
        b = theta_eval(kind, z, p, method="product")
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_parity():
    rng = random.Random(5)
    for _ in range(60):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        z = complex(rng.uniform(-1.4, 1.4), rng.uniform(-0.6, 0.6))
        p = make_param(tau)
        odd = theta_eval(1, -z, p)
        assert abs(odd + theta_eval(1, z, p)) <= 1e-13 * max(1.0, abs(odd))
        for kind in (2, 3, 4):
            even = theta_eval(kind, -z, p)
            assert abs(even - theta_eval(kind, z, p)) <= 1e-13 * abs(even)


def test_reduce_argument_identity_inside_box():
    p = make_param(TAU)
    z = 0.3 + 0.4j
    res = reduce_argument(3, z, p)
    assert res.multiplier == 1 and res.new_z == z and res.new_kind == 3


def test_reduce_argument_single_shifts():
    p = make_param(TAU)
    z0 = 0.21 - 0.17j
    res = reduce_argument(1, z0 + math.pi, p)
    assert abs(res.new_z - z0) < 1e-12
    assert abs(res.multiplier + 1) < 1e-12
    res = reduce_argument(3, z0 + math.pi * p.tau, p)
    want = cmath.exp(-2j * z0) / p.q
    assert abs(res.new_z - z0) < 1e-12
    assert abs(res.multiplier - want) <= 1e-12 * abs(want)


def test_reduction_soundness_up_to_three_periods():
    rng = random.Random(77)
    for _ in range(60):
        kind = rng.choice([1, 2, 3, 4])
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.4))
        p = make_param(tau)
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        z_red = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.5, 0.5))
        z = z_red + a * math.pi + b * math.pi * tau
        res = reduce_argument(kind, z, p)
        direct = theta_eval(kind, z, p)
        via = res.multiplier * theta_eval(kind, res.new_z, p)
        assert abs(res.new_z.imag) <= math.pi * tau.imag / 2 + 1e-9
        assert abs(res.new_z.real) <= math.pi / 2 + 1e-9
        assert abs(direct - via) <= 1e-11 * max(1.0, abs(via))


def test_half_period_shift_rows():
    p = make_param(TAU)
    rule = half_period_shift(2, 0.0, p)
    assert rule.new_kind == 3
    assert abs(rule.multiplier - 1 / p.q_quarter) < 1e-13
    rule = half_period_shift(1, 0.0, p)
    assert rule.new_kind == 4
    assert abs(rule.multiplier - 1j / p.q_quarter) < 1e-13

    rng = random.Random(3)
    for kind in (1, 2, 3, 4):
        for _ in range(20):
            z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.4, 0.4))
            rule = half_period_shift(kind, z, p)
            lhs = theta_eval(kind, z + math.pi * p.tau / 2, p)
            rhs = rule.multiplier * theta_eval(rule.new_kind, z, p)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_half_period_numeric_example():
    p = make_param(TAU)
    z = 0.3
    rule = half_period_shift(4, z, p)
    lhs = theta_eval(4, z + math.pi * p.tau / 2, p)
    rhs = rule.multiplier * theta_eval(1, z, p)
    assert rule.new_kind == 1
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_convergence_error_instead_of_silent_precision_loss():
    p = make_param(1.1j)
    with pytest.raises(ConvergenceError):
        theta_eval(3, 50j, p)
    with pytest.raises(ConvergenceError):
        theta_eval(3, 0.1, make_param(1e-5j))
    with pytest.raises(ConvergenceError):
        theta_eval(2, 0.1, make_param(1e-5j))


def test_huge_imaginary_argument_raises_convergence_error():
    # exp(2iz) under- or overflows at |Im z| = 800; the q -> 0 branch
    # (tau = 1000i underflows the nome) must not return a value either
    for tau in (1.1j, 1000j):
        p = make_param(tau)
        for kind in (1, 2, 3, 4):
            for z in (800j, -800j):
                with pytest.raises(ConvergenceError, match="overflowed double range"):
                    theta_sum(kind, z, p)
                with pytest.raises(ConvergenceError):
                    theta_eval(kind, z, p)


def test_product_path_huge_imaginary_argument_raises_convergence_error():
    # e^(2iz) under- or overflows past |Im z| = log(DBL_MAX)/2 for every
    # kind; closer in, the partial products overflow to inf/nan
    p = make_param(1j)
    for kind, z in ((3, 800j), (1, 400j), (4, -800j), (2, -400j), (3, 300j)):
        with pytest.raises(ConvergenceError, match="product overflowed double range"):
            theta_eval(kind, z, p, method="product")


def table_free_sum(kind, z, p):
    """theta_sum without the per-nome power tables or the tail pre-test:
    q ** (k*(k+odd)) for every term and the full tail test at every k."""
    odd = 1 if kind in (1, 2) else 0
    up = cmath.exp((2 - odd) * 1j * z)
    um = 1 / up
    step, step_inv = (up * up, um * um) if odd else (up, um)
    ln_q, ln_eps, imz2 = math.log(abs(p.q)), math.log(EPS), 2.0 * abs(z.imag)
    total = 0j if odd else 1 + 0j
    for k in range(1 - odd, MAX_TERMS + 1):
        qk = p.q ** (k * (k + odd))
        term = qk * (up - um) if kind == 1 else qk * (up + um)
        total += -term if kind in (1, 4) and k % 2 else term
        ln_ratio = (2 * k + 1 + odd) * ln_q + imz2
        if ln_ratio < 0.0:
            ln_bound = math.log(2.0) + (k * (k + odd)) * ln_q + (k + odd / 2) * imz2
            if ln_bound + ln_ratio - math.log1p(-math.exp(ln_ratio)) < ln_eps:
                return total
        up *= step
        um *= step_inv
    raise ConvergenceError("no convergence")


def value_bits(v):
    return v.real.hex(), v.imag.hex()


def pair_oracle(kind, z, p):
    return [value_bits(table_free_sum(k, z, p)) for k in (kind, PARTNER[kind])]


def test_power_tables_do_not_change_values():
    # both sums of every pair, bit for bit, whether their powers come from a
    # cold table or a grown one
    p = make_param(0.37 + 0.05j)   # a tau no other test uses: cold tables
    long_z = 0.1 - 4j       # about 55 terms, where 3 to 6 are typical
    points = [(kind, z) for kind in (1, 2, 3, 4)
              for z in (0.0, -0.0, 0.3 + 0.2j, complex(-0.7, -0.0), complex(-0.0, 0.2))]
    before = [list(map(value_bits, theta_sum(kind, z, p))) for kind, z in points]
    grown = [list(map(value_bits, theta_sum(kind, long_z, p))) for kind in (1, 2, 3, 4)]
    assert min(len(table) for table in p.powers) > 50
    after = [list(map(value_bits, theta_sum(kind, z, p))) for kind, z in points]
    oracle = [pair_oracle(kind, z, p) for kind, z in points]
    assert before == after == oracle
    assert grown == [pair_oracle(kind, long_z, p) for kind in (1, 2, 3, 4)]

    # |q| = 0.9999 needs about 600 terms: every sum exhausts MAX_TERMS, and
    # the tables stop at its last power
    capped = make_param(3e-5j)
    for kind in (1, 2, 3, 4):
        with pytest.raises(ConvergenceError, match="in 256 terms"):
            theta_sum(kind, 0.2 + 0.01j, capped)
    assert [len(table) for table in capped.powers] == [MAX_TERMS + 1] * 2


def test_kind_validation():
    with pytest.raises(DomainError):
        theta_eval(5, 0, make_param(1j))
    with pytest.raises(DomainError):
        theta_eval(3, 0, make_param(1j), method="quadrature")


def test_method_is_keyword_only():
    # keyword-only, so no positional argument is ever taken for the method
    p = make_param(1j)
    with pytest.raises(TypeError):
        theta_eval(3, 0.3, p, "product")
    with pytest.raises(TypeError):
        theta_null(3, p, "product")
    assert theta_null(3, p, method="product") == theta_eval(3, 0.0, p, method="product")


def test_shift_multiplier_out_of_range_raises_convergence_error():
    # q underflows to 0 above Im tau ~ 237 and q^(1/4) above ~ 948, so the
    # multipliers 1/q^(b^2) and 1/q^(1/4) would divide by zero; far shifts
    # at a modest tau overflow q^(-b^2) itself
    for call in (lambda: reduce_argument(3, 0.3 + 1000j, make_param(300j)),
                 lambda: reduce_argument(3, 0.3 + 1000j, make_param(0.5j)),
                 lambda: half_period_shift(1, 0.3, make_param(1000j)),
                 lambda: half_period_shift(2, 0.3 + 800j, make_param(1.1j))):
        with pytest.raises(ConvergenceError, match="multiplier overflowed double range"):
            call()
    # in range, the q -> 0 side still shifts
    assert half_period_shift(2, 0.3, make_param(300j)).new_kind == 3
