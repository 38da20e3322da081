import cmath
import collections
import math
import random
import sys
import threading

import mpmath as mp
import pytest

from thetaq import (
    ConvergenceError,
    DomainError,
    ModularParam,
    RangeError,
    half_period_shift,
    make_param,
    qpochhammer,
    reduce_argument,
    theta_eval,
    theta_sum,
)
from thetaq import theta as theta_module
from thetaq.params import EPS, MAX_TERMS, pochhammer_logs, theta_term
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
    for method in ("series", "product"):
        null = {j: theta_eval(j, 0.0, p, method=method) for j in (2, 3, 4)}
        assert abs(null[3] - THETA3_NULL_I) < 1e-13
        assert abs(null[2] - THETA2_NULL_I) < 1e-13
        # tau = i is the self-dual point where the second and fourth constants agree
        assert abs(null[4] - THETA2_NULL_I) < 1e-13
        assert abs(null[2] - null[4]) < 1e-14


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
    """theta_sum's sum of kind alone, without the per-nome term tables or the
    tail pre-test: q ** (k*(k+odd)) and every part of the tail bound formed
    afresh for each term, and the full tail test at every k.  Each error is
    theta_sum's, naming kind."""
    odd = 1 if kind in (1, 2) else 0
    overflow = RangeError("theta%d series overflowed double range at z = %r "
                          "(reduce the argument first)" % (kind, z))
    if abs(z.imag) * (2 - odd) > math.log(sys.float_info.max):
        raise overflow
    try:
        up = cmath.exp((2 - odd) * 1j * z)
    except (ValueError, OverflowError):
        raise overflow from None
    um = 1 / up
    if p.q == 0:
        return (up - um if kind == 1 else up + um) if odd else 1 + 0j
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
                if not cmath.isfinite(total):
                    raise overflow
                return total
        up *= step
        um *= step_inv
    raise ConvergenceError("theta%d series did not meet eps=1e-16 in 256 terms "
                           "(reduce the argument?)" % kind)


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
    assert min(len(table) for table in p.terms) > 50
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
    assert [len(table) for table in capped.terms] == [MAX_TERMS + 1] * 2


def sum_bits(kind, z, p):
    return list(map(value_bits, theta_sum(kind, z, p)))


def pair_outcome(f, kind, z, p):
    """Both sums' bits, or the class and message of the error."""
    try:
        return f(kind, z, p)
    except (ConvergenceError, DomainError) as exc:
        return type(exc), str(exc)


def test_theta_sum_keeps_the_bits_of_the_table_free_sum():
    # every kind and |q| regime, cold and warm params, tables grown past
    # their length, signed zeros, the q = 0 branch, and every error
    rng = random.Random(14)
    cases = []
    for _ in range(600):
        im_tau = 10 ** rng.uniform(math.log10(0.05), math.log10(30.0))
        p = make_param(complex(rng.uniform(-2, 2), im_tau))
        zs = [complex(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5) * im_tau),
              complex(rng.uniform(-3, 3), rng.uniform(-12, 12)),
              complex(rng.choice([0.0, -0.0, 0.4]), rng.choice([0.0, -0.0, -0.3])),
              complex(rng.uniform(-1, 1), rng.choice([-1, 1]) * rng.uniform(340, 360)),
              complex(rng.choice([-1e308, 1e308, 1e300]), rng.uniform(-1, 1))]
        for z in zs:
            cases.append((rng.choice([1, 2, 3, 4]), z, rng.choice([p, cold_copy(p)])))
    grown = cold_copy(make_param(0.37 + 0.45j))
    cases += [(kind, z, grown) for z in (0.3 + 0.1j, 0.1 - 9j, 0.2 + 25j)
              for kind in (1, 2, 3, 4)]
    for im_tau in (240.0, 300.0, 1000.0):      # q underflows to 0
        cases += [(kind, z, make_param(complex(0.3, im_tau))) for kind in (1, 2, 3, 4)
                  for z in (0.5 - 0.2j, complex(-0.0, 0.0), 300j, 600j, 1e308)]
    capped = make_param(3e-5j)                 # |q| = 0.9999: 256 terms fall short
    cases += [(kind, 0.2 + 0.01j, capped) for kind in (1, 2, 3, 4)]
    outcomes = collections.Counter()
    for kind, z, p in cases:
        want = pair_outcome(pair_oracle, kind, z, p)
        assert pair_outcome(sum_bits, kind, z, p) == want, (kind, z, p.tau)
        outcomes[want[0] if want[0] in (ConvergenceError, RangeError) else "value"] += 1
    assert max(len(table) for table in grown.terms) > 30
    assert len(outcomes) == 3 and min(outcomes.values()) >= 4, outcomes


def cold_copy(p):
    """A ModularParam equal to p whose tables and caches are empty."""
    return ModularParam(tau=p.tau, q=p.q, q_quarter=p.q_quarter)


def test_concurrent_table_growth_keeps_one_entry_per_k():
    # 8 threads (more than the cores) grow the term tables of one cold param
    # at once, with a thread switch every microsecond; a check-then-append
    # would store some entry twice and shift every later one
    points = [(kind, z) for kind in (1, 2, 3, 4) for z in (0.1 - 4j, 0.2 + 3.5j)]
    taus = [complex(0.03 * i, 0.05 + 0.002 * i) for i in range(12)]
    want = {}
    for tau in taus:
        lone = cold_copy(make_param(tau))
        want[tau] = ([list(map(value_bits, theta_sum(kind, z, lone))) for kind, z in points],
                     [len(table) for table in lone.terms])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for tau in taus:
            p = cold_copy(make_param(tau))
            got = [None] * 8
            barrier = threading.Barrier(8, timeout=30)

            def work(i, p=p, got=got, barrier=barrier):
                barrier.wait()
                # each thread takes the points in its own rotation
                order = points[i:] + points[:i]
                got[i] = {pt: list(map(value_bits, theta_sum(*pt, p))) for pt in order}

            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            values, lengths = want[tau]
            for result in got:
                assert [result[pt] for pt in points] == values
            assert [len(table) for table in p.terms] == lengths
            for odd, table in enumerate(p.terms):
                assert table == [theta_term(p.q, p.ln_abs_q, k, odd)
                                 for k in range(len(table))]
    finally:
        sys.setswitchinterval(interval)


def test_huge_real_argument_raises_range_error():
    # 2*Re z overflows to inf in e^(2iz): a typed error, not a ValueError
    p = make_param(1.1j)
    for z in (1e308, -1e308, complex(1e308, 0.5)):
        for kind in (3, 4):
            with pytest.raises(RangeError, match="theta%d series overflowed" % kind):
                theta_sum(kind, z, p)
            with pytest.raises(RangeError):
                theta_eval(kind, z, p)
        for kind in (1, 2, 3, 4):
            with pytest.raises(RangeError, match="theta%d product overflowed" % kind):
                theta_eval(kind, z, p, method="product")
    # kinds 1, 2 step e^(iz), still in range; in range values keep their bits
    assert value_bits(theta_sum(1, 1e308, p)[0]) == value_bits(table_free_sum(1, 1e308, p))
    assert cmath.isfinite(theta_eval(2, 1e17, p, method="product"))


def reference_pochhammer(a, q):
    """qpochhammer without the untested prefix, the tail test run before
    every factor: the reference it must match bit for bit."""
    q = complex(q)
    aq = abs(q)
    if aq >= 1:
        raise DomainError("q-Pochhammer needs |q| < 1, got |q| = %g" % aq)
    a = complex(a)
    prod = 1 + 0j
    term = a
    for _ in range(MAX_TERMS):
        if abs(term) / (1.0 - aq) < EPS:
            return prod
        prod *= 1 - term
        term *= q
    raise ConvergenceError(
        "(a;q)_inf with |a|=%g, |q|=%g needs more than %d factors"
        % (abs(a), aq, MAX_TERMS))


def outcome(f, *args):
    try:
        return value_bits(f(*args))
    except ConvergenceError as exc:
        return type(exc), str(exc)


def random_pochhammer_args(rng):
    aq = rng.choice([10 ** rng.uniform(-300, -3), rng.random(),
                     1 - 10 ** rng.uniform(-3, -1), 1 - 10 ** rng.uniform(-15, -9)])
    q = cmath.rect(aq, rng.uniform(-math.pi, math.pi)) if rng.random() < 0.7 else complex(aq)
    a = rng.choice([0j, complex(5e-324 * rng.randint(1, 99), -0.0),
                    complex(math.inf, rng.choice([0.0, 1.0])), complex(math.nan, 1.0),
                    complex(1e308, -1e308), complex(-0.0, 0.0),
                    cmath.rect(10 ** rng.uniform(-40, 40), rng.uniform(-math.pi, math.pi))])
    return a, q


def test_untested_prefix_keeps_the_bits_of_the_tested_loop():
    # every |q| regime up to 1e-15 from 1, with a = 0, subnormal, infinite or
    # nan; the nome logs given or computed, and 256 factors not enough
    rng = random.Random(12)
    exhausted = 0
    for _ in range(6000):
        a, q = random_pochhammer_args(rng)
        want = outcome(reference_pochhammer, a, q)
        exhausted += want[0] is ConvergenceError
        assert outcome(qpochhammer, a, q) == want, (a, q)
        assert outcome(qpochhammer, a, q, pochhammer_logs(abs(q))) == want, (a, q)
    assert exhausted > 500


def test_untested_prefix_stops_short_of_the_first_tested_stop():
    # real 0 < a < 1 and q in [1e-6, 0.9], ln(a q^j) placed 1e-6 to 5e-4
    # below ln(EPS (1 - q)): the tested loop stops at factor j, and a prefix
    # margin below -5e-4 would multiply in the factor (1 - a q^j) as well
    rng = random.Random(13)
    for _ in range(2000):
        q = 10 ** rng.uniform(-6, math.log10(0.9))
        ln_floor, ln_step = pochhammer_logs(q)
        j = rng.randint(0, min(MAX_TERMS - 1, int(-ln_floor / ln_step)))
        a = math.exp(ln_floor - rng.uniform(1e-6, 5e-4) + j * ln_step)
        want = outcome(reference_pochhammer, a, q)
        assert outcome(qpochhammer, a, q) == want, (a, q, j)
        assert outcome(qpochhammer, a, q, (ln_floor, ln_step)) == want, (a, q, j)


def test_theta_product_factor_is_computed_once_per_nome(monkeypatch):
    calls = []

    def counted(a, q, *logs):
        calls.append(a)
        return qpochhammer(a, q, *logs)

    monkeypatch.setattr(theta_module, "qpochhammer", counted)
    p = cold_copy(make_param(0.31 + 0.83j))
    q2 = p.q * p.q
    points = [(kind, z) for kind in (1, 2, 3, 4) for z in (0.3, 0.2 - 0.4j)]
    first = [value_bits(theta_eval(kind, z, p, method="product")) for kind, z in points]
    assert calls.count(q2) == 1 and len(calls) == 1 + 2 * len(points)
    assert p.products == {"theta": qpochhammer(q2, q2)}
    again = [value_bits(theta_eval(kind, z, p, method="product")) for kind, z in points]
    assert first == again and len(calls) == 1 + 4 * len(points)
    # a call that raises caches nothing: (q^2;q^2) needs over 256 factors here
    slow = cold_copy(make_param(0.001j))
    for _ in range(2):
        with pytest.raises(ConvergenceError, match="needs more than 256 factors"):
            theta_eval(3, 0.1, slow, method="product")
    assert slow.products == {}


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
