import cmath
import collections
import fractions
import itertools
import math
import random
import re
import sys
import threading

import mpmath as mp
import pytest

from thetaq import (
    ConvergenceError,
    DomainError,
    ModularParam,
    RangeError,
    ThetaQError,
    half_period_shift,
    make_param,
    qpochhammer,
    reduce_argument,
    theta_eval,
    theta_sum,
)
from thetaq import params as params_module
from thetaq import qtrig as qtrig_module
from thetaq import theta as theta_module
from thetaq.params import (
    EPS,
    MAX_TERMS,
    PochhammerContext,
    stop_threshold,
    tail_below_eps,
    theta_term,
)
from thetaq.qtrig import QTRIG_KINDS, qsquared_param, qtrig_product_any
from thetaq.theta import LOG_MIN, PARTNER, PREFIX_MARGIN

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


def test_qpochhammer_argument_whose_modulus_overflows():
    # both parts are finite, but |a| is above the largest double
    with pytest.raises(RangeError, match=r"\|a\| overflowed double range"):
        qpochhammer(complex(1.5e308, -1.5e308), 0.5)


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


def test_huge_re_tau_matches_mpmath_at_the_exact_tau():
    # mpmath forms q = exp(i*pi*tau) at the exact tau in 1100 bits, enough
    # for pi*Re tau at 1e300; its q^(1/4) is the principal root, which
    # differs from exp(i*pi*tau/4) by i^k, with 2k = Re tau minus its
    # representative in (-1, 1]
    for x in (1e3, 1e8, 1e8 + 5.5, 1e16, 1e300):
        p = make_param(complex(x, 1.0))
        with mp.workprec(1100):
            q = mp.exp(1j * mp.pi * mp.mpc(x, 1))
        k = math.ceil((fractions.Fraction(x) - 1) / 2)
        for kind in (1, 2, 3, 4):
            with mp.workprec(80):
                want = complex(mp.jtheta(kind, 0.3, q))
            if kind < 3:
                want *= (1, 1j, -1, -1j)[k % 4]
            for method in ("series", "product"):
                got = theta_eval(kind, 0.3, p, method=method)
                assert abs(got - want) <= 1e-13 * abs(want), (x, kind, method)


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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 18: reduce_argument subtracts a * math.pi, so z_red is off "
    "by about |a| * 1.2e-16"))
def test_reduce_argument_at_large_real_z_matches_mpmath():
    # mpmath at the exact z, in 1,200 bits, enough to reduce Re z = 1e300
    p = make_param(1.1j)
    for x in (1e7, 1e13, 1e17, 1e300):
        z = complex(x, 0.2)
        for kind in (1, 2, 3, 4):
            res = reduce_argument(kind, z, p)
            got = res.multiplier * theta_eval(kind, res.new_z, p)
            with mp.workprec(1200):
                want = complex(mp.jtheta(kind, mp.mpc(z), mp.mpc(p.q)))
            assert abs(got - want) <= 1e-15 * abs(want), (x, kind)


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


def tail_test(ln_q, k, odd, imz2):
    """The series tail test at index k and imz2 = 2|Im z|, every part of the
    bound formed afresh and no pre-test: ln_bound + ln r - log1p(-r) < ln EPS."""
    ln_ratio = (2 * k + 1 + odd) * ln_q + imz2
    if not ln_ratio < 0.0:
        return False
    ln_bound = math.log(2.0) + (k * (k + odd)) * ln_q + (k + odd / 2) * imz2
    return ln_bound + ln_ratio - math.log1p(-math.exp(ln_ratio)) < math.log(EPS)


def table_free_sum(kind, z, p):
    """theta_sum's sum of kind alone, without the per-nome term or stop
    tables: q ** (k*(k+odd)) formed afresh for each term, and tail_test run
    at every k.  Each error is theta_sum's, naming kind."""
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
    ln_q, imz2 = math.log(abs(p.q)), 2.0 * abs(z.imag)
    total = 0j if odd else 1 + 0j
    for k in range(1 - odd, MAX_TERMS + 1):
        qk = p.q ** (k * (k + odd))
        term = qk * (up - um) if kind == 1 else qk * (up + um)
        total += -term if kind in (1, 4) and k % 2 else term
        if tail_test(ln_q, k, odd, imz2):
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
    # their length, signed zeros, q tiny and q = 0, and every error
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
    for _ in range(150):
        # q tiny but not 0, and |Im z| far enough that the stepped factors
        # overflow; one odd and one even kind per point
        im_tau = 10 ** rng.uniform(math.log10(30.0), math.log10(237.0))
        p = make_param(complex(rng.uniform(-2, 2), im_tau))
        assert p.q != 0
        z = complex(rng.uniform(-3, 3), rng.uniform(-260, 260))
        for kind in (rng.choice([1, 2]), rng.choice([3, 4])):
            cases += [(kind, z, p), (kind, z, cold_copy(p))]
    outcomes = collections.Counter()
    for kind, z, p in cases:
        want = pair_outcome(pair_oracle, kind, z, p)
        assert pair_outcome(sum_bits, kind, z, p) == want, (kind, z, p.tau)
        outcomes[want[0] if want[0] in (ConvergenceError, RangeError) else "value"] += 1
    assert max(len(table) for table in grown.terms) > 30
    assert len(outcomes) == 3 and min(outcomes.values()) >= 4, outcomes


@pytest.mark.parametrize("tau, band", [(0.2 + 1.1j, (0.0, 0.1)), (-0.3 + 0.4j, (0.1, 0.5)),
                                       (0.1 + 0.08j, (0.5, 1.0))])
def test_stop_tables_hold_each_threshold(tau, band):
    # a cold param at small, mid and large |q|, both tables grown past 25
    # entries (the sums that grow them may overflow); M_k = stops[odd][k] is
    # where the tail test at k starts to fail
    p = cold_copy(make_param(tau))
    assert band[0] < abs(p.q) < band[1]
    for kind in (1, 3):
        pair_outcome(sum_bits, kind, complex(0.3, -20 * p.ln_abs_q), p)
    for odd, stops in enumerate(p.stops):
        assert len(stops) == len(p.terms[odd]) > 25
        assert stops == sorted(stops)
        for k in range(1 - odd, len(stops)):
            m = stops[k]
            assert not tail_test(p.ln_abs_q, k, odd, m), (odd, k)
            if m > 0:
                assert tail_test(p.ln_abs_q, k, odd, math.nextafter(m, 0.0)), (odd, k)
            # theta_sum at imz2 on the threshold and one double below it
            for imz2 in (m, math.nextafter(m, 0.0)):
                for kind in ((1, 2) if odd else (3, 4)):
                    z = complex(0.3, imz2 / 2)
                    assert pair_outcome(sum_bits, kind, z, p) == \
                        pair_outcome(pair_oracle, kind, z, p), (kind, k, imz2)


def test_stop_threshold_widens_its_bracket_around_a_poor_estimate(monkeypatch):
    # at Im tau = 0.02 and k = 24..29 three fixed-point steps leave the root
    # 2e7 to 6e7 ulps from the threshold; the bracket widens around it, so no
    # entry takes the 55 or 56 tests of a bisection of all of [0, -lnr]
    ln_q = -math.pi * 0.02
    q = complex(math.exp(ln_q))
    imz2s = []

    def counted(entry, imz2):
        imz2s.append(imz2)
        return tail_below_eps(entry, imz2)

    monkeypatch.setattr(params_module, "tail_below_eps", counted)
    for odd in (0, 1):
        for k in range(24, 30):
            del imz2s[:]
            m = stop_threshold(theta_term(q, ln_q, k, odd))
            assert len(imz2s) <= 40, (odd, k, len(imz2s))
            assert m > 0 and not tail_test(ln_q, k, odd, m), (odd, k)
            assert tail_test(ln_q, k, odd, math.nextafter(m, 0.0)), (odd, k)
    # from tail ratio 1 on the test fails, before log1p(-r) would raise,
    # even for an entry whose bound alone is far below EPS
    for imz2 in (1.0, 2.0, math.inf):
        assert not tail_below_eps((1.0, -1.0, -100.0, 0.0), imz2)


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
            assert [len(stops) for stops in p.stops] == lengths
            for odd, table in enumerate(p.terms):
                assert table == [theta_term(p.q, p.ln_abs_q, k, odd)
                                 for k in range(len(table))]
                thresholds = [-math.inf] if odd == 0 else []
                thresholds += [stop_threshold(entry) for entry in table[1 - odd:]]
                assert p.stops[odd] == list(itertools.accumulate(thresholds, max))
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


def takes_log_series(a, q):
    """Whether qpochhammer(a, q) ends in its log series: its count n of
    untested factors lies in [LOG_MIN, MAX_TERMS - 2] and -ln|q| exceeds
    2 PREFIX_MARGIN."""
    abs_a = abs(complex(a))
    if not 0.0 < abs_a < math.inf:
        return False
    nome = PochhammerContext(complex(q))
    ln_floor, ln_step = nome.ln_floor, nome.ln_step
    slack = math.log(abs_a) - ln_floor - PREFIX_MARGIN
    if slack < 0.0 or slack >= (MAX_TERMS - 1) * ln_step:
        return False
    return LOG_MIN <= int(slack / ln_step) + 1 <= MAX_TERMS - 2 and ln_step > 2 * PREFIX_MARGIN


def check_against_the_tested_loop(a, q, *nome):
    """qpochhammer(a, q, *nome) has reference_pochhammer's outcome: the same
    ConvergenceError, or a value.  On the factor path the value keeps its
    bits; on the log series it is within 1e-13 of max(1, |reference|), and
    finite where the reference is.  Returns the reference's outcome."""
    want = outcome(reference_pochhammer, a, q)
    if not takes_log_series(a, q):
        assert outcome(qpochhammer, a, q, *nome) == want, (a, q)
        return want
    ref, got = reference_pochhammer(a, q), qpochhammer(a, q, *nome)
    if cmath.isfinite(ref):
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (a, q)
    else:
        assert not cmath.isfinite(got), (a, q)
    return want


def test_untested_prefix_keeps_the_bits_of_the_tested_loop():
    # every |q| regime up to 1e-15 from 1, with a = 0, subnormal, infinite or
    # nan; the nome context given or built, and 256 factors not enough
    rng = random.Random(12)
    exhausted = series = 0
    for _ in range(6000):
        a, q = random_pochhammer_args(rng)
        want = check_against_the_tested_loop(a, q)
        check_against_the_tested_loop(a, q, PochhammerContext(q))
        exhausted += want[0] is ConvergenceError
        series += takes_log_series(a, q)
    assert exhausted > 500 and series > 100


def test_untested_prefix_stops_short_of_the_first_tested_stop():
    # real 0 < a < 1 and q in [1e-6, 0.9], ln(a q^j) placed 1e-6 to 5e-4
    # below ln(EPS (1 - q)): the tested loop stops at factor j, and a prefix
    # margin below -5e-4 would multiply in the factor (1 - a q^j) as well
    rng = random.Random(13)
    series = 0
    for _ in range(2000):
        q = 10 ** rng.uniform(-6, math.log10(0.9))
        nome = PochhammerContext(complex(q))
        ln_floor, ln_step = nome.ln_floor, nome.ln_step
        j = rng.randint(0, min(MAX_TERMS - 1, int(-ln_floor / ln_step)))
        a = math.exp(ln_floor - rng.uniform(1e-6, 5e-4) + j * ln_step)
        check_against_the_tested_loop(a, q)
        check_against_the_tested_loop(a, q, nome)
        series += takes_log_series(a, q)
    assert 100 < series < 1900


def test_log_series_keeps_the_convergence_error_next_to_q_1():
    # at |q| = 1 - 1e-12 a q^j falls by 1e-12 in log per factor, far less than
    # the prefix margin: the tested loop runs past MAX_TERMS though n is
    # short of it, so the log series must not stand in for it
    for q in (1 - 1e-12, cmath.rect(1 - 1e-13, 2.0)):
        nome = PochhammerContext(complex(q))
        a = math.exp(nome.ln_floor + PREFIX_MARGIN + 100.5 * nome.ln_step)
        assert not takes_log_series(a, q)
        with pytest.raises(ConvergenceError, match="needs more than 256 factors"):
            qpochhammer(a, q)


def test_log_series_is_as_accurate_as_the_tested_loop():
    # the log series against mpmath.qp at 40 digits, error relative to
    # max(1, |exact|), at the |q| of the q-trig product path and |a| around 1
    rng = random.Random(26)
    worst = {"series": 0.0, "loop": 0.0}
    cases = 0
    with mp.workdps(40):
        while cases < 120:
            q = cmath.rect(rng.uniform(0.1, 0.86), rng.uniform(-math.pi, math.pi))
            a = cmath.rect(10 ** rng.uniform(-4, 1), rng.uniform(-math.pi, math.pi))
            if not takes_log_series(a, q):
                continue
            cases += 1
            exact = mp.qp(mp.mpc(a), mp.mpc(q))
            scale = max(1, abs(exact))
            for path, f in (("series", qpochhammer), ("loop", reference_pochhammer)):
                worst[path] = max(worst[path], float(abs(f(a, q) - exact) / scale))
    assert worst["series"] <= worst["loop"] < 1e-14, worst


def record_product_path(monkeypatch):
    """(a, q, nome) of every qpochhammer call of theta_eval's product path and
    of the q-trig products, as a list the calls append to."""
    calls = []

    def recorded(a, q, *nome):
        calls.append((a, q, *nome))
        return qpochhammer(a, q, *nome)

    monkeypatch.setattr(theta_module, "qpochhammer", recorded)
    monkeypatch.setattr(qtrig_module, "qpochhammer", recorded)
    return calls


def product_path(p, z):
    """Outcomes of theta_eval's product path, four kinds, and the six q-trig
    products at z, all at p."""
    def one(f, *args, **kwargs):
        try:
            return value_bits(f(*args, **kwargs))
        except ThetaQError as exc:
            return type(exc), str(exc)

    return ([one(theta_eval, kind, z, p, method="product") for kind in (1, 2, 3, 4)]
            + [one(qtrig_product_any, kind, z / cmath.pi, p) for kind in QTRIG_KINDS])


def test_pochhammer_context_is_built_once_per_nome_and_shared(monkeypatch):
    # the param builds its context of nome q^2, log-series table included;
    # the theta and q-trig products pass that one object, and no call
    # builds another
    calls = record_product_path(monkeypatch)
    built = []

    def counted_context(q):
        built.append(q)
        return PochhammerContext(q)

    monkeypatch.setattr(theta_module, "PochhammerContext", counted_context)
    p = cold_copy(make_param(0.37 + 0.09j))
    nome, double = p.q2_context, qsquared_param(p).q2_context
    fresh = PochhammerContext(p.q * p.q)
    assert [getattr(nome, f) for f in nome.__slots__] == \
        [getattr(fresh, f) for f in fresh.__slots__] and len(nome.series) > 1
    with pytest.raises(AttributeError, match="immutable"):
        nome.q = fresh.q
    for kind in (1, 2, 3, 4):
        theta_eval(kind, 0.3 - 0.1j, p, method="product")
    theta_calls = len(calls)
    for kind in QTRIG_KINDS:
        qtrig_product_any(kind, 0.2 + 0.05j, p)
    assert built == [] and 0 < theta_calls < len(calls)
    assert all(c[2] is nome for c in calls[:theta_calls])
    assert {id(c[2]) for c in calls[theta_calls:]} == {id(nome), id(double)}
    assert all(c[1] is c[2].q for c in calls)


def test_concurrent_first_use_of_the_product_path_keeps_its_bits():
    # 8 threads take the product path of one cold param at once, with a
    # thread switch every microsecond, at |q^2| from 0.0019 to 0.73: every
    # value is the bits of a lone thread's
    points = (0.3 - 0.1j, 1.1 + 0.25j)
    taus = [0.05j, 0.3 + 0.05j, 0.55 + 0.3j, 0.9 + 0.3j, 1.0j, 1.5 + 0.12j]
    want = {tau: [product_path(cold_copy(make_param(tau)), z) for z in points]
            for tau in taus}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for tau in taus:
            p = cold_copy(make_param(tau))
            got = [None] * 8
            barrier = threading.Barrier(8, timeout=30)

            def work(i, p=p, got=got, barrier=barrier):
                barrier.wait()
                order = points[i % 2:] + points[:i % 2]
                got[i] = {z: product_path(p, z) for z in order}

            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for result in got:
                assert [result[z] for z in points] == want[tau], tau
    finally:
        sys.setswitchinterval(interval)


def test_product_path_calls_keep_the_tested_loop_bits_off_the_log_series(monkeypatch):
    # every qpochhammer call of the products at seeded tau and z: off the log
    # series the bits and errors of the tested loop, which are the bits of
    # every call before the context, and on it within 1e-13 of that loop
    calls = record_product_path(monkeypatch)
    rng = random.Random(29)
    for _ in range(150):
        p = make_param(complex(rng.uniform(-1.5, 1.5), 10 ** rng.uniform(-1.4, 1.4)))
        product_path(p, complex(rng.uniform(0.15, 1.35), rng.uniform(-0.2, 0.2)))
    monkeypatch.undo()
    series = 0
    for a, q, nome in calls:
        check_against_the_tested_loop(a, q, nome)
        series += takes_log_series(a, q)
    assert 200 < series < len(calls) - 200, (series, len(calls))


def test_a_context_of_another_nome_is_replaced():
    # the logs of |q| = 0.1 would give a value 6.3e-6 off, those of 0.95 a
    # false ConvergenceError; a context carries its q, so qpochhammer builds
    # the right one
    a, q = 0.5 + 0.1j, 0.7
    assert takes_log_series(a, q)
    want = value_bits(qpochhammer(a, q))
    for other in (0.1, 0.95):
        check_against_the_tested_loop(a, q, PochhammerContext(complex(other)))
        assert value_bits(qpochhammer(a, q, PochhammerContext(complex(other)))) == want


def test_theta_product_factor_is_computed_once_per_nome(monkeypatch):
    calls = []

    def counted(a, q, *nome):
        calls.append(a)
        return qpochhammer(a, q, *nome)

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


def test_non_finite_argument_raises_domain_error():
    # round() of a nan or inf shift count raised a bare ValueError or
    # OverflowError, the half-period multiplier came back nan, and the product
    # path's sin and cos raised a bare ValueError
    p = make_param(1.1j)
    nan, inf = math.nan, math.inf
    bad = [complex(nan, 0), complex(0, nan), complex(inf, 0), complex(-inf, 0),
           complex(0, inf), complex(0, -inf), complex(0.3, nan), complex(inf, 0.5)]
    for z in bad:
        for kind in (1, 2, 3, 4):
            for call in (reduce_argument, half_period_shift,
                         lambda k, z, p: theta_eval(k, z, p, method="product")):
                with pytest.raises(DomainError, match=r"needs a finite z, got z = %s"
                                   % re.escape(repr(z))):
                    call(kind, z, p)
    # the largest finite z still shifts, or overflows its multiplier as before
    big = sys.float_info.max
    assert reduce_argument(3, complex(big, 0.5), p).new_z == 0.5j
    assert half_period_shift(2, big, p).new_kind == 3
    with pytest.raises(RangeError, match="period multiplier overflowed"):
        reduce_argument(1, complex(0, big), p)
