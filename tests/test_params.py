import cmath
import gc
import math
import random
import weakref

import pytest

from thetaq import (
    DomainError,
    ModularParam,
    make_param,
    param_from_nome,
    qsquared_param,
    tau_prime,
    theta_eval,
    theta_sum,
)
from thetaq.params import EPS, LN_EPS, MAX_TERMS, PARAM_CACHE_SIZE
from thetaq.theta import theta_sum_null


def test_make_param_tau_i():
    # scalar-math oracle: q = exp(-pi), q^(1/4) = exp(-pi/4)
    p = make_param(1j)
    assert abs(p.q - math.exp(-math.pi)) < 1e-16
    assert abs(p.q - 0.0432139) < 1e-7
    assert abs(p.q_quarter - math.exp(-math.pi / 4)) < 1e-16
    assert abs(p.q_quarter - 0.4559381) < 1e-7


def test_make_param_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        make_param(-1j)
    with pytest.raises(DomainError):
        make_param(2.0)
    # |q| rounds to 1 (Im tau below ~1.8e-17), or tau is not finite
    for tau in (1e-20j, complex(math.inf, 1), complex(math.nan, 1),
                complex(0, math.inf)):
        with pytest.raises(DomainError):
            make_param(tau)


def test_make_param_forms_the_nome_at_re_tau_mod_8():
    # q and q^(1/4) have periods 2 and 8 in tau, and fmod is exact: a huge
    # Re tau, where pi * Re tau once overflowed or lost digits, costs none
    for tau in (6e307 + 1j, -6e307 + 2j, 6e307 + 1e-3j, 1e300 + 0.5j, 8.5 + 1j,
                -8.0 + 1j, 1e16 + 0.25j):
        p = make_param(tau)
        reduced = make_param(complex(math.fmod(tau.real, 8.0), tau.imag))
        assert p.tau == tau
        assert (p.q, p.q_quarter) == (reduced.q, reduced.q_quarter), tau
    # |Re tau| < 8 is left as it is, so the bits are those of the plain formula
    for tau in (0.3 + 1.1j, -7.99 + 0.5j, complex(-0.0, 2.0), 7.5 + 1e-3j):
        p = make_param(tau)
        assert p.q == cmath.exp(1j * cmath.pi * tau)
        assert p.q_quarter == cmath.exp(1j * cmath.pi * tau / 4)
    # a huge Im tau underflows both to 0 and still builds, whatever Re tau is;
    # only its double 2*tau leaves double range
    for tau in (1e308j, 1e308 + 1e308j):
        p = make_param(tau)
        assert p.q == 0 and p.q_quarter == 0
        with pytest.raises(DomainError, match=r"is too large: 2\*tau is not finite"):
            qsquared_param(p)


def test_quarter_nome_fourth_power_matches_nome():
    rng = random.Random(11)
    for _ in range(50):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3))
        p = make_param(tau)
        assert abs(p.q_quarter ** 4 - p.q) <= 1e-14 * abs(p.q)


def test_tau_prime_examples():
    assert tau_prime(make_param(1j)).tau == 1j
    assert abs(tau_prime(make_param(2j)).tau - 0.5j) < 1e-15
    tau = 0.3 + 1.1j
    expected = (-0.3 + 1.1j) / (0.3 ** 2 + 1.1 ** 2)  # complex reciprocal oracle
    assert abs(tau_prime(make_param(tau)).tau - expected) < 1e-15


def test_tau_prime_is_involution():
    rng = random.Random(7)
    for _ in range(50):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3))
        back = tau_prime(tau_prime(make_param(tau))).tau
        assert abs(back - tau) <= 1e-14 * abs(tau)


def test_param_from_nome_round_trip():
    for q in (0.5, 0.9, 0.2 + 0.1j):
        p = param_from_nome(q)
        assert abs(p.q - q) < 1e-14
        assert p.tau.imag > 0
    with pytest.raises(DomainError):
        param_from_nome(1.0)
    with pytest.raises(DomainError):
        param_from_nome(0.0)


def test_nome_in_unit_disk():
    rng = random.Random(4)
    for _ in range(30):
        p = make_param(complex(rng.uniform(-3, 3), rng.uniform(0.01, 4)))
        assert abs(p.q) < 1


def test_make_param_is_memoised():
    tau = 0.41 + 0.77j
    assert make_param(tau) is make_param(tau)
    assert make_param(tau) is make_param(complex(tau))
    # 0.0 == -0.0, yet the cached param must keep the argument's bits
    plus, minus = make_param(complex(0.0, 1.0)), make_param(complex(-0.0, 1.0))
    assert math.copysign(1.0, plus.tau.real) == 1.0
    assert math.copysign(1.0, minus.tau.real) == -1.0
    # an invalid tau is never cached: it raises on every call
    for tau in (-1j, 1e-20j):
        for _ in range(2):
            with pytest.raises(DomainError):
                make_param(tau)


def test_nome_state_is_not_part_of_equality():
    p = make_param(0.2 + 0.9j)
    used, fresh = (ModularParam(tau=p.tau, q=p.q, q_quarter=p.q_quarter)
                   for _ in range(2))
    theta_sum(1, 0.3 + 0.2j, used)     # fills used's tables and null cache
    theta_sum_null(3, used)
    theta_eval(3, 0.3, used, method="product")   # and its product cache
    assert tau_prime(used) is tau_prime(used) is make_param(-1 / p.tau)
    assert qsquared_param(used) is make_param(2 * p.tau)
    assert len(used.terms[1]) > len(fresh.terms[1]) and used.nulls and used.products
    assert not fresh.nulls and not fresh.products
    assert set(used.companions) == {"prime", "double"} and not fresh.companions
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == repr(p)


def test_companion_links_keep_no_param_alive():
    # a sweep over more tau than the cache holds frees the companions it
    # evicted, though their owner lives on; the next call rebuilds them
    p = make_param(0.37 + 0.71j)
    prime, double = weakref.ref(tau_prime(p)), weakref.ref(qsquared_param(p))
    assert p.companions["prime"]() is prime() and p.companions["double"]() is double()
    for k in range(PARAM_CACHE_SIZE):
        make_param(complex(k, 3.0))
    gc.collect()
    assert prime() is None and double() is None
    assert tau_prime(p) is tau_prime(p) is make_param(-1 / p.tau)
    assert qsquared_param(p) is make_param(2 * p.tau)


@pytest.mark.parametrize("re", [0.0, -0.0, 0.37])
def test_dead_companion_link_is_rebuilt_to_the_same_param(re):
    # a dead link is rebuilt through make_param from the same -1/tau and
    # 2*tau, so the cached param comes back, zero real part's sign and all
    p = make_param(complex(re, 0.9))
    prime, double = tau_prime(p), qsquared_param(p)
    dead = ModularParam(tau=p.tau, q=p.q, q_quarter=p.q_quarter)
    p.companions["prime"] = p.companions["double"] = weakref.ref(dead)
    del dead
    assert p.companions["prime"]() is None
    assert tau_prime(p) is prime is make_param(-1 / p.tau)
    assert qsquared_param(p) is double is make_param(2 * p.tau)
    for c, tau in ((prime, -1 / p.tau), (double, 2 * p.tau)):
        assert math.copysign(1.0, c.tau.real) == math.copysign(1.0, tau.real)
    assert p.companions["prime"]() is prime and p.companions["double"]() is double


def test_truncation_contract():
    # one stopping rule for every sum and product: a tail below a double's
    # rounding unit (2.2e-16), or at most 256 terms
    assert EPS == 1e-16 < 2 ** -52 and MAX_TERMS == 256
    assert LN_EPS == math.log(EPS)
