import random

import pytest

from thetaq import (
    DomainError,
    Gaussian,
    GradeMismatch,
    GradedSeries,
    LaurentPoly,
    OrderUnderflow,
    geometric_factors,
    pochhammer_product,
    series_equal,
    shift_argument,
    shift_margin,
    theta_series,
)


def table(series):
    """{(quarter_grade, monomial): (re, im)} for literal comparisons."""
    return {(g, mono): (c.re, c.im) for g, mono, c in series.terms_abs()}


# ---------------------------------------------------------------------------
# Gaussian integers and Laurent polynomials
# ---------------------------------------------------------------------------


def test_gaussian_arithmetic():
    a = Gaussian(2, -1)
    b = Gaussian(-3, 4)
    assert a + b == Gaussian(-1, 3)
    assert a - b == Gaussian(5, -5)
    assert a * b == Gaussian(-2, 11)
    assert -a == Gaussian(-2, 1)
    assert Gaussian(0, 1) * Gaussian(0, 1) == Gaussian(-1, 0)
    assert not Gaussian(0, 0)
    assert str(Gaussian(0, -1)) == "-i"
    assert str(Gaussian(2, 3)) == "2+3i"
    assert complex(a) == 2 - 1j


def test_laurent_poly_matches_dict_convolution_oracle():
    rng = random.Random(6)

    def random_poly():
        return {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-5, 5)
                for _ in range(rng.randint(1, 6))}

    def oracle_mul(d1, d2):
        out = {}
        for m1, c1 in d1.items():
            for m2, c2 in d2.items():
                m = (m1[0] + m2[0], m1[1] + m2[1])
                out[m] = out.get(m, 0) + c1 * c2
        return {m: c for m, c in out.items() if c}

    for _ in range(30):
        d1, d2 = random_poly(), random_poly()
        got = LaurentPoly(d1) * LaurentPoly(d2)
        want = oracle_mul({m: c for m, c in d1.items() if c},
                          {m: c for m, c in d2.items() if c})
        assert {m: (c.re, c.im) for m, c in got.terms.items()} == \
               {m: (c, 0) for m, c in want.items()}


def test_laurent_poly_flip():
    poly = LaurentPoly({(1, 0): 1, (-2, 1): 3, (0, 3): -2})
    flipped = poly.flip_var_sign("u")
    assert flipped.terms[(1, 0)] == Gaussian(-1)
    assert flipped.terms[(-2, 1)] == Gaussian(3)
    flipped_v = poly.flip_var_sign("v")
    assert flipped_v.terms[(0, 3)] == Gaussian(2)


# ---------------------------------------------------------------------------
# theta series generation
# ---------------------------------------------------------------------------


def test_theta3_series_low_order():
    s = theta_series(3, 1, (1, 0), 4)
    assert s.quarter_prefactor == 0
    assert table(s) == {
        (0, (0, 0)): (1, 0),
        (4, (2, 0)): (1, 0), (4, (-2, 0)): (1, 0),
        (16, (4, 0)): (1, 0), (16, (-4, 0)): (1, 0),
    }


def test_theta1_series_low_order():
    s = theta_series(1, 1, (1, 0), 2)
    assert s.quarter_prefactor == 1
    assert table(s) == {
        (1, (1, 0)): (0, -1), (1, (-1, 0)): (0, 1),
        (9, (3, 0)): (0, 1), (9, (-3, 0)): (0, -1),
    }


def test_theta4_double_nome_two_variables():
    s = theta_series(4, 2, (1, -1), 4)
    assert s.quarter_prefactor == 0
    assert table(s) == {
        (0, (0, 0)): (1, 0),
        (8, (2, -2)): (-1, 0), (8, (-2, 2)): (-1, 0),
    }


def test_theta_series_validation():
    with pytest.raises(DomainError, match=r"theta kind must be 1\.\.4, got 5"):
        theta_series(5, 1, (1, 0), 4)
    with pytest.raises(DomainError):
        theta_series(3, 3, (1, 0), 4)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_add_negate_cancels():
    s = theta_series(2, 1, (1, 0), 8)
    zero = s + (-s)
    assert zero.is_zero()
    assert zero.boundary == s.boundary


def test_add_zero_truncates_to_the_lower_boundary():
    s = theta_series(2, 1, (1, 0), 8)            # prefactor q^(1/4), exact through q^(33/4)
    low = {k: v for k, v in table(s).items() if k[0] <= 13}
    zero = GradedSeries.zero(13)
    for total, want in ((s + zero, low), (zero + s, low), (s - zero, low),
                        (zero - s, {k: (-re, -im) for k, (re, im) in low.items()})):
        assert (total.quarter_prefactor, total.boundary) == (1, 13)
        assert table(total) == want
    # a zero exact below the prefactor leaves no coefficient, nor do two zeros
    for total, bound in ((s + GradedSeries.zero(0), 0),
                         (GradedSeries.zero(5) - GradedSeries.zero(9), 5)):
        assert total.is_zero() and total.boundary == bound


def test_mul_by_one_is_identity():
    s = theta_series(3, 1, (1, 0), 8)
    one = GradedSeries.one(8)
    assert series_equal(s * one, s).equal


def test_product_matches_brute_convolution():
    # multiply theta2 and theta3 truncations with a dict-based oracle
    order = 2
    s2 = theta_series(2, 1, (1, 0), order)
    s3 = theta_series(3, 1, (1, 0), order)

    def as_dict(series):
        return {(g, mono): complex(c) for g, mono, c in series.terms_abs()}

    def oracle(d1, d2, bound):
        out = {}
        for (g1, m1), c1 in d1.items():
            for (g2, m2), c2 in d2.items():
                g = g1 + g2
                if g > bound:
                    continue
                m = (m1[0] + m2[0], m1[1] + m2[1])
                out[(g, m)] = out.get((g, m), 0) + c1 * c2
        return {k: v for k, v in out.items() if v}

    got = s2 * s3
    want = oracle(as_dict(s2), as_dict(s3), got.boundary)
    assert {k: complex(c) for (k), c in
            {(g, m): c for g, m, c in got.terms_abs()}.items()} == want


def test_mul_commutative_and_associative():
    a = theta_series(1, 1, (1, 0), 6)
    b = theta_series(2, 1, (0, 1), 6)
    c = theta_series(3, 2, (1, -1), 6)
    assert series_equal(a * b, b * a).equal
    assert series_equal((a * b) * c, a * (b * c)).equal


def test_add_prefactor_mismatch_raises():
    with pytest.raises(GradeMismatch):
        theta_series(1, 1, (1, 0), 4) + theta_series(3, 1, (1, 0), 4)


def test_scale_by_gaussian():
    s = theta_series(3, 1, (1, 0), 4)
    doubled = s.scale(2)
    assert series_equal(doubled, s + s).equal
    rotated = s.scale(Gaussian(0, 1)).scale(Gaussian(0, -1))
    assert series_equal(rotated, s).equal


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------


def test_pi_shift_signs():
    t1 = theta_series(1, 1, (1, 0), 10)
    assert series_equal(shift_argument(t1, "plus_pi", "u"), -t1).equal
    t3 = theta_series(3, 1, (1, 0), 10)
    assert series_equal(shift_argument(t3, "plus_pi", "u"), t3).equal


def test_half_period_shift_matches_swapped_kind():
    # theta2(z + pi*tau/2) = q^(-1/4) u^(-1) theta3(z), exactly to the order
    order = 12
    wide = theta_series(2, 1, (1, 0), order + shift_margin(order))
    lhs = shift_argument(wide, "plus_half_pi_tau", "u")
    mult = GradedSeries.from_poly(LaurentPoly.monomial(-1, 0), -1, order + 1)
    rhs = mult * theta_series(3, 1, (1, 0), order + 1)
    match = series_equal(lhs, rhs)
    assert match.equal and match.boundary >= 4 * order


def test_pi_tau_shift_matches_multiplier_rule():
    # theta4(z + pi*tau) = -q^(-1) u^(-2) theta4(z)
    order = 10
    wide = theta_series(4, 1, (1, 0), order + shift_margin(order))
    lhs = shift_argument(wide, "plus_pi_tau", "u")
    mult = GradedSeries.from_poly(LaurentPoly.monomial(-2, 0), -4, order + 2)
    rhs = (mult * theta_series(4, 1, (1, 0), order + 2)).scale(-1)
    match = series_equal(lhs, rhs)
    assert match.equal and match.boundary >= 4 * order


def test_shift_margin_is_stable():
    # enlarging the generation margin must not change certified coefficients
    order = 8
    small = shift_argument(
        theta_series(2, 1, (1, 0), order + shift_margin(order)),
        "plus_pi_tau", "u")
    large = shift_argument(
        theta_series(2, 1, (1, 0), order + shift_margin(order) + 15),
        "plus_pi_tau", "u")
    match = series_equal(small, large)
    assert match.equal and match.boundary >= 4 * order


def test_shift_underflow_and_grade_mixing():
    lone = GradedSeries.from_poly(LaurentPoly.monomial(1, 0), 0, 0)
    with pytest.raises(OrderUnderflow):
        shift_argument(lone, "plus_pi_tau", "u")
    mixed = GradedSeries.from_poly(
        LaurentPoly({(1, 0): 1, (2, 0): 1}), 0, 3)
    with pytest.raises(GradeMismatch):
        shift_argument(mixed, "plus_half_pi_tau", "u")


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_euler_product_expansion():
    # (q^2;q^2)_inf to q^6: pentagonal-number pattern over the even nome
    got = pochhammer_product(geometric_factors(-1, 2, 2, None, 6), 6)
    assert table(got) == {
        (0, (0, 0)): (1, 0),
        (8, (0, 0)): (-1, 0),
        (16, (0, 0)): (-1, 0),
    }
    # direct multiplication oracle with ten explicit factors
    oracle = {0: 1}
    for n in range(1, 11):
        nxt = dict(oracle)
        for g, c in oracle.items():
            if g + 2 * n <= 6:
                nxt[g + 2 * n] = nxt.get(g + 2 * n, 0) - c
        oracle = {g: c for g, c in nxt.items() if c and g <= 6}
    assert {g // 4: c[0] for (g, _), c in table(got).items()} == \
           {g: c for g, c in oracle.items()}


def test_empty_factor_list_gives_one():
    got = pochhammer_product([], 5)
    assert table(got) == {(0, (0, 0)): (1, 0)}


def test_theta4_product_equals_series():
    order = 4
    factors = (geometric_factors(-1, 2, 2, None, order)
               + geometric_factors(-1, 1, 2, (2, 0), order)
               + geometric_factors(-1, 1, 2, (-2, 0), order))
    product = pochhammer_product(factors, order)
    match = series_equal(product, theta_series(4, 1, (1, 0), order))
    assert match.equal


def test_factor_validation():
    with pytest.raises(DomainError):
        pochhammer_product([(2, 1, None)], 4)
    with pytest.raises(DomainError):
        pochhammer_product([(1, 0, None)], 4)


# ---------------------------------------------------------------------------
# the accumulating kernel against the per-pair loops it replaced
# ---------------------------------------------------------------------------


def pairwise_poly_mul(p1, p2):
    """LaurentPoly product one Gaussian term at a time: the oracle."""
    out = {}
    for (a1, b1), c1 in p1.terms.items():
        for (a2, b2), c2 in p2.terms.items():
            mono = (a1 + a2, b1 + b2)
            s = out.get(mono, Gaussian(0)) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return LaurentPoly(out)


def pairwise_mul(x, y):
    """GradedSeries product with one LaurentPoly per grade pair (n1, n2),
    added into grade n1 + n2: the oracle."""
    if x.is_zero() or y.is_zero():
        return GradedSeries.zero(min(x.boundary + y.quarter_prefactor,
                                     y.boundary + x.quarter_prefactor))
    order = min(x.order, y.order)
    out = {}
    for n1, p1 in x.coeffs.items():
        for n2, p2 in y.coeffs.items():
            n = n1 + n2
            if n > order:
                continue
            prod = pairwise_poly_mul(p1, p2)
            if n in out:
                prod = out[n] + prod
            if prod.is_zero():
                out.pop(n, None)
            else:
                out[n] = prod
    return GradedSeries(x.quarter_prefactor + y.quarter_prefactor, out, order)


def factor_by_factor_pochhammer(factors, order):
    """pochhammer_product as acc * (1 + s q^c m), one factor at a time."""
    acc = GradedSeries.one(order)
    for sign, c, mono in factors:
        if sign not in (1, -1):
            raise DomainError("factor sign must be +-1, got %r" % (sign,))
        c = int(c)
        if c < 1:
            raise DomainError("factor nome power must be >= 1, got %d" % c)
        if c > order:
            continue
        mono = (0, 0) if mono is None else (int(mono[0]), int(mono[1]))
        factor = GradedSeries(0, {0: LaurentPoly.constant(1),
                                  c: LaurentPoly.monomial(*mono, coeff=sign)}, order)
        acc = pairwise_mul(acc, factor)
    return acc


def snapshot(series):
    """Prefactor, order and the full coefficient table, as plain values."""
    return (series.quarter_prefactor, series.order,
            {n: {m: (c.re, c.im) for m, c in p.terms.items()}
             for n, p in series.coeffs.items()})


def assert_clean(series):
    assert all(p.terms for p in series.coeffs.values()), "empty grade stored"
    assert all(c for p in series.coeffs.values() for c in p.terms.values()), \
        "zero coefficient stored"


def random_series(rng, order):
    def coeff():
        big = 2 ** rng.randint(0, 90)
        return Gaussian(rng.randint(-big, big), rng.choice([0, rng.randint(-big, big)]))

    coeffs = {}
    for n in rng.sample(range(order + 1), rng.randint(0, min(order + 1, 4))):
        coeffs[n] = LaurentPoly({(rng.randint(-2, 2), rng.randint(-1, 1)): coeff()
                                 for _ in range(rng.randint(1, 4))})
    return GradedSeries(rng.randint(-6, 6), coeffs, order)


def test_fused_product_matches_pairwise_oracle():
    rng = random.Random(13)
    u, v = LaurentPoly.monomial(1, 0), LaurentPoly.monomial(0, 1)
    cases = [
        # (1 + q u)(1 - q u): grade 1 cancels, the q^2 u^2 term survives
        (GradedSeries(0, {0: LaurentPoly.constant(1), 1: u}, 3),
         GradedSeries(0, {0: LaurentPoly.constant(1), 1: -u}, 3)),
        # (1 + q u)(u - q u^2): all of grade 1 cancels, an empty grade
        (GradedSeries(0, {0: LaurentPoly.constant(1), 1: u}, 2),
         GradedSeries(0, {0: u, 1: LaurentPoly.monomial(2, 0, coeff=-1)}, 2)),
        # (u + v)(u - v) in one grade: only the cross terms cancel
        (GradedSeries.from_poly(u + v, 1, 0), GradedSeries.from_poly(u - v, 3, 0)),
        (GradedSeries.zero(7), theta_series(1, 1, (1, 0), 4)),
        (theta_series(2, 2, (1, -1), 5), GradedSeries.zero(-3)),
        (GradedSeries.one(0), theta_series(3, 1, (0, 1), 0)),
    ]
    for _ in range(400):
        cases.append((random_series(rng, rng.randint(0, 6)),
                      random_series(rng, rng.randint(0, 6))))
    for x, y in cases:
        before = (snapshot(x), snapshot(y))
        got = x * y
        assert snapshot(got) == snapshot(pairwise_mul(x, y)), (x, y)
        assert_clean(got)
        assert (snapshot(x), snapshot(y)) == before
    assert snapshot(cases[0][0] * cases[0][1])[2] == {0: {(0, 0): (1, 0)},
                                                      2: {(2, 0): (-1, 0)}}
    assert 1 not in (cases[1][0] * cases[1][1]).coeffs


def test_fused_poly_product_matches_pairwise_oracle():
    rng = random.Random(14)
    for _ in range(300):
        p1, p2 = (random_series(rng, 0).coeffs.get(0, LaurentPoly()) for _ in range(2))
        before = (dict(p1.terms), dict(p2.terms))
        got = p1 * p2
        assert got.terms == pairwise_poly_mul(p1, p2).terms
        assert all(got.terms.values())
        assert (p1.terms, p2.terms) == before


def test_shift_and_add_pochhammer_matches_factor_by_factor_oracle():
    rng = random.Random(15)

    def random_factor(order):
        mono = rng.choice([None, (rng.randint(-2, 2), rng.randint(-1, 1))])
        return rng.choice([1, -1]), rng.randint(1, order + 3), mono

    cases = [([], 0), ([], 5), ([(1, 1, None)], 0), ([(1, 4, (1, 0))], 3),
             # (1 + q u)(1 - q u) and (1 - q)(1 + q): grade 1 cancels
             ([(1, 1, (1, 0)), (-1, 1, (1, 0))], 4), ([(-1, 1, None), (1, 1, None)], 3),
             (geometric_factors(-1, 1, 1, None, 12), 12)]
    for _ in range(300):
        order = rng.randint(0, 10)
        cases.append(([random_factor(order) for _ in range(rng.randint(0, 8))], order))
    for factors, order in cases:
        before = list(factors)
        got = pochhammer_product(factors, order)
        assert snapshot(got) == snapshot(factor_by_factor_pochhammer(factors, order)), \
            (factors, order)
        assert_clean(got)
        assert factors == before
    assert snapshot(pochhammer_product([(1, 1, (1, 0)), (-1, 1, (1, 0))], 4)) == \
           (0, 4, {0: {(0, 0): (1, 0)}, 2: {(2, 0): (-1, 0)}})
    # an invalid factor raises as in the oracle, even after one past the order
    for bad in ([(1, 9, None), (2, 1, None)], [(1, 9, None), (1, 0, None)],
                [(0, 0, None)]):
        with pytest.raises(DomainError) as want:
            factor_by_factor_pochhammer(bad, 4)
        with pytest.raises(DomainError) as got:
            pochhammer_product(bad, 4)
        assert str(got.value) == str(want.value)



# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def test_series_equal_self():
    s = theta_series(2, 2, (1, 1), 8)
    assert series_equal(s, s).equal


def test_series_equal_reports_lowest_mismatch():
    t3 = theta_series(3, 1, (1, 0), 8)
    t4 = theta_series(4, 1, (1, 0), 8)
    match = series_equal(t3, t4)
    assert not match.equal
    assert match.mismatch.quarter_grade == 4         # the q^1 coefficient
    assert match.mismatch.monomial in ((2, 0), (-2, 0))
    assert (match.mismatch.lhs, match.mismatch.rhs) == (Gaussian(1), Gaussian(-1))
