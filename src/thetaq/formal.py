"""Exact truncated series in the nome with Laurent-polynomial coefficients.

A GradedSeries represents

    q^(quarter_prefactor/4) * sum_n coeffs[n] * q^n,      0 <= n <= order,

where each coeffs[n] is a Laurent polynomial in two unit variables u, v
(standing for e^(ix), e^(iy)) with exact Gaussian-integer coefficients.
Grades live in quarter powers of q so the q^(1/4) theta prefactors and the
half-period substitution e^(iz) -> q^(1/2) e^(iz) stay integer graded.

The representation is exact through the absolute quarter grade

    boundary = quarter_prefactor + 4 * order;

every operation tracks that boundary conservatively, so series_equal never
claims more agreement than both operands justify.  Identity certification
compares two independently built sides coefficient by coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import DomainError, GradeMismatch, OrderUnderflow
from .params import check_kind


class Gaussian:
    """Exact Gaussian integer a + b*i with arbitrary-size parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        self.re = re
        self.im = im

    def __add__(self, other: "Gaussian") -> "Gaussian":
        return Gaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Gaussian") -> "Gaussian":
        return Gaussian(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Gaussian":
        return Gaussian(-self.re, -self.im)

    def __mul__(self, other: "Gaussian") -> "Gaussian":
        return Gaussian(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Gaussian):
            return self.re == other.re and self.im == other.im
        if isinstance(other, int):
            return self.re == other and self.im == 0
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self) -> str:
        return "Gaussian(%d, %d)" % (self.re, self.im)

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            if self.im == 1:
                im = "i"
            elif self.im == -1:
                im = "-i"
            else:
                im = "%di" % self.im
            if parts and not im.startswith("-"):
                parts.append("+" + im)
            else:
                parts.append(im)
        return "".join(parts)


G_ZERO = Gaussian(0)


def _as_gaussian(c) -> Gaussian:
    if isinstance(c, Gaussian):
        return c
    if isinstance(c, int):
        return Gaussian(c)
    raise DomainError("coefficients must be Gaussian integers, got %r" % (c,))


class LaurentPoly:
    """Sparse Laurent polynomial in u, v over the Gaussian integers.

    Terms map an exponent pair (a, b) to a nonzero Gaussian coefficient;
    single-variable polynomials simply keep b = 0.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = _as_gaussian(c)
                if c:
                    clean[(int(mono[0]), int(mono[1]))] = c
        self.terms = clean

    @classmethod
    def monomial(cls, a: int, b: int = 0, coeff=1) -> "LaurentPoly":
        return cls({(a, b): coeff})

    @classmethod
    def constant(cls, coeff) -> "LaurentPoly":
        return cls({(0, 0): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, G_ZERO) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    def __neg__(self) -> "LaurentPoly":
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc: dict = {}
        _mul_into(acc, self, other)
        return _poly_from(acc)

    def scale(self, coeff) -> "LaurentPoly":
        c0 = _as_gaussian(coeff)
        if not c0:
            return LaurentPoly()
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = {m: c * c0 for m, c in self.terms.items()}
        return res

    def flip_var_sign(self, var: str) -> "LaurentPoly":
        """Substitute u -> -u (var='u') or v -> -v (var='v')."""
        idx = 0 if var == "u" else 1
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = {m: (-c if m[idx] % 2 else c) for m, c in self.terms.items()}
        return res

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms):
            bits.append("%s*%s" % (self.terms[mono], monomial_str(mono)))
        return " + ".join(bits)

    __repr__ = __str__


def _mul_into(acc: dict, p1: LaurentPoly, p2: LaurentPoly) -> None:
    """Add p1 * p2 into acc, a map monomial -> [re, im] of plain ints."""
    for (a1, b1), c1 in p1.terms.items():
        r1, i1 = c1.re, c1.im
        for (a2, b2), c2 in p2.terms.items():
            r2, i2 = c2.re, c2.im
            mono = (a1 + a2, b1 + b2)
            cur = acc.get(mono)
            if cur is None:
                acc[mono] = [r1 * r2 - i1 * i2, r1 * i2 + i1 * r2]
            else:
                cur[0] += r1 * r2 - i1 * i2
                cur[1] += r1 * i2 + i1 * r2


def _poly_from(acc: dict) -> LaurentPoly:
    """The LaurentPoly of a _mul_into accumulator, zero terms dropped."""
    res = LaurentPoly.__new__(LaurentPoly)
    res.terms = {m: Gaussian(re, im) for m, (re, im) in acc.items() if re or im}
    return res


def monomial_str(mono: tuple) -> str:
    a, b = mono
    parts = []
    for name, e in (("u", a), ("v", b)):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts) if parts else "1"


def grade_str(quarters: int) -> str:
    if quarters % 4 == 0:
        return "q^%d" % (quarters // 4)
    if quarters % 2 == 0:
        return "q^(%d/2)" % (quarters // 2)
    return "q^(%d/4)" % quarters


@dataclass(frozen=True)
class SeriesMismatch:
    """Lowest-grade coefficient disagreement between two series."""

    quarter_grade: int
    monomial: tuple
    lhs: Gaussian
    rhs: Gaussian

    def __str__(self) -> str:
        return "%s %s: %s != %s" % (grade_str(self.quarter_grade),
                                    monomial_str(self.monomial),
                                    self.lhs, self.rhs)


@dataclass(frozen=True)
class SeriesMatch:
    """Result of comparing two series through their common boundary."""

    equal: bool
    boundary: int  # absolute quarter grade both sides are exact through
    mismatch: Optional[SeriesMismatch] = None


class GradedSeries:
    """Truncated series in quarter powers of the nome, exact coefficients."""

    __slots__ = ("quarter_prefactor", "coeffs", "order")

    def __init__(self, quarter_prefactor: int, coeffs: dict, order: int):
        if order < 0:
            raise OrderUnderflow("series order must be >= 0, got %d" % order)
        clean = {}
        for n, poly in coeffs.items():
            if not isinstance(poly, LaurentPoly):
                poly = LaurentPoly(poly)
            if poly.is_zero():
                continue
            if not 0 <= n <= order:
                raise DomainError(
                    "stored grade %d outside [0, %d]" % (n, order))
            clean[n] = poly
        self.quarter_prefactor = quarter_prefactor
        self.coeffs = clean
        self.order = order

    # -- bookkeeping ----------------------------------------------------

    @property
    def boundary(self) -> int:
        """Absolute quarter grade this series is exact through."""
        return self.quarter_prefactor + 4 * self.order

    def is_zero(self) -> bool:
        return not self.coeffs

    @staticmethod
    def zero(boundary: int) -> "GradedSeries":
        return GradedSeries(boundary, {}, 0)

    @staticmethod
    def one(order: int) -> "GradedSeries":
        return GradedSeries(0, {0: LaurentPoly.constant(1)}, order)

    @staticmethod
    def from_poly(poly: LaurentPoly, quarter_prefactor: int = 0,
                  order: int = 0) -> "GradedSeries":
        """A single Laurent coefficient at grade q^(quarter_prefactor/4)."""
        return GradedSeries(quarter_prefactor, {0: poly}, order)

    def terms_abs(self):
        """Iterate (absolute_quarter_grade, monomial, coefficient)."""
        for n in sorted(self.coeffs):
            poly = self.coeffs[n]
            for mono in sorted(poly.terms):
                yield self.quarter_prefactor + 4 * n, mono, poly.terms[mono]

    # -- arithmetic -----------------------------------------------------

    def _combine(self, other: "GradedSeries", negate: bool) -> "GradedSeries":
        if self.is_zero() or other.is_zero():
            bound = min(self.boundary, other.boundary)
            src = other if self.is_zero() else self
            flip = negate and src is other
            if src.is_zero():
                return GradedSeries.zero(bound)
            order = (bound - src.quarter_prefactor) // 4
            if order < 0:
                return GradedSeries.zero(bound)
            out = {n: (-p if flip else p)
                   for n, p in src.coeffs.items() if n <= order}
            return GradedSeries(src.quarter_prefactor, out, order)
        if self.quarter_prefactor != other.quarter_prefactor:
            raise GradeMismatch(
                "cannot add series with quarter prefactors %d and %d"
                % (self.quarter_prefactor, other.quarter_prefactor))
        order = min(self.order, other.order)
        out = {n: p for n, p in self.coeffs.items() if n <= order}
        for n, p in other.coeffs.items():
            if n > order:
                continue
            s = out.get(n, LaurentPoly()) + ((-p) if negate else p)
            if s.is_zero():
                out.pop(n, None)
            else:
                out[n] = s
        return GradedSeries(self.quarter_prefactor, out, order)

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        return self._combine(other, negate=False)

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self._combine(other, negate=True)

    def __neg__(self) -> "GradedSeries":
        out = {n: -p for n, p in self.coeffs.items()}
        return GradedSeries(self.quarter_prefactor, out, self.order)

    def scale(self, coeff) -> "GradedSeries":
        c = _as_gaussian(coeff)
        if not c:
            return GradedSeries.zero(self.boundary)
        out = {n: p.scale(c) for n, p in self.coeffs.items()}
        return GradedSeries(self.quarter_prefactor, out, self.order)

    def __mul__(self, other: "GradedSeries") -> "GradedSeries":
        # Stored grades sit at or above each prefactor, so the product is
        # exact through min(B_a + P_b, B_b + P_a); equivalently the result
        # order is min of the operand orders.
        if self.is_zero() or other.is_zero():
            return GradedSeries.zero(
                min(self.boundary + other.quarter_prefactor,
                    other.boundary + self.quarter_prefactor))
        # Every pair n1 + n2 = n adds straight into one accumulator per
        # grade; each grade's LaurentPoly is built once, after the sums.
        order = min(self.order, other.order)
        acc: dict = {}
        for n1, p1 in self.coeffs.items():
            for n2, p2 in other.coeffs.items():
                if n1 + n2 <= order:
                    _mul_into(acc.setdefault(n1 + n2, {}), p1, p2)
        return GradedSeries(self.quarter_prefactor + other.quarter_prefactor,
                            {n: _poly_from(t) for n, t in acc.items()}, order)

    def __str__(self) -> str:
        if self.is_zero():
            return "0 + O(%s)" % grade_str(self.boundary + 1)
        bits = ["%s * (%s)" % (grade_str(g), poly)
                for g, poly in sorted(
                    (self.quarter_prefactor + 4 * n, p)
                    for n, p in self.coeffs.items())]
        return " + ".join(bits) + " + O(%s)" % grade_str(self.boundary + 1)

    __repr__ = __str__


# -- constructors --------------------------------------------------------

THETA_SCALES = (1, 2)


def theta_series(kind: int, nome_scale: int, monomial: tuple,
                 order: int) -> GradedSeries:
    """Defining series of theta_kind(z | nome_scale * tau) as a GradedSeries.

    The unit e^(iz) is replaced by u^a v^b for monomial = (a, b), so the
    four arguments of a multivariate identity (x, y, x+y, x-y) become the
    monomials (1,0), (0,1), (1,1), (1,-1).  Only finitely many summation
    indices reach grades <= order because exponents grow quadratically.
    """
    check_kind(kind)
    if nome_scale not in THETA_SCALES:
        raise DomainError("nome scale must be 1 or 2, got %r" % (nome_scale,))
    if order < 0:
        raise OrderUnderflow("order must be >= 0")
    a, b = int(monomial[0]), int(monomial[1])
    s = nome_scale
    coeffs: dict = {}

    def put(n: int, mono: tuple, c: Gaussian):
        poly = coeffs.get(n)
        add = LaurentPoly({mono: c})
        coeffs[n] = add if poly is None else poly + add

    # the index form of theta.theta_sum: exponent k(k+odd), unit power
    # 2k+odd, sign (-1)^k for kinds 1 and 4, kind 1 also carries -i
    odd = 1 if kind in (1, 2) else 0
    kmax = math.isqrt(order // s) + 2
    for k in range(-kmax - odd, kmax + 1):
        g = s * k * (k + odd)
        if g > order:
            continue
        sign = -1 if kind in (1, 4) and k % 2 else 1
        c = Gaussian(0, -sign) if kind == 1 else Gaussian(sign)
        put(g, ((2 * k + odd) * a, (2 * k + odd) * b), c)
    return GradedSeries(s * odd, coeffs, order)


def pochhammer_product(factors: Iterable[tuple], order: int) -> GradedSeries:
    """Exact expansion of a finite product of factors (1 + sign*q^c*u^a*v^b).

    Each factor is given as (sign, c, monomial) with sign in {+1, -1},
    integer c >= 1 governing truncation, and monomial an exponent pair or
    None for a pure nome factor.  Factors with c > order are identity
    modulo q^(order+1) and may simply be omitted by the caller.

    Multiplying by a factor is a shift-and-add: acc[n] += sign*m*acc[n-c],
    top grade first, so each acc[n-c] is read before it changes.  Every
    coefficient is a real integer, since each sign is.  The accumulator
    (grade -> monomial -> int) is private to this call; the result's
    LaurentPolys are built from it once, after the last factor.
    """
    acc = {0: {(0, 0): 1}}
    for sign, c, mono in factors:
        if sign not in (1, -1):
            raise DomainError("factor sign must be +-1, got %r" % (sign,))
        c = int(c)
        if c < 1:
            raise DomainError("factor nome power must be >= 1, got %d" % c)
        if c > order:
            continue
        ma, mb = (0, 0) if mono is None else (int(mono[0]), int(mono[1]))
        for n in range(order, c - 1, -1):
            src = acc.get(n - c)
            if not src:
                continue
            dst = acc.setdefault(n, {})
            for (a, b), k in src.items():
                key = (a + ma, b + mb)
                k = dst.get(key, 0) + sign * k
                if k:
                    dst[key] = k
                else:
                    del dst[key]
    return GradedSeries(0, {n: LaurentPoly(t) for n, t in acc.items()}, order)


def geometric_factors(sign: int, first: int, step: int, monomial,
                      order: int) -> list:
    """Factor list for (x; q^step)-style products: c = first, first+step, ...

    Stops once c exceeds the order, past which factors cannot contribute.
    """
    if step < 1 or first < 1:
        raise DomainError("need first >= 1 and step >= 1")
    return [(sign, c, monomial) for c in range(first, order + 1, step)]


SHIFTS = ("plus_pi", "plus_pi_tau", "plus_half_pi_tau")
_SHIFT_QUARTERS = {"plus_pi_tau": 4, "plus_half_pi_tau": 2}


def shift_argument(series: GradedSeries, shift: str, var: str) -> GradedSeries:
    """Apply a period shift to the variable var ('u' or 'v').

    plus_pi substitutes e^(iz) -> -e^(iz); plus_pi_tau multiplies each
    monomial u^e by q^e; plus_half_pi_tau by q^(e/2) (2e quarter units).
    Terms pushed past the order are dropped, and the exactness boundary is
    lowered by twice the largest downward grade move among stored terms:
    dropped tail terms of theta-type series carry exponents growing like
    the square root of their grade, so the factor two keeps their landing
    grades strictly above the claimed boundary.  Callers certifying
    identities should still build the input with an order margin (see
    shift_margin).
    """
    if shift not in SHIFTS:
        raise DomainError("unknown shift %r" % (shift,))
    if var not in ("u", "v"):
        raise DomainError("shift variable must be 'u' or 'v', got %r" % (var,))
    if shift == "plus_pi":
        out = {n: p.flip_var_sign(var) for n, p in series.coeffs.items()}
        return GradedSeries(series.quarter_prefactor, out, series.order)

    if series.is_zero():
        return series
    idx = 0 if var == "u" else 1
    per_exp = _SHIFT_QUARTERS[shift]
    moved = []          # (new absolute quarter grade, monomial, coeff)
    worst_drop = 0
    for n, poly in series.coeffs.items():
        base = series.quarter_prefactor + 4 * n
        for mono, c in poly.terms.items():
            delta = per_exp * mono[idx]
            moved.append((base + delta, mono, c))
            if -delta > worst_drop:
                worst_drop = -delta

    new_prefactor = min(t for t, _, _ in moved)
    for t, mono, _ in moved:
        if (t - new_prefactor) % 4:
            raise GradeMismatch(
                "shift %s mixes quarter-grade classes at monomial %s"
                % (shift, monomial_str(mono)))
    new_boundary = series.boundary - 2 * worst_drop
    new_order = (new_boundary - new_prefactor) // 4
    if new_order < 0:
        raise OrderUnderflow(
            "shift %s leaves no certified grades (boundary %d < prefactor %d)"
            % (shift, new_boundary, new_prefactor))
    coeffs: dict = {}
    for t, mono, c in moved:
        n = (t - new_prefactor) // 4
        if n > new_order:
            continue
        add = LaurentPoly({mono: c})
        coeffs[n] = add if n not in coeffs else coeffs[n] + add
    return GradedSeries(new_prefactor, coeffs, new_order)


def shift_margin(order: int) -> int:
    """Generation margin so theta-type tails cannot cross back below order.

    Theta exponents grow like k^2 while unit-variable exponents grow like
    2k, so terms beyond order+margin move down by at most
    ~2*sqrt(order+margin) full grades under the period substitutions; the
    doubled slack subtracted in shift_argument then still leaves at least
    the requested order certified.  Generous and cheap at these sizes.
    """
    return 3 * math.isqrt(4 * order + 16) + 8


def series_equal(a: GradedSeries, b: GradedSeries) -> SeriesMatch:
    """Exact comparison through the smaller exactness boundary.

    Reports the lowest-grade discrepancy (ties broken by monomial order)
    when the two series differ.
    """
    bound = min(a.boundary, b.boundary)
    table_a = {(g, mono): c for g, mono, c in a.terms_abs() if g <= bound}
    table_b = {(g, mono): c for g, mono, c in b.terms_abs() if g <= bound}
    for key in sorted(set(table_a) | set(table_b)):
        ca = table_a.get(key, G_ZERO)
        cb = table_b.get(key, G_ZERO)
        if ca != cb:
            g, mono = key
            return SeriesMatch(False, bound,
                               SeriesMismatch(g, mono, ca, cb))
    return SeriesMatch(True, bound, None)
