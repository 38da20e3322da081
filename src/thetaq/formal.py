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
        return NotImplemented

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

    @classmethod
    def _clean(cls, terms: dict) -> "LaurentPoly":
        """Wrap terms already keyed by int pairs with nonzero Gaussians."""
        res = cls.__new__(cls)
        res.terms = terms
        return res

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
        return LaurentPoly._clean(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._clean({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc: dict = {}
        _mul_into(acc, _rows(self), _rows(other))
        return _poly_from(acc)

    def scale(self, coeff) -> "LaurentPoly":
        c0 = _as_gaussian(coeff)
        if not c0:
            return LaurentPoly()
        return LaurentPoly._clean({m: c * c0 for m, c in self.terms.items()})


def _rows(p: LaurentPoly) -> list:
    """The terms of p as flat (a, b, re, im) rows, for _mul_into."""
    return [(a, b, c.re, c.im) for (a, b), c in p.terms.items()]


def _mul_into(acc: dict, rows1: list, rows2: list) -> None:
    """Add the product of two _rows lists into acc, a map monomial ->
    [re, im] of plain ints."""
    for a1, b1, r1, i1 in rows1:
        for a2, b2, r2, i2 in rows2:
            mono = (a1 + a2, b1 + b2)
            cur = acc.get(mono)
            if cur is None:
                acc[mono] = [r1 * r2 - i1 * i2, r1 * i2 + i1 * r2]
            else:
                cur[0] += r1 * r2 - i1 * i2
                cur[1] += r1 * i2 + i1 * r2


def _poly_from(acc: dict) -> LaurentPoly:
    """The LaurentPoly of a _mul_into accumulator, zero terms dropped."""
    return LaurentPoly._clean(
        {m: Gaussian(re, im) for m, (re, im) in acc.items() if re or im})


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

    def grades(self, bound: Optional[int] = None) -> dict:
        """Absolute quarter grade -> {monomial: coefficient}, through bound
        (the boundary by default).  The inner dicts are the stored terms."""
        p = self.quarter_prefactor
        bound = self.boundary if bound is None else bound
        return {p + 4 * n: poly.terms for n, poly in self.coeffs.items()
                if p + 4 * n <= bound}

    # -- arithmetic -----------------------------------------------------

    def _combine(self, other: "GradedSeries", negate: bool) -> "GradedSeries":
        # A zero operand stores no grade, so it only lowers the boundary.
        bound = min(self.boundary, other.boundary)
        prefactors = {s.quarter_prefactor for s in (self, other) if not s.is_zero()}
        if len(prefactors) > 1:
            raise GradeMismatch(
                "cannot add series with quarter prefactors %d and %d"
                % (self.quarter_prefactor, other.quarter_prefactor))
        prefactor = prefactors.pop() if prefactors else bound
        order = (bound - prefactor) // 4
        if order < 0:
            return GradedSeries.zero(bound)
        out = {n: p for n, p in self.coeffs.items() if n <= order}
        for n, p in other.coeffs.items():
            if n <= order:
                p = -p if negate else p
                out[n] = out[n] + p if n in out else p
        return GradedSeries(prefactor, out, order)

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
        # Each operand is flattened to _rows once, not once per pair.
        order = min(self.order, other.order)
        rows2 = [(n2, _rows(p2)) for n2, p2 in other.coeffs.items()]
        acc: dict = {}
        for n1, p1 in self.coeffs.items():
            rows1 = _rows(p1)
            for n2, r2 in rows2:
                if n1 + n2 <= order:
                    _mul_into(acc.setdefault(n1 + n2, {}), rows1, r2)
        return _series_from(self.quarter_prefactor + other.quarter_prefactor,
                            acc, order)


# -- constructors --------------------------------------------------------

def _series_from(prefactor: int, acc: dict, order: int) -> GradedSeries:
    """The GradedSeries of an accumulator grade -> monomial -> [re, im]."""
    return GradedSeries(prefactor, {n: _poly_from(t) for n, t in acc.items()}, order)


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
    acc: dict = {}
    # the index form of theta.theta_sum: exponent k(k+odd), unit power
    # 2k+odd, sign (-1)^k for kinds 1 and 4, kind 1 also carries -i
    odd = 1 if kind in (1, 2) else 0
    part, unit = (1, -1) if kind == 1 else (0, 1)    # slot of [re, im], sign
    kmax = math.isqrt(order // s) + 2
    for k in range(-kmax - odd, kmax + 1):
        g = s * k * (k + odd)
        if g > order:
            continue
        sign = -1 if kind in (1, 4) and k % 2 else 1
        mono = ((2 * k + odd) * a, (2 * k + odd) * b)
        acc.setdefault(g, {}).setdefault(mono, [0, 0])[part] += unit * sign
    return _series_from(s * odd, acc, order)


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

    The result does not depend on the factor order, but the cost does: each
    factor touches every term stored below its grade shift.  For Jacobi's
    triple product the cheapest order measured is the pure-nome factors
    first, then the u^2 and u^-2 factors paired by c, largest c first
    (5,808 shift-add steps at q^96 against 8,300 with each family rising
    in turn).  Factors are taken as given, so the caller chooses the order.
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


# shift -> (factor, quarters): e^(iz) -> factor * q^(quarters/4) * e^(iz), so
# each unit of the shifted exponent brings factor and quarters quarter grades.
# Every factor is a unit, so factor^e = factor^(e mod 4).
SHIFTS = {"plus_pi": (Gaussian(-1), 0), "plus_pi_tau": (Gaussian(1), 4),
          "plus_half_pi_tau": (Gaussian(1), 2)}


def shift_argument(series: GradedSeries, shift: str, var: str) -> GradedSeries:
    """Apply a period shift to the variable var ('u' or 'v').

    Each SHIFTS row gives the factor and the quarter grades that one unit
    of the shifted exponent brings: plus_pi maps u^e to (-1)^e u^e,
    plus_pi_tau to q^e u^e and plus_half_pi_tau to q^(e/2) u^e.  The result's
    prefactor is the lowest grade a stored term lands on.
    Terms pushed past the order are dropped, and the exactness boundary is
    lowered by twice the largest downward grade move among stored terms:
    dropped tail terms of theta-type series carry exponents growing like
    the square root of their grade, so the factor two keeps their landing
    grades strictly above the claimed boundary.  Both are read first; one
    pass then moves, checks and keeps the terms.  Callers certifying
    identities should still build the input with an order margin (see
    shift_margin).
    """
    if shift not in SHIFTS:
        raise DomainError("unknown shift %r" % (shift,))
    if var not in ("u", "v"):
        raise DomainError("shift variable must be 'u' or 'v', got %r" % (var,))
    if series.is_zero():
        return series
    idx = 0 if var == "u" else 1
    factor, per_exp = SHIFTS[shift]
    units = [Gaussian(1), factor, factor * factor, factor * factor * factor]
    grades = series.grades()
    new_prefactor = min(base + per_exp * mono[idx]
                        for base, terms in grades.items() for mono in terms)
    # per_exp >= 0, so the largest downward move is the least exponent's
    least = min(mono[idx] for terms in grades.values() for mono in terms)
    new_boundary = series.boundary + 2 * min(0, per_exp * least)
    new_order = (new_boundary - new_prefactor) // 4
    acc: dict = {}      # the move depends on the monomial only: no collisions
    for base, terms in grades.items():
        for mono, c in terms.items():
            t = base + per_exp * mono[idx] - new_prefactor
            if t % 4:
                raise GradeMismatch(
                    "shift %s mixes quarter-grade classes at monomial %s"
                    % (shift, monomial_str(mono)))
            if t <= 4 * new_order:
                c *= units[mono[idx] % 4]
                acc.setdefault(t // 4, {})[mono] = [c.re, c.im]
    if new_order < 0:
        raise OrderUnderflow(
            "shift %s leaves no certified grades (boundary %d < prefactor %d)"
            % (shift, new_boundary, new_prefactor))
    return _series_from(new_prefactor, acc, new_order)


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
    when the two series differ.  Stored polynomials and terms are never
    zero, so grade dicts that differ hold a differing coefficient at the
    lowest grade where they differ.
    """
    bound = min(a.boundary, b.boundary)
    ga, gb = a.grades(bound), b.grades(bound)
    if ga == gb:
        return SeriesMatch(True, bound, None)
    g = min(k for k in ga.keys() | gb.keys() if ga.get(k) != gb.get(k))
    ta, tb = ga.get(g, {}), gb.get(g, {})
    mono = min(m for m in ta.keys() | tb.keys() if ta.get(m) != tb.get(m))
    return SeriesMatch(False, bound, SeriesMismatch(
        g, mono, ta.get(mono, G_ZERO), tb.get(mono, G_ZERO)))
