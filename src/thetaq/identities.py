"""Registry of the verified identities, numeric and formal checkers.

Each identity can be verified in one or both of two modes:

* numeric -- seeded random sampling of |LHS - RHS| normalized by
  max(1, |LHS|, |RHS|), with samples near poles resampled;
* formal  -- both sides rebuilt as exact GradedSeries and compared
  coefficient by coefficient (only identities free of division).

The classical-limit checks are the one exception to plain double
precision: the deviation of the q-deformed tangent from the ordinary one
shrinks superexponentially as q -> 1 and falls below the double rounding
floor well before q = 0.9, so those residuals are computed with mpmath,
expanded in that small deviation itself so that no O(1) terms cancel, at 25
digits above the caller's precision.  Their theta tails keep the package's
truncation contract at that precision: each stops once the next term is
below the working precision relative to the first, which near q = 1 is after
one term and at small q after a few dozen, and raises ConvergenceError after
MAX_TERMS.  One mp.cos_sin per point gives every sine and cosine they use.
mpmath is imported by these checks alone, on their first call: importing
thetaq and every other check run without it.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from .errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    RangeError,
    ThetaQError,
    UnsupportedFormal,
)
from .formal import (
    Gaussian,
    GradedSeries,
    LaurentPoly,
    geometric_factors,
    grade_str,
    monomial_str,
    pochhammer_product,
    series_equal,
    shift_argument,
    shift_margin,
    theta_series,
)
from .params import MAX_TERMS, THETA_KINDS, ModularParam, check_integer, make_param
from .qtrig import (
    POLE_RATIO,
    QTRIG_KINDS,
    qsquared_param,
    qtrig_product_any,
    qtrig_theta,
    ssn_ccs,
)
from .theta import (
    HALF_PERIOD_HAS_I,
    HALF_PERIOD_MAP,
    PARTNER,
    PI_SHIFT_SIGN,
    PI_TAU_SHIFT_SIGN,
    PRODUCT_FACTOR,
    half_period_shift,
    range_overflow,
    theta_eval,
    theta_pair,
    theta_sum_null,
)

DEFAULT_FORMAL_ORDER = 12


@dataclass(frozen=True)
class IdentityInfo:
    """Everything the checkers know about one identity.

    pairs(x, y, p) gives the (lhs, rhs) values at one sample point;
    it is None for the classical limits, which run over a fixed q sequence
    instead.  relations(order) gives (label, lhs, rhs) triples of exact
    series; it is None for identities that need division.  The builders
    look up the evaluators they call as module globals when they run.
    """

    name: str
    nvars: int            # sampled complex variables (0 = fixed-point check)
    tolerance: float
    description: str
    pairs: Optional[Callable] = None
    relations: Optional[Callable] = None
    formal_order: int = DEFAULT_FORMAL_ORDER

    @property
    def modes(self) -> tuple:
        # every identity has a numeric check, sampled or classical
        return ("numeric",) if self.relations is None else ("numeric", "formal")


# ---------------------------------------------------------------------------
# sampling plan and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sampling plan for the numeric checks; x and y are drawn from
    SAMPLE_BOX."""

    seed: int = 42
    count: int = 500
    tau_set: tuple = (1.1j, 0.3 + 1.1j, 0.5 + 0.9j)

    def __post_init__(self):
        check_integer(self.seed, "seed")
        if check_integer(self.count, "sample count") < 1:
            raise DomainError("sample count must be >= 1")
        if not self.tau_set:
            raise DomainError("tau_set must hold at least one tau")
        for tau in self.tau_set:
            # a tau, or a 2*tau, that the sampling loop would reject fails here
            qsquared_param(make_param(tau))


DEFAULT_PLAN = SamplePlan()

# Both sampled variables are drawn uniformly from this box (corners lo, hi).
SAMPLE_BOX = (0.25 - 0.3j, 1.15 + 0.3j)

# The constancy probe holds y and tau fixed while x walks a box chosen to
# stay clear of the four zeros of the denominator.
PROBE_Y = 0.7
PROBE_TAU = 1.2j
PROBE_BOX = (0.2 + 0.0j, 2.2 + 1.0j)
PROBE_COUNT = 50

CLASSICAL_Q = (0.9, 0.99, 0.999)
CLASSICAL_X = 0.7
CLASSICAL_Y = 1.1
# bits below the working precision, relative to the k = 1 term, at which the
# classical tan_q tails stop: room for the cancellation in a - b and for the
# size of the dropped tail
_TAIL_GUARD_BITS = 10


@dataclass
class IdentityReport:
    """Outcome of one identity verification run."""

    id: str
    mode: str
    status: str
    samples: int = 0
    max_abs_residual: float = 0.0
    certified_order: int = 0
    params: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def sample_point(x: complex, y: Optional[complex], tau: complex) -> dict:
    """One sample point as [re, im] pairs; y is None for one variable."""
    return {"x": [x.real, x.imag], "y": None if y is None else [y.real, y.imag],
            "tau": [tau.real, tau.imag]}


# ---------------------------------------------------------------------------
# numeric pair builders: (x, y, p) -> [(lhs, rhs), ...]
# ---------------------------------------------------------------------------


def _shifted(kind: int, z: complex, shift: complex, law: str, p) -> complex:
    """theta_kind(z + shift); an overflow names the shift law, not z alone."""
    try:
        return theta_eval(kind, z + shift, p)
    except RangeError:
        raise range_overflow("theta%d(z + %s)" % (kind, law), z, p) from None


def _pairs_quasi(kind: int, z: complex, _y, p: ModularParam) -> list:
    base = theta_eval(kind, z, p)
    with_pi = theta_eval(kind, z + math.pi, p)
    with_tau = _shifted(kind, z, math.pi * p.tau, "pi*tau", p)
    try:
        mult = PI_TAU_SHIFT_SIGN[kind] / p.q * cmath.exp(-2j * z)
    except (ZeroDivisionError, OverflowError):
        raise range_overflow("theta%d quasi-period multiplier" % kind, z, p) from None
    return [(with_pi, PI_SHIFT_SIGN[kind] * base), (with_tau, mult * base)]


def _pairs_half(kind: int, z: complex, _y, p: ModularParam) -> list:
    shifted = _shifted(kind, z, math.pi * p.tau / 2, "pi*tau/2", p)
    rule = half_period_shift(kind, z, p)
    return [(shifted, rule.multiplier * theta_eval(rule.new_kind, z, p))]


def _pairs_duplication(a: int, b: int, z: complex, _y, p: ModularParam) -> list:
    """2 theta_a(z|2tau) theta_b(z|2tau) = theta2(0|tau) theta_a(z|tau)."""
    p2 = qsquared_param(p)
    null2 = p.q_quarter * theta_sum_null(2, p)
    lhs = 2 * theta_eval(a, z, p2) * theta_eval(b, z, p2)
    rhs = null2 * theta_eval(a, z, p)
    return [(lhs, rhs)]


def _pairs_triple(kind: int, z: complex, _y, p: ModularParam) -> list:
    return [(theta_eval(kind, z, p, method="series"),
             theta_eval(kind, z, p, method="product"))]


# thm2's eight thetas as four partner pairs: row (kind, scale, (a, b)) names
# theta_kind and theta_PARTNER[kind] at a*x + b*y | scale*tau (u^a v^b in exact
# series), the pair one theta_pair call returns.
THM2_PAIRS = ((2, 2, (1, 1)), (3, 2, (1, -1)), (1, 1, (1, 0)), (2, 1, (0, 1)))


def thm2_sides(s2, s1, d3, d4, x1, x2, y2, y1) -> tuple:
    """Both sides of thm2 from the THM2_PAIRS values, complex or GradedSeries.

    A series product costs about |A|*|B| term products, so each small theta
    is folded into the two-by-two sum in turn: s2 * (d3 * sum), never the
    dense s2 * d3 first.
    """
    return s2 * (d3 * (x1 * y2 + y1 * x2)), s1 * (d4 * (x2 * y2 - x1 * y1))


def _thm2_thetas(x: complex, y: complex, p: ModularParam) -> tuple:
    """The values of THM2_PAIRS at x, y and tau, each row's kind then its partner."""
    p2 = qsquared_param(p)
    # a*x + b*y as the plain x + y, x - y, x or y: 1*x + 0*y can flip a zero's sign
    args = {(1, 1): x + y, (1, -1): x - y, (1, 0): x, (0, 1): y}
    return tuple(value for kind, scale, ab in THM2_PAIRS
                 for value in theta_pair(kind, args[ab], p2 if scale == 2 else p))


def _pairs_thm2(x: complex, y: complex, p: ModularParam) -> list:
    return [thm2_sides(*_thm2_thetas(x, y, p))]


def _pairs_qtrig(total: float, form: str, x, y, p) -> list:
    """thm1 (total pi) and its corollaries (total pi/2), z = total - x - y.

    With ss, cc = ssn_q, ccs_q at x - y and f at nome q^2 for x, y:
    the "sum" form is cc f(x) + cc f(y) + ss f(z) = ss f(x) f(y) f(z), the
    "pair" form ss f(x) f(y) + cc f(y) f(z) + cc f(z) f(x) = ss.  f is
    tan_q for the pi sum and cot_q for the pi pair; substituting pi/2 - x,
    pi/2 - y, pi/2 - z turns every cot into a tan, so the pi/2 forms swap.
    """
    fn = "tan_q" if (total == math.pi) == (form == "sum") else "cot_q"
    z = total - x - y
    p2 = qsquared_param(p)
    ss, cc = ssn_ccs(x - y, p)
    fx = qtrig_theta(fn, x, p2)
    fy = qtrig_theta(fn, y, p2)
    fz = qtrig_theta(fn, z, p)
    if form == "sum":
        return [(cc * fx + cc * fy + ss * fz, ss * fx * fy * fz)]
    return [(ss * fx * fy + cc * fy * fz + cc * fz * fx, ss)]


def _pairs_cosq_shift(z, _y, p) -> list:
    c = qtrig_theta("cos_q", z, p)
    return [(c, qtrig_theta("sin_q", math.pi / 2 - z, p)),
            (c, qtrig_theta("sin_q", math.pi / 2 + z, p))]


def _pairs_bridge(z, _y, p) -> list:
    """Each q-trig function as a theta quotient at tau' and as a product in q."""
    return [(qtrig_theta(kind, z, p), qtrig_product_any(kind, z / math.pi, p))
            for kind in QTRIG_KINDS]


def constancy_probe(x: complex, y: complex, tau: complex) -> complex:
    """The quotient whose constancy (== 1) underlies the thm2 identity.

    Numerator and denominator are the two four-factor combinations from the
    identity; x must stay away from the zeros of the denominator.
    """
    thetas = _thm2_thetas(x, y, make_param(tau))
    _, s1, _, d4, x1, x2, y2, y1 = thetas
    num = s1 * d4 * x2 * y2 - thm2_sides(*thetas)[0]
    den = s1 * d4 * x1 * y1
    if abs(den) < POLE_RATIO * max(1.0, abs(num)):
        raise PoleError("probe denominator ~ 0 at x = %r" % (x,))
    return num / den


def _pairs_probe(x, _y, p) -> list:
    return [(constancy_probe(x, PROBE_Y, p.tau), 1.0 + 0j)]


# ---------------------------------------------------------------------------
# formal relation builders: order -> [(label, lhs, rhs), ...]
# ---------------------------------------------------------------------------


def _theta_u(kind: int, scale: int, order: int) -> GradedSeries:
    return theta_series(kind, scale, (1, 0), order)


def _relations_quasi(kind: int, order: int) -> list:
    plain = _theta_u(kind, 1, order)
    lhs_pi = shift_argument(plain, "plus_pi", "u")
    rhs_pi = plain if PI_SHIFT_SIGN[kind] == 1 else -plain
    wide = _theta_u(kind, 1, order + shift_margin(order))
    lhs_tau = shift_argument(wide, "plus_pi_tau", "u")
    mono = GradedSeries.from_poly(LaurentPoly.monomial(-2, 0), -4, order + 2)
    rhs_tau = (mono * _theta_u(kind, 1, order + 2)).scale(PI_TAU_SHIFT_SIGN[kind])
    return [("theta%d(z+pi)" % kind, lhs_pi, rhs_pi),
            ("theta%d(z+pi*tau)" % kind, lhs_tau, rhs_tau)]


def _relations_half(kind: int, order: int) -> list:
    wide = _theta_u(kind, 1, order + shift_margin(order))
    lhs = shift_argument(wide, "plus_half_pi_tau", "u")
    coeff = Gaussian(0, 1) if HALF_PERIOD_HAS_I[kind] else Gaussian(1)
    mult = GradedSeries.from_poly(
        LaurentPoly.monomial(-1, 0, coeff=coeff), -1, order + 1)
    rhs = mult * _theta_u(HALF_PERIOD_MAP[kind], 1, order + 1)
    return [("theta%d(z+pi*tau/2)" % kind, lhs, rhs)]


def _relations_duplication(a: int, b: int, order: int) -> list:
    lhs = (_theta_u(a, 2, order) * _theta_u(b, 2, order)).scale(2)
    rhs = theta_series(2, 1, (0, 0), order) * _theta_u(a, 1, order)
    return [("2 theta%d theta%d at 2tau" % (a, b), lhs, rhs)]


def _relations_triple(kind: int, order: int) -> list:
    series = _theta_u(kind, 1, order)
    head = GradedSeries.one(order)
    if kind in (1, 2):
        # 2 sin z = -i (u - 1/u), 2 cos z = u + 1/u, times q^(1/4)
        lead = Gaussian(0, -1) if kind == 1 else Gaussian(1)
        head = GradedSeries.from_poly(
            LaurentPoly({(1, 0): lead, (-1, 0): -lead if kind == 1 else lead}),
            1, order)
    # (a;q^2) = prod (1 - a q^2n), so the factor sign is -s.  The order is
    # the cheap one measured for pochhammer_product: the pure-nome factors
    # first, then the u^2 and u^-2 factors paired by c, largest c first.
    sign, power = PRODUCT_FACTOR[kind]
    up, down = (geometric_factors(-sign, power, 2, mono, order)[::-1]
                for mono in ((2, 0), (-2, 0)))
    factors = (geometric_factors(-1, 2, 2, None, order)
               + [factor for pair in zip(up, down) for factor in pair])
    product = head * pochhammer_product(factors, order)
    return [("theta%d series vs product" % kind, series, product)]


def _relations_thm2(order: int) -> list:
    thetas = (theta_series(k, scale, ab, order) for kind, scale, ab in THM2_PAIRS
              for k in (kind, PARTNER[kind]))
    return [("thm2", *thm2_sides(*thetas))]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

REGISTRY: dict = {info.name: info for info in [
    *(IdentityInfo("quasi_period_%d" % k, 1, 1e-10,
                   "theta%d shift laws for z+pi and z+pi*tau" % k,
                   partial(_pairs_quasi, k), partial(_relations_quasi, k))
      for k in THETA_KINDS),
    *(IdentityInfo("half_period_%d" % k, 1, 1e-10,
                   "theta%d(z+pi*tau/2) = mult * theta%d(z)" % (k, HALF_PERIOD_MAP[k]),
                   partial(_pairs_half, k), partial(_relations_half, k))
      for k in THETA_KINDS),
    *(IdentityInfo("duplication_%s" % row, 1, 1e-10,
                   "2 theta%d(z|2tau) theta%d(z|2tau) = theta2(0|tau) theta%d(z|tau)"
                   % (a, b, a),
                   partial(_pairs_duplication, a, b),
                   partial(_relations_duplication, a, b), formal_order=20)
      for row, a, b in (("12", 1, 4), ("23", 2, 3))),
    *(IdentityInfo("triple_product_%d" % k, 1, 1e-10,
                   "theta%d series form equals its infinite product form" % k,
                   partial(_pairs_triple, k), partial(_relations_triple, k))
      for k in THETA_KINDS),
    IdentityInfo("thm2", 2, 1e-10,
                 "four-factor theta identity linking nome q and q^2 in x, y",
                 _pairs_thm2, _relations_thm2),
    *(IdentityInfo(name, 2, 1e-10, description, partial(_pairs_qtrig, total, form))
      for name, total, form, description in (
          ("thm1_tan", math.pi, "sum", "q-tangent sum identity under x+y+z = pi"),
          ("thm1_cot", math.pi, "pair", "q-cotangent pair identity under x+y+z = pi"),
          ("cor_cot", math.pi / 2, "sum", "q-cotangent sum identity under x+y+z = pi/2"),
          ("cor_tan", math.pi / 2, "pair", "q-tangent pair identity under x+y+z = pi/2"))),
    IdentityInfo("cosq_shift", 1, 1e-10,
                 "cos_q z = sin_q(pi/2 - z) = sin_q(pi/2 + z)", _pairs_cosq_shift),
    IdentityInfo("qtrig_bridge", 1, 1e-11,
                 "each q-trig function at tau' = -1/tau equals its product form in q",
                 _pairs_bridge),
    IdentityInfo("f_constancy", 1, 1e-10,
                 "the elliptic quotient behind thm2 is identically 1", _pairs_probe),
    IdentityInfo("classical_limit_tan", 0, 1e-2,
                 "tan-sum residual shrinks strictly along q = 0.9, 0.99, 0.999"),
    IdentityInfo("classical_limit_cot", 0, 1e-2,
                 "cot-pair residual shrinks strictly along q = 0.9, 0.99, 0.999"),
]}

IDENTITY_IDS = tuple(REGISTRY)


def identity_info(identity: str) -> IdentityInfo:
    try:
        return REGISTRY[identity]
    except KeyError:
        raise DomainError("unknown identity %r (choose from %s)"
                          % (identity, ", ".join(IDENTITY_IDS))) from None


def tolerance_for(identity: str, tolerance: Optional[float] = None) -> float:
    """The caller's residual tolerance for identity, else its record's.

    A residual is never above a nan tolerance and never above inf, so a
    tolerance that is not finite, or is negative, raises DomainError.
    """
    if tolerance is None:
        return identity_info(identity).tolerance
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise DomainError("tolerance must be finite and >= 0, got %r"
                          % (tolerance,))
    return tolerance


# ---------------------------------------------------------------------------
# numeric side
# ---------------------------------------------------------------------------


def numeric_residual(identity: str, x: complex, y: Optional[complex] = None,
                     tau: complex | ModularParam = 1.1j) -> float:
    """Normalized residual of one identity at one sample point, tau given as
    a complex number or as its ModularParam.

    For constrained identities the third argument is derived from x and y;
    single-variable identities read their variable from x and reject a y.
    Propagates PoleError so callers can resample.  The residual is the
    largest over the identity's pairs of |lhs - rhs| / max(1, |lhs|, |rhs|),
    or nan as soon as one pair gives nan.
    """
    info = identity_info(identity)
    if info.pairs is None:
        raise DomainError("classical limit checks run over a q sequence; "
                          "use verify_numeric")
    if info.nvars == 2 and y is None:
        raise DomainError("identity %s needs both x and y" % identity)
    if info.nvars == 1 and y is not None:
        raise DomainError("identity %s takes x only, not y" % identity)
    p = tau if isinstance(tau, ModularParam) else make_param(tau)
    worst = 0.0
    for lhs, rhs in info.pairs(complex(x), None if y is None else complex(y), p):
        res = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        if res > worst:
            worst = res
        elif res != res:
            return res
    return worst


# ---------------------------------------------------------------------------
# classical limits (epsilon expansion)
# ---------------------------------------------------------------------------


def _mp_tan_eps(z, qprime) -> tuple:
    """(tan z, eps) with tan_q z = tan z * (1 + eps), at real nome' qprime.

    tan_q is the prefactor-free theta quotient; its k = 0 terms are sin z
    and cos z, so tan_q z = tan z * (1 + a) / (1 + b) with a, b the k >= 1
    tails of the two sums.  eps = (a - b) / (1 + b) is formed from the tails
    alone and carries no cancellation against the O(1) terms.

    Term k is w_k = qprime^(k(k+1)) times a sine or cosine of (2k+1)z, each
    from the one before by the angle-addition step with 2z, and w_k is
    w_(k-1) qprime^(2k).  The ratios of successive weights shrink, so the
    tails stop before the first weight below 2^-(prec + _TAIL_GUARD_BITS)
    times w_1, or raise ConvergenceError after MAX_TERMS terms.
    """
    import mpmath as mp
    c, s = mp.cos_sin(z)
    c2, s2 = c * c - s * s, 2 * s * c
    q2 = qprime * qprime
    w = step = q2
    floor = mp.ldexp(w, -mp.mp.prec - _TAIL_GUARD_BITS)
    a = b = mp.mpf(0)
    sk, ck = s, c
    for k in range(1, MAX_TERMS + 1):
        sk, ck = sk * c2 + ck * s2, ck * c2 - sk * s2    # sin, cos of (2k+1)z
        a += -w * sk if k & 1 else w * sk
        b += w * ck
        step *= q2
        w *= step
        if w < floor:
            break
    else:
        raise ConvergenceError("classical tan_q tail at nome' %s not below "
                               "2^-%d after %d terms"
                               % (mp.nstr(qprime, 6), mp.mp.prec + _TAIL_GUARD_BITS,
                                  MAX_TERMS))
    a /= s
    b /= c
    return s / c, (a - b) / (1 + b)


def classical_residuals(which: str, qs=CLASSICAL_Q) -> list:
    """Residuals of the classical tan/cot identities evaluated with the
    q-analogues at real nome values, as mpmath floats.

    The deviation of tan_q from tan has scale exp(-2*pi^2 / |ln q|), about
    1e-8569 at q = 0.999.  Rather than subtract O(1) quantities at that many
    digits, each tan_q is written as T (1 + eps) with T the classical value,
    and the exact classical terms are dropped algebraically (x + y + z = pi
    gives sum T = prod T):

      diff = sum t - prod t = sum T_i eps_i - prod T (e1 + e2 + e3),

    e_k elementary symmetric in the eps_i.  The cot-pair sum is sum t / prod t,
    so the cot residual is diff / prod t against 1, with no second expansion.

    The mpf exponent is unbounded, so only relative precision is needed:
    the work runs at the caller's precision plus 25 digits and each residual
    is returned rounded to the caller's precision.
    """
    import mpmath as mp
    if which not in ("tan", "cot"):
        raise DomainError("which must be 'tan' or 'cot'")
    for qv in qs:
        if not 0 < qv < 1:
            raise DomainError("classical q must satisfy 0 < q < 1, got %r" % (qv,))
    out = []
    for qv in qs:
        with mp.workdps(mp.mp.dps + 25):
            qprime = mp.exp(-mp.pi ** 2 / mp.log(mp.mpf(1) / qv))
            x = mp.mpf(CLASSICAL_X)
            y = mp.mpf(CLASSICAL_Y)
            z = mp.pi - x - y
            (tx, ex), (ty, ey), (tz, ez) = (_mp_tan_eps(v, qprime)
                                            for v in (x, y, z))
            e1 = ex + ey + ez
            e2 = ex * ey + ey * ez + ez * ex
            e3 = ex * ey * ez
            prod = tx * ty * tz
            diff = tx * ex + ty * ey + tz * ez - prod * (e1 + e2 + e3)
            lhs = tx * (1 + ex) + ty * (1 + ey) + tz * (1 + ez)
            rhs = prod * (1 + ex) * (1 + ey) * (1 + ez)
            if which == "cot":
                diff = diff / rhs
                lhs, rhs = 1 + diff, mp.mpf(1)
            res = abs(diff) / max(mp.mpf(1), abs(lhs), abs(rhs))
        out.append(+res)
    return out


# ---------------------------------------------------------------------------
# verification drivers
# ---------------------------------------------------------------------------


def _sampler(rng: random.Random, box) -> Callable:
    """Uniform draws from box (corners lo, hi), real part first, each by
    random.uniform's own formula lo + (hi - lo) * random()."""
    unit = rng.random
    lo, hi = complex(box[0]), complex(box[1])
    re_lo, re_span = lo.real, hi.real - lo.real
    im_lo, im_span = lo.imag, hi.imag - lo.imag
    return lambda: complex(re_lo + re_span * unit(), im_lo + im_span * unit())


def _verify_classical(identity: str, tolerance: float) -> IdentityReport:
    import mpmath as mp
    which = "tan" if identity.endswith("tan") else "cot"
    residuals = classical_residuals(which)
    decreasing = all(residuals[i] > residuals[i + 1]
                     for i in range(len(residuals) - 1))
    final_ok = residuals[-1] <= tolerance
    status = "pass" if (decreasing and final_ok) else "fail"
    shown = [mp.nstr(r, 6) for r in residuals]
    report = IdentityReport(
        id=identity, mode="numeric", status=status, samples=len(residuals),
        max_abs_residual=float(residuals[-1]),
        params={"q_values": list(CLASSICAL_Q), "residuals": shown,
                "x": CLASSICAL_X, "y": CLASSICAL_Y,
                "tolerance": tolerance,
                # max_abs_residual underflows to 0.0 below double range;
                # mp.log10 keeps the exponent, str(mpf) would not
                "log10_residuals": [round(float(mp.log10(r)), 6)
                                    for r in residuals]})
    if status == "fail":
        report.failures.append({"error": "residuals not strictly decreasing"
                                if not decreasing else "final residual above tolerance",
                                "residuals": shown})
    return report


def _draw_samples(name: str, plan: SamplePlan, count: int, box, params: list,
                  nvars: int, evaluate: Callable) -> tuple:
    """The sampling loop of every sampled check: (samples, failure).

    Draws x, and y when nvars is 2, from box on the stream "<seed>:<name>".
    evaluate has numeric_residual's signature, called as (name, x, y, p);
    each finite value it returns is kept as a sample (value, x, y, p.tau).
    p cycles through params, advancing only with a kept sample.  A PoleError
    draws again, up to 10 * count draws.  failure is None or the one that
    ended the run: a ConvergenceError, a DomainError or a value that is not
    finite, at its sample point, or the draws running out.
    """
    draw = _sampler(random.Random("%d:%s" % (plan.seed, name)), box)
    samples = []
    done = attempts = 0
    two = nvars == 2
    while done < count and attempts < 10 * count:
        attempts += 1
        p = params[done % len(params)]
        x = draw()
        y = draw() if two else None
        try:
            value = evaluate(name, x, y, p)
        except PoleError:
            continue
        except (ConvergenceError, DomainError) as exc:
            return samples, {**sample_point(x, y, p.tau), "error": str(exc)}
        if value - value:           # nan or inf: x - x is 0 for every finite x
            return samples, {**sample_point(x, y, p.tau),
                             "error": "residual is %r" % value}
        done += 1
        samples.append((value, x, y, p.tau))
    if done < count:
        return samples, {"error": "only %d of %d samples in %d draws; the rest "
                                  "hit poles" % (done, count, attempts)}
    return samples, None


def _verify_probe(plan: SamplePlan, tolerance: float) -> IdentityReport:
    samples, failure = _draw_samples(
        "f_constancy", plan, min(plan.count, PROBE_COUNT), PROBE_BOX, [make_param(PROBE_TAU)],
        1, lambda _name, x, _y, p: constancy_probe(x, PROBE_Y, p.tau))
    if not samples:
        return IdentityReport(id="f_constancy", mode="numeric", status="fail",
                              failures=[failure])
    values = [sample[0] for sample in samples]
    n = len(values)
    mean = sum(values) / n
    var = sum(abs(v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
    std = math.sqrt(var)
    offset = abs(mean - 1)
    return IdentityReport(
        id="f_constancy", mode="numeric", samples=n,
        status="pass" if (offset <= tolerance and std <= tolerance
                          and not failure) else "fail",
        max_abs_residual=max(abs(v - 1) for v in values),
        params={"mean_offset": offset, "std": std,
                "y": PROBE_Y, "tau": [PROBE_TAU.real, PROBE_TAU.imag],
                "tolerance": tolerance},
        failures=[failure] if failure else [])


def verify_numeric(identity: str, plan: SamplePlan = DEFAULT_PLAN,
                   tolerance: Optional[float] = None) -> IdentityReport:
    """Run the numeric check of one identity over a sampling plan.

    Deterministic for a given plan seed.  Samples that land on a pole are
    resampled (up to ten times the requested count, then the shortfall is a
    failure); convergence failures and residuals that are not finite are
    recorded at their sample point and fail the identity without raising.
    """
    info = identity_info(identity)
    tolerance = tolerance_for(identity, tolerance)
    if info.pairs is None:
        return _verify_classical(identity, tolerance)
    if info.pairs is _pairs_probe:
        # the probe is judged by the mean and spread of the quotient over
        # its own fixed box and tau, not by per-sample residuals
        return _verify_probe(plan, tolerance)

    tau_params = [make_param(t) for t in plan.tau_set]
    samples, failure = _draw_samples(identity, plan, plan.count, SAMPLE_BOX, tau_params,
                                     info.nvars, numeric_residual)
    max_res, worst, failures = 0.0, None, []
    for res, x, y, tau in samples:
        if res > max_res:
            max_res = res
            worst = (x, y, tau)
        if res > tolerance:
            failures.append({**sample_point(x, y, tau), "residual": res})
    if failure:
        failures.append(failure)
    params = {"seed": plan.seed, "tolerance": tolerance,
              "tau_set": [[p.tau.real, p.tau.imag] for p in tau_params]}
    if worst is not None:
        params["worst_sample"] = sample_point(*worst)
    return IdentityReport(id=identity, mode="numeric",
                          status="fail" if failures else "pass",
                          samples=len(samples), max_abs_residual=max_res,
                          params=params, failures=failures)


# ---------------------------------------------------------------------------
# formal side
# ---------------------------------------------------------------------------


def formal_relations(identity: str, order: int) -> list:
    """(label, lhs, rhs) triples of exact series for a certifiable identity."""
    info = identity_info(identity)
    if info.relations is None:
        raise UnsupportedFormal(
            "identity %s needs division and has no formal mode" % identity)
    return info.relations(_check_order(order))


def _check_order(order: int) -> int:
    if check_integer(order, "order") < 0:
        raise DomainError("order must be >= 0")
    return order


def _certify(identity: str, order: Optional[int]) -> tuple:
    """Build the relations once and compare each once.

    Returns (report, checked) with checked a list of
    (label, lhs, rhs, SeriesMatch), so a certificate can print the very
    series the report was decided on.
    """
    if order is None:
        order = identity_info(identity).formal_order
    checked = [(label, lhs, rhs, series_equal(lhs, rhs))
               for label, lhs, rhs in formal_relations(identity, order)]
    mismatches = [(label, match.mismatch) for label, _, _, match in checked
                  if not match.equal]
    failures = [{"relation": label, "quarter_grade": mm.quarter_grade,
                 "grade": grade_str(mm.quarter_grade),
                 "monomial": monomial_str(mm.monomial),
                 "lhs": str(mm.lhs), "rhs": str(mm.rhs)}
                for label, mm in mismatches]
    # every relations builder returns at least one relation
    certified = 0 if failures else min(m.boundary // 4 for *_, m in checked)
    report = IdentityReport(
        id=identity, mode="formal",
        status="fail" if failures or certified < order else "pass",
        certified_order=certified,
        params={"requested_order": order,
                "relations": [{"relation": label,
                               "compared_through": grade_str(match.boundary)}
                              for label, _, _, match in checked]},
        failures=failures)
    return report, checked


def formal_certify(identity: str, order: Optional[int] = None) -> IdentityReport:
    """Certify an identity by exact coefficient comparison to the order."""
    return _certify(identity, order)[0]


def certificate_text(identity: str, order: Optional[int] = None) -> tuple:
    """Audit certificate: full coefficient tables of both sides per relation.

    Returns (report, text).  Lines are sorted by grade then monomial, so a
    certificate for a given identity and order is byte-stable.
    """
    report, checked = _certify(identity, order)
    lines = ["certificate: %s" % identity,
             "requested order: q^%d" % report.params["requested_order"],
             "status: %s" % report.status,
             ""]
    # each line is "    %-10s %-10s %s" % (grade, monomial, coefficient);
    # the grade column is formed once per grade, the monomial one once per call
    columns: dict = {}
    for label, lhs, rhs, match in checked:
        lines.append("relation: %s" % label)
        lines.append("compared through: %s" % grade_str(match.boundary))
        for side_name, side in (("lhs", lhs), ("rhs", rhs)):
            lines.append("  %s (prefactor %s):" % (side_name,
                                                   grade_str(side.quarter_prefactor)))
            for n in sorted(side.coeffs):
                grade = side.quarter_prefactor + 4 * n
                if grade > match.boundary:
                    break
                head = "    %-10s " % grade_str(grade)
                terms = side.coeffs[n].terms
                for mono in sorted(terms):
                    col = columns.get(mono)
                    if col is None:
                        col = columns[mono] = "%-10s " % monomial_str(mono)
                    c = terms[mono]
                    lines.append(head + col + (str(c) if c.im else str(c.re)))
        if match.mismatch is not None:
            lines.append("  FIRST MISMATCH: %s" % match.mismatch)
        lines.append("")
    return report, "\n".join(lines)


# ---------------------------------------------------------------------------
# whole-suite driver
# ---------------------------------------------------------------------------


def run_suite(plan: SamplePlan = DEFAULT_PLAN,
              tolerance: Optional[float] = None,
              order: Optional[int] = None) -> list:
    """Run every registry identity in its applicable modes.

    Per-identity errors become failed reports; the suite never aborts,
    but a bad tolerance or order raises before any identity runs.
    Deterministic for a given plan seed.
    """
    tolerances = {name: tolerance_for(name, tolerance) for name in REGISTRY}
    if order is not None:
        _check_order(order)
    reports = []
    for name, info in REGISTRY.items():
        for mode in info.modes:
            try:
                if mode == "numeric":
                    report = verify_numeric(name, plan, tolerances[name])
                else:
                    report = formal_certify(name, order)
            except ThetaQError as exc:
                report = IdentityReport(id=name, mode=mode, status="fail",
                                        failures=[{"error": str(exc)}])
            reports.append(report)
    return reports
