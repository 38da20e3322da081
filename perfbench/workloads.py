"""The four benchmark workloads: per-round inputs, the timed call, the checks.

A workload produces its inputs one round at a time from (seed, round), so
the same seed gives the same inputs and a round can be replayed under the
tracer.  A run cycles through rounds 0..cycle_rounds-1 of inputs: its ops,
and so its failures, are fixed by the seed whatever the machine's speed.  Each op's result is reduced to a small deterministic `record`
(residual, digest, ...) that the traced replay must reproduce exactly;
`check` then decides whether the op passed and returns its residual, if
the workload reports one.

The program is reached only through module attributes looked up at call
time (`self.identities.verify_numeric`, ...), so the tracer's rebinding
covers the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))

# The 21 numerically sampled identities: every numeric id but classical_limit_*.
SAMPLED_IDS = (
    "quasi_period_1", "quasi_period_2", "quasi_period_3", "quasi_period_4",
    "half_period_1", "half_period_2", "half_period_3", "half_period_4",
    "duplication_12", "duplication_23",
    "triple_product_1", "triple_product_2", "triple_product_3", "triple_product_4",
    "thm2", "thm1_tan", "thm1_cot", "cor_cot", "cor_tan", "cosq_shift", "f_constancy",
)
# The ids whose samples go through five qtrig_theta calls each.
QTRIG_SUM_IDS = ("thm1_tan", "thm1_cot", "cor_cot", "cor_tan")
# f_constancy caps its plan at this many samples whatever the requested count.
PROBE_CAP = 50

# The 15 identities with a formal (exact series) mode.
FORMAL_IDS = SAMPLED_IDS[:15]
CERT_ORDERS = (12, 48, 96)

CLASSICAL_Q = (0.9, 0.99, 0.999)
# log10 residuals match the pinned values to this many decades
LOG10_TOL = 1e-6

CROSS_KINDS = ("sin_q", "cos_q", "tan_q", "cot_q", "ssn_q", "ccs_q")
CROSS_RE_TAU = (0.0, 0.3, 0.55, 0.9, 1.5)
CROSS_IM_TAU = (0.05, 0.3, 1.0, 5.0, 20.0)
CROSS_Z_BOX = (0.15 - 0.2j, 1.35 + 0.2j)
CROSS_TOL = 1e-11
CROSS_TRIES = 4     # candidate points per op; a PoleError moves to the next


@dataclass(frozen=True)
class Op:
    label: str      # op class used for per-layer attribution (identity, kind, ...)
    args: tuple


def _rng(seed, name, r):
    return random.Random("%s:%s:%d" % (seed, name, r))


def _load_pins():
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


class SampledResiduals:
    """verify_numeric(id, SamplePlan(seed=s, count=C)) for the 21 sampled ids."""

    name = "sampled_residuals"
    trace_rounds = 5
    cycle_rounds = 7

    def __init__(self, thetaq, tiny):
        self.identities = thetaq.identities
        self.count = 20 if tiny else 500

    def round_ops(self, seed, r):
        plan_seed = _rng(seed, self.name, r).randrange(1 << 30)
        return [Op(i, (i, plan_seed)) for i in SAMPLED_IDS]

    def warmup_op(self):
        return Op("quasi_period_1", ("quasi_period_1", 0))

    def call(self, op):
        ident, plan_seed = op.args
        ids = self.identities
        return ids.verify_numeric(ident, ids.SamplePlan(seed=plan_seed, count=self.count))

    def record(self, op, report):
        return (report.status, report.samples, report.max_abs_residual)

    def check(self, op, rec):
        status, samples, residual = rec
        want = min(self.count, PROBE_CAP) if op.label == "f_constancy" else self.count
        if status != "pass":
            return "status_fail", residual
        if samples != want:
            return "samples_short", residual
        return None, residual


class ExactCertify:
    """certificate_text(id, order) for the 15 formal ids at three orders."""

    name = "exact_certify"
    trace_rounds = 2
    cycle_rounds = 5

    def __init__(self, thetaq, tiny):
        self.identities = thetaq.identities
        self.orders = CERT_ORDERS[:1] if tiny else CERT_ORDERS
        self.digests = _load_pins()["certificate_sha256"]

    def round_ops(self, seed, r):
        ops = [Op(i, (i, o)) for i in FORMAL_IDS for o in self.orders]
        _rng(seed, self.name, r).shuffle(ops)
        return ops

    def warmup_op(self):
        return Op("thm2", ("thm2", 12))

    def call(self, op):
        return self.identities.certificate_text(*op.args)

    def record(self, op, result):
        report, text = result
        return (report.status, report.params.get("requested_order"),
                hashlib.sha256(text.encode()).hexdigest())

    def check(self, op, rec):
        ident, order = op.args
        status, requested, digest = rec
        if status != "pass" or requested != order:
            return "status_fail", None
        if digest != self.digests[ident][str(order)]:
            return "digest_mismatch", None
        return None, None


class ClassicalLimit:
    """classical_residuals(which, (q,)) per q, plus the two verify_numeric ops."""

    name = "classical_limit"
    trace_rounds = 1
    cycle_rounds = 3

    def __init__(self, thetaq, tiny):
        import mpmath
        self.mp = mpmath
        self.identities = thetaq.identities
        self.qs = CLASSICAL_Q[:2] if tiny else CLASSICAL_Q
        self.verify = () if tiny else ("classical_limit_tan", "classical_limit_cot")
        self.log10 = _load_pins()["classical_log10"]

    def round_ops(self, seed, r):
        ops = [Op("residual", (w, q)) for w in ("tan", "cot") for q in self.qs]
        ops += [Op("verify", (i,)) for i in self.verify]
        _rng(seed, self.name, r).shuffle(ops)
        return ops

    def warmup_op(self):
        return Op("residual", ("tan", 0.9))

    def call(self, op):
        if op.label == "verify":
            return self.identities.verify_numeric(op.args[0])
        which, q = op.args
        return self.identities.classical_residuals(which, (q,))

    def record(self, op, result):
        if op.label == "verify":
            return (result.status, result.samples)
        # mp.log10 keeps the exponent exact; str(mpf) would overflow int->str
        return float(self.mp.log10(result[0]))

    def check(self, op, rec):
        if op.label == "verify":
            return (None if rec[0] == "pass" else "status_fail"), None
        which, q = op.args
        if abs(rec - self.log10[which][str(q)]) > LOG10_TOL:
            return "log10_mismatch", None
        return None, None

    def round_check(self, ops, recs, reasons):
        """Residuals must shrink strictly along q for each of tan and cot."""
        for which in ("tan", "cot"):
            idx = sorted((op.args[1], k) for k, op in enumerate(ops)
                         if op.label == "residual" and op.args[0] == which
                         and recs[k] is not None)
            logs = [recs[k] for _, k in idx]
            if any(a <= b for a, b in zip(logs, logs[1:])):
                for _, k in idx:
                    reasons[k] = reasons[k] or "not_decreasing"


class CrosscheckDomain:
    """qtrig_crosscheck(kind, z, p) for six kinds over a 5 x 5 tau grid."""

    name = "crosscheck_domain"
    trace_rounds = 5
    cycle_rounds = 9

    def __init__(self, thetaq, tiny):
        self.qtrig = thetaq.qtrig
        self.errors = thetaq.errors
        self.per_cell = 1 if tiny else 8
        self.worst = 0.0        # largest relative disagreement checked so far
        self.taus = [complex(a, b) for a in CROSS_RE_TAU for b in CROSS_IM_TAU]
        self.params = [thetaq.params.make_param(t) for t in self.taus]

    def round_ops(self, seed, r):
        rng = _rng(seed, self.name, r)
        lo, hi = CROSS_Z_BOX
        ops = []
        for kind in CROSS_KINDS:
            for t in range(len(self.taus)):
                for _ in range(self.per_cell):
                    zs = tuple(complex(rng.uniform(lo.real, hi.real),
                                       rng.uniform(lo.imag, hi.imag))
                               for _ in range(CROSS_TRIES))
                    ops.append(Op(kind, (kind, t, zs)))
        return ops

    def warmup_op(self):
        return Op("sin_q", ("sin_q", 0, (0.7 + 0j,)))

    def call(self, op):
        kind, t, zs = op.args
        p = self.params[t]
        for tried, z in enumerate(zs):
            try:
                return z, self.qtrig.qtrig_crosscheck(kind, z, p), tried
            except self.errors.PoleError:
                if tried == len(zs) - 1:
                    raise

    def record(self, op, result):
        return result

    def check(self, op, rec):
        kind, t, _ = op.args
        z, diff, _ = rec
        # rel <= diff, so the value is needed only when diff could fail the op
        # or raise the worst disagreement seen so far
        if diff <= CROSS_TOL and diff <= self.worst:
            return None, None
        value = self.qtrig.qtrig_theta(kind, z, self.params[t])
        rel = diff / max(1.0, abs(value))
        self.worst = max(self.worst, rel)
        return (None if rel <= CROSS_TOL else "disagreement"), rel


WORKLOADS = {w.name: w for w in (SampledResiduals, ExactCertify, ClassicalLimit,
                                 CrosscheckDomain)}
