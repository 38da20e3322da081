"""Layered benchmark for thetaq.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The lines before it
are a readable report.  See perfbench/README.md for the workloads, the
metrics and the load model.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter

from calibrate import REFERENCE_S, SpeedScale, reference_seconds
from tracer import BANDS, Tracer, instrument
from workloads import QTRIG_SUM_IDS, SAMPLED_IDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 11       # fresh processes timed for setup_s; the median is reported
# Op latencies kept for the percentiles.  Past this many, every other one is
# dropped and only every second later op is kept, so memory stays flat
# however fast the program runs.
LATENCY_CAP = 1 << 16
PROBE_TIMEOUT_S = 60


def import_program():
    """Import thetaq from the checkout's src/, never from anywhere else."""
    init = os.path.join(SRC, "thetaq", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit("perfbench: no thetaq package at %s" % init)
    sys.path.insert(0, SRC)
    import thetaq
    if os.path.realpath(thetaq.__file__) != os.path.realpath(init):
        raise SystemExit("perfbench: imported thetaq from %s, not %s"
                         % (thetaq.__file__, init))
    return thetaq


def setup(name, seed, tiny):
    """Import, make the first round's inputs, run one untimed warm-up op."""
    thetaq = import_program()
    wl = WORKLOADS[name](thetaq, tiny)
    first = wl.round_ops(seed, 0)
    wl.call(wl.warmup_op())
    return thetaq, wl, first


def probe_setup_seconds(args):
    """Median set-up time over SETUP_PROBES fresh interpreter processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise SystemExit("perfbench: set-up probe failed:\n" + done.stderr)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def rank(sorted_values, share):
    """The value at sorted index floor(share*n), and the number of values after it.

    For share 0.5 and an even count this is the upper median.
    """
    k = min(len(sorted_values) - 1, int(share * len(sorted_values)))
    return sorted_values[k], len(sorted_values) - k - 1


def timed_op(call, wl, op):
    """Run one op; return its seconds and (exception class or None, record)."""
    t0 = time.perf_counter()
    try:
        result = call(op)
    except Exception as exc:  # a failed op is counted, not fatal
        return time.perf_counter() - t0, (type(exc).__name__, None)
    return time.perf_counter() - t0, (None, wl.record(op, result))


class Measurement:
    """Closed-loop untraced pass: whole rounds until --seconds of op time.

    Rounds cycle through the workload's cycle_rounds rounds of inputs.  The
    first pass over the cycle is checked and counted in attempted/failed, so
    the counts depend on the seed alone.  Every later round must reproduce
    its cycle round's outcomes exactly; a round that does not is counted in
    `repeat_mismatches` and makes the run incorrect.
    """

    def __init__(self):
        self.latency = array("d")
        self.stride = 1         # latency kept for ops whose index is a multiple
        self.seen = 0
        self.round_time = []    # scaled op time per round
        self.round_size = []
        self.round_lat = {}     # scaled latencies of the rounds not yet complete
        self.round_p50 = []     # upper median op latency per complete round
        self.round_passed = []
        self.reasons = Counter()
        self.attempted = 0
        self.failed = 0
        self.repeat_mismatches = 0
        self.worst = None
        self.kept = {}          # cycle round -> outcomes

    def run(self, wl, seed, first, seconds, min_rounds):
        cycle = [first] + [wl.round_ops(seed, r) for r in range(1, wl.cycle_rounds)]
        min_rounds = max(min_rounds, wl.cycle_rounds)
        scaler = SpeedScale()
        r = 0
        timed = 0.0             # unscaled op time, which --seconds bounds
        while True:
            c = r % wl.cycle_rounds
            ops = cycle[c]
            outcomes = []
            self.round_time.append(0.0)
            self.round_size.append(len(ops))
            for op in ops:
                dt, outcome = timed_op(wl.call, wl, op)
                timed += dt
                self._account(scaler.add(dt, r))
                outcomes.append(outcome)
            if r == c:
                self._check(wl, ops, outcomes)
                self.kept[c] = outcomes
            else:
                self.repeat_mismatches += repr(outcomes) != repr(self.kept[c])
                self.round_passed.append(self.round_passed[c])
            r += 1
            # an odd count makes the median over rounds one whole round
            if timed >= seconds and r >= min_rounds and r % 2:
                break
        self._account(scaler.close())
        self.refs = scaler.refs
        # read before any post-processing copies the latencies
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _account(self, scaled):
        """Book scaled op times, tagged with their round, once their block closes."""
        for dt, r in scaled:
            self.round_time[r] += dt
            lat = self.round_lat.setdefault(r, [])
            lat.append(dt)
            if len(lat) == self.round_size[r]:
                self.round_p50.append(rank(sorted(lat), 0.5)[0])
                del self.round_lat[r]
            if self.seen % self.stride == 0:
                self.latency.append(dt)
                if len(self.latency) == LATENCY_CAP:
                    del self.latency[1::2]
                    self.stride *= 2
            self.seen += 1

    def _check(self, wl, ops, outcomes):
        reasons = []
        for op, (err, rec) in zip(ops, outcomes):
            if err is not None:
                reasons.append(err)
                continue
            reason, residual = wl.check(op, rec)
            reasons.append(reason)
            if residual is not None and (self.worst is None or residual > self.worst):
                self.worst = residual
        if hasattr(wl, "round_check"):
            wl.round_check(ops, [rec for _, rec in outcomes], reasons)
        failed = [reason for reason in reasons if reason]
        self.reasons.update(failed)
        self.attempted += len(reasons)
        self.failed += len(failed)
        self.round_passed.append(len(reasons) - len(failed))


def traced_replay(thetaq, wl, seed, meas):
    """Replay rounds 1..R under the tracer.

    Returns the tracer, the number of ops whose outcome differs from the
    untraced pass, the tracing overhead and the speed scale of the replay.
    """
    tracer = Tracer()
    instrument(tracer, thetaq)
    call = tracer.wrap("op", wl.call)     # the benchmark's own span around each op
    scaler = SpeedScale()
    mismatches = 0
    raw = scaled = 0.0
    try:
        for r in range(1, wl.trace_rounds + 1):
            for op, want in zip(wl.round_ops(seed, r), meas.kept[r]):
                tracer.ctx = op.label
                dt, got = timed_op(call, wl, op)
                raw += dt
                scaled += sum(s for s, _ in scaler.add(dt, None))
                mismatches += repr(got) != repr(want)
        scaled += sum(s for s, _ in scaler.close())
    finally:
        tracer.uninstall()
    untraced = sum(meas.round_time[1:wl.trace_rounds + 1])
    return tracer, mismatches, scaled / untraced - 1.0, scaled / raw


def layer_metrics(tr, rounds, overhead, speed):
    """The per-layer metrics; counts and self times are per round.

    Span times are multiplied by speed, the replay's machine-speed scale.
    """
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def per_call(name, unit_scale, **kw):
        calls = tr.total(name, 0, **kw)
        return tr.total(name, 1, **kw) / calls * unit_scale * speed if calls else 0.0

    def per_round(name, field, **kw):
        return tr.total(name, field, **kw) / rounds * (speed if field else 1)

    for name in ("theta.theta_sum", "theta.qpochhammer"):
        put(name + ".calls", per_round(name, 0), "calls/round")
        put(name + ".self_s", per_round(name, 2), "s/round")
        for b in BANDS:
            put("%s.us_per_call.%s" % (name, b), per_call(name, 1e6, sub=b), "us")
    for method in ("series", "product"):
        put("theta.theta_eval.%s.calls" % method,
            per_round("theta.theta_eval", 0, sub=method), "calls/round")

    nr, probe = "identities.numeric_residual", "identities.constancy_probe"
    samples = tr.total(nr, 0, ctxs=QTRIG_SUM_IDS)

    def per_sample(name):
        return tr.total(name, 0, ctxs=QTRIG_SUM_IDS) / samples if samples else 0.0

    put("params.make_param.calls_per_sample", per_sample("params.make_param"),
        "calls/sample")
    for name in ("qtrig.qtrig_theta", "qtrig.qtrig_product_any"):
        put(name + ".calls", per_round(name, 0), "calls/round")
        put(name + ".self_s", per_round(name, 2), "s/round")
        put(name + ".us_per_call", per_call(name, 1e6), "us")
    put("qtrig.qtrig_theta.calls_per_sample", per_sample("qtrig.qtrig_theta"),
        "calls/sample")
    put("qtrig.pole_errors",
        (tr.error_count("qtrig.qtrig_theta", "PoleError")
         + tr.error_count("qtrig.qtrig_product_any", "PoleError")) / rounds,
        "errors/round")

    # f_constancy samples through constancy_probe, not numeric_residual
    for ident in SAMPLED_IDS:
        fn = probe if ident == "f_constancy" else nr
        put("%s.us.%s" % (nr, ident), per_call(fn, 1e6, ctxs=(ident,)), "us")
    probe_ctx = ("f_constancy",)
    put(nr + ".pole_resamples",
        (tr.error_count(nr, "PoleError")
         + tr.error_count(probe, "PoleError", ctxs=probe_ctx)) / rounds,
        "count/round")
    attempts = tr.total(nr, 0) + tr.total(probe, 0, ctxs=probe_ctx)
    kept = attempts - tr.error_count(nr) - tr.error_count(probe, ctxs=probe_ctx)
    vn = "identities.verify_numeric"
    put(vn + ".self_s", per_round(vn, 2, sub="sampled"), "s/round")
    put(vn + ".sample_yield", kept / attempts if attempts else 0.0, "ratio")

    for which in ("tan", "cot"):
        for q in (0.9, 0.99, 0.999):
            put("identities.classical_residuals.s.%s.q%s" % (which, q),
                per_call("identities.classical_residuals", 1.0,
                         sub="%s.q%s" % (which, q)), "s")
    put(vn + ".classical_s", per_call(vn, 1.0, sub="classical"), "s")

    fr, ct = "identities.formal_relations", "identities.certificate_text"
    certs = tr.total(ct, 0)
    put(fr + ".calls_per_certificate", tr.total(fr, 0) / certs if certs else 0.0,
        "calls/cert")
    put(fr + ".self_s", per_round(fr, 2), "s/round")
    for order in (12, 48, 96):
        put("%s.ms.order%d" % (ct, order), per_call(ct, 1e3, sub="order%d" % order), "ms")

    put("formal.GradedSeries.mul.calls", per_round("formal.GradedSeries.mul", 0),
        "calls/round")
    put("formal.GradedSeries.mul.self_s", per_round("formal.GradedSeries.mul", 2),
        "s/round")
    put("formal.LaurentPoly.mul.calls", tr.count("formal.LaurentPoly.mul") / rounds,
        "calls/round")
    for fn in ("theta_series", "pochhammer_product", "shift_argument", "series_equal"):
        put("formal.%s.self_s" % fn, per_round("formal." + fn, 2), "s/round")
    put("trace.overhead_share", overhead, "ratio")
    return m


def end_to_end_metrics(meas, setup_s):
    """setup_s is None in a traced run, which does not probe set-up."""
    metrics = {} if setup_s is None else {"setup_s": {"value": setup_s, "unit": "s"}}
    rate = statistics.median(p / t for p, t in zip(meas.round_passed, meas.round_time))
    return {
        **metrics,
        "ops_per_s": {"value": rate, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(meas.round_p50) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": meas.peak_rss_mb, "unit": "MB"},
    }


def report(wl, args, meas, e2e, layers):
    """Readable lines for every metric, including those outside the JSON line."""
    lat = sorted(meas.latency)
    sample = "n=%d" % len(lat)
    if meas.stride > 1:
        sample += ", 1 in %d ops" % meas.stride
    print("workload %s  seed %d  rounds %d (a cycle of %d repeated)  ops checked %d"
          "  failed %d" % (wl.name, args.seed, len(meas.round_time), wl.cycle_rounds,
                           meas.attempted, meas.failed))
    print("  times scaled to the reference speed: the reference took %.4g s"
          " (median of %d), %.4g s at reference speed"
          % (statistics.median(meas.refs), len(meas.refs), REFERENCE_S))
    for name, metric in e2e.items():
        extra = ""
        if name == "setup_s":
            extra = "  (median of %d fresh processes)" % SETUP_PROBES
        elif name == "op_p50_ms":
            extra = "  (median over %d rounds of %d ops)" % (len(meas.round_p50),
                                                           meas.round_size[-1])
        print("  %-22s %-14.6g %s%s" % (name, metric["value"], metric["unit"], extra))
    p90, beyond = rank(lat, 0.9)
    if beyond >= 10:
        print("  %-22s %-14.6g ms  (%s, %d beyond p90)" % ("op_p90_ms", p90 * 1e3, sample, beyond))
    else:
        print("  %-22s omitted: %d ops beyond p90, fewer than 10" % ("op_p90_ms", beyond))
    breakdown = ", ".join("%s: %d" % kv for kv in sorted(meas.reasons.items()))
    print("  %-22s %-14.6g 1  (%d of %d attempted%s)"
          % ("fail_share", meas.failed / meas.attempted, meas.failed, meas.attempted,
             "; " + breakdown if breakdown else ""))
    if meas.worst:
        print("  %-22s %-14.6g decades" % ("worst_residual_log10", math.log10(meas.worst)))
    for name, metric in (layers or {}).items():
        print("  %-52s %-14.6g %s" % (name, metric["value"], metric["unit"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="op time to measure; whole rounds run until it is reached")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs of every workload (smoke mode)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        before = reference_seconds()
        t0 = time.perf_counter()
        setup(args.workload, args.seed, args.tiny)
        took = time.perf_counter() - t0
        print(took * 2 * REFERENCE_S / (before + reference_seconds()))
        return 0

    import_program()    # fail fast, before any probe, when the sources are missing
    setup_s = None if args.trace else probe_setup_seconds(args)
    thetaq, wl, first = setup(args.workload, args.seed, args.tiny)

    meas = Measurement()
    meas.run(wl, args.seed, first, args.seconds,
             wl.trace_rounds + 1 if args.trace else 1)
    correct = meas.attempted > meas.failed
    if meas.repeat_mismatches:
        print("%d repeated rounds differ from their first run" % meas.repeat_mismatches)
        correct = False
    layers = None
    if args.trace:
        tracer, mismatches, overhead, speed = traced_replay(thetaq, wl, args.seed, meas)
        if mismatches:
            print("traced replay differs from the untraced pass in %d ops" % mismatches)
            correct = False
        layers = layer_metrics(tracer, wl.trace_rounds, overhead, speed)
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, "spans-%s-seed%d.jsonl"
                                        % (wl.name, args.seed)))
    e2e = end_to_end_metrics(meas, setup_s)
    report(wl, args, meas, e2e, layers)
    print(json.dumps({"correct": correct, "attempted": meas.attempted,
                      "failed": meas.failed, "metrics": layers or e2e}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
