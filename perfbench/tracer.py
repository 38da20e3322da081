"""In-memory span tracer that instruments thetaq from outside.

`from .x import f` copies the binding of `f` into the importing module, so
wrapping `thetaq.theta.theta_sum` alone would miss the calls `qtrig_theta`
makes through `thetaq.qtrig.theta_sum`.  `instrument` therefore rebinds the
name in every module that looks it up, and the operator methods on the
exact-series classes.  `uninstall` puts every original back.

Each wrapped call is one span (id, parent, name, start, end).  Spans are
aggregated as they close, keyed by (name, sub-key, op label), where the
sub-key is the |q| band, the evaluation method or the argument that a
per-layer metric is split by, and the op label is set by the benchmark
before each op.  The raw spans of the first MAX_SPANS calls are kept in
memory and written out by `write_spans`.
"""

from __future__ import annotations

import functools
import json
import time

MAX_SPANS = 20000

# |q| bands of the per-layer kernel metrics: small_q < 0.1 <= mid_q < 0.5 <= large_q
BANDS = ("small_q", "mid_q", "large_q")


def band(absq: float) -> str:
    if absq < 0.1:
        return "small_q"
    return "mid_q" if absq < 0.5 else "large_q"


class Tracer:
    def __init__(self):
        self.ctx = ""              # label of the op being run
        self.stack = []            # open spans: [child_seconds, span_id]
        self.stats = {}            # (name, sub, ctx) -> [calls, incl_s, self_s]
        self.errors = {}           # (name, sub, ctx, exception class) -> count
        self.counts = {}           # (name, ctx) -> calls, for count-only hooks
        self.spans = []            # (id, parent, name, start, end)
        self.next_id = 1
        self.origin = time.perf_counter()
        self._patched = []         # (owner, attribute, original)

    def wrap(self, name, fn, sub=None):
        """A span-recording stand-in for fn; sub(args, kwargs) splits the stats."""
        stack, stats, errors, spans = self.stack, self.stats, self.errors, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = (name, sub(args, kwargs) if sub else "", self.ctx)
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            exc_name = None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                exc_name = type(exc).__name__
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                agg = stats.get(key)
                if agg is None:
                    agg = stats[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                if exc_name is not None:
                    ekey = key + (exc_name,)
                    errors[ekey] = errors.get(ekey, 0) + 1
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, parent, name, t0 - self.origin,
                                  t1 - self.origin))

        return traced

    def counter(self, name, fn):
        """A count-only stand-in for fn, for calls too many to time one by one."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (name, self.ctx)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading the aggregates ------------------------------------------

    def total(self, name, field, sub=None, ctxs=None):
        """Sum a stats field (0 calls, 1 incl_s, 2 self_s) over matching keys."""
        out = 0
        for (n, s, c), agg in self.stats.items():
            if n == name and (sub is None or s == sub) and (ctxs is None or c in ctxs):
                out += agg[field]
        return out

    def error_count(self, name, exc_name=None, ctxs=None):
        """Calls of name that raised exc_name (any exception when None)."""
        return sum(v for (n, _, c, e), v in self.errors.items()
                   if n == name and exc_name in (None, e) and (ctxs is None or c in ctxs))

    def count(self, name):
        return sum(v for (n, _), v in self.counts.items() if n == name)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _param_band(args, kwargs):          # theta_sum(kind, z, p, ...)
    return band(abs(_arg(args, kwargs, 2, "p", None).q))


def _nome_band(args, kwargs):           # qpochhammer(a, q, ...)
    return band(abs(complex(_arg(args, kwargs, 1, "q", None))))


def _method(args, kwargs):              # theta_eval(kind, z, p, policy, method)
    return _arg(args, kwargs, 4, "method", "series")


def _classical_kind(args, kwargs):      # verify_numeric(identity, ...)
    ident = _arg(args, kwargs, 0, "identity", "")
    return "classical" if ident.startswith("classical_limit") else "sampled"


def _which_q(args, kwargs):             # classical_residuals(which, qs)
    which = _arg(args, kwargs, 0, "which", "")
    qs = _arg(args, kwargs, 1, "qs", None)
    if qs is not None and len(qs) == 1:
        return "%s.q%s" % (which, qs[0])
    return which + ".all"


def _order(args, kwargs):               # certificate_text(identity, order)
    return "order%s" % _arg(args, kwargs, 1, "order", None)


def instrument(tracer, thetaq):
    """Rebind every instrumented name in each module that looks it up."""
    theta, qtrig, params = thetaq.theta, thetaq.qtrig, thetaq.params
    identities, formal = thetaq.identities, thetaq.formal
    spans = [
        # span name, original, the owners that look it up, sub-key
        ("theta.theta_sum", theta.theta_sum, (theta, qtrig), _param_band),
        ("theta.qpochhammer", theta.qpochhammer, (theta, qtrig), _nome_band),
        ("theta.theta_eval", theta.theta_eval, (theta, identities), _method),
        ("params.make_param", params.make_param, (params, qtrig, identities), None),
        ("qtrig.qtrig_theta", qtrig.qtrig_theta, (qtrig, identities), None),
        ("qtrig.qtrig_product_any", qtrig.qtrig_product_any, (qtrig,), None),
        ("identities.numeric_residual", identities.numeric_residual, (identities,), None),
        ("identities.constancy_probe", identities.constancy_probe, (identities,), None),
        ("identities.verify_numeric", identities.verify_numeric, (identities,),
         _classical_kind),
        ("identities.classical_residuals", identities.classical_residuals,
         (identities,), _which_q),
        ("identities.formal_relations", identities.formal_relations, (identities,), None),
        ("identities.certificate_text", identities.certificate_text, (identities,),
         _order),
        ("formal.theta_series", formal.theta_series, (identities,), None),
        ("formal.pochhammer_product", formal.pochhammer_product, (identities,), None),
        ("formal.shift_argument", formal.shift_argument, (identities,), None),
        ("formal.series_equal", formal.series_equal, (identities,), None),
    ]
    for name, original, owners, sub in spans:
        wrapped = tracer.wrap(name, original, sub)
        for owner in owners:
            tracer.patch(owner, original.__name__, wrapped)
    tracer.patch(formal.GradedSeries, "__mul__",
                 tracer.wrap("formal.GradedSeries.mul", formal.GradedSeries.__mul__))
    tracer.patch(formal.LaurentPoly, "__mul__",
                 tracer.counter("formal.LaurentPoly.mul", formal.LaurentPoly.__mul__))
