"""A fixed reference computation that measures how fast the machine runs now.

On a shared machine the same code runs 1.5-2x slower for tens of seconds
at a time when neighbours get busy, and a 20-second run can fall wholly
inside such a stretch.  The benchmark times the reference before and after
each block of ops (SpeedScale) and scales the block's op times by
REFERENCE_S over the mean of the two.  Times are thus reported as they
would read on a machine running the reference in REFERENCE_S.

The reference never calls thetaq, so a change to the program moves the
op times and not the scale.  It mixes the three kinds of work the
program does: a complex series loop (the float theta kernels), products of
sparse polynomials with integer coefficients in dicts (the exact series
kernel) and multiplication of integers of thousands of digits (mpmath at
high precision).
"""

from __future__ import annotations

import cmath
import time

# Time of reference_seconds() on the reference machine (2-core x86-64
# virtual machine, CPython 3.11) in its fast stretches.
REFERENCE_S = 0.04
# Op time between two reference measurements.
BLOCK_S = 0.5


def _series(n_points=1000, terms=40):
    total = 0j
    for j in range(n_points):
        q = cmath.exp(-0.5 - 0.01 * j + 0.3j)
        w = cmath.exp(0.4j + 0.02 * j)
        wk = qk = 1 + 0j
        for k in range(1, terms):
            wk *= w
            qk = q ** (k * k)
            total += qk * (wk + 1 / wk)
    return total


def _poly_products(rounds=5, width=12):
    a = {(i, j): i * 7 - j * 3 + 1 for i in range(width) for j in range(-2, 3)}
    acc = {(0, 0): 1}
    for _ in range(rounds):
        out = {}
        for (i1, j1), c1 in acc.items():
            for (i2, j2), c2 in a.items():
                key = (i1 + i2, j1 + j2)
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        acc = {k: v for k, v in out.items() if k[0] < 2 * width}
    return len(acc)


def _big_ints(digits=9000, rounds=18):
    x = 10 ** digits // 7
    y = 10 ** digits // 13
    for _ in range(rounds):
        x = (x * y) >> (digits * 3)
        x += y
    return x & 1


def reference_seconds():
    """Seconds the fixed reference computation takes right now."""
    t0 = time.perf_counter()
    _series()
    _poly_products()
    _big_ints()
    return time.perf_counter() - t0


class SpeedScale:
    """Scales op times by the machine speed measured around their block."""

    def __init__(self):
        self.before = reference_seconds()
        self.refs = [self.before]
        self.block = []         # (seconds, tag) of the ops since the last reference
        self.block_s = 0.0

    def add(self, seconds, tag):
        """Queue one op time; return the scaled (seconds, tag) of a block it closes."""
        self.block.append((seconds, tag))
        self.block_s += seconds
        return self.close() if self.block_s >= BLOCK_S else []

    def close(self):
        """Time the reference again; return the open block's scaled (seconds, tag)."""
        if not self.block:
            return []
        after = reference_seconds()
        self.refs.append(after)
        scale = 2 * REFERENCE_S / (self.before + after)
        out = [(seconds * scale, tag) for seconds, tag in self.block]
        self.before, self.block, self.block_s = after, [], 0.0
        return out
