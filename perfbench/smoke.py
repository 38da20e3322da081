"""Smoke check of the benchmark: every workload at its smallest size.

    python3 perfbench/smoke.py

Runs each workload of BENCHMARK.json once untraced and once traced with
`--tiny --seconds 0` (one cycle of rounds, see README.md) and
checks the last output line: exactly the keys correct/attempted/failed/
metrics, `correct` true, and every end-to-end (untraced) or per-layer
(traced) metric of BENCHMARK.json present with its unit and a finite value.
Then checks that the benchmark, copied into a directory without the
program's sources, exits non-zero without printing a result.  Exits 1 on
the first problem found.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
TIMEOUT_S = 180


def check_result(line, expected, where):
    try:
        res = json.loads(line)
    except ValueError:
        return "%s: last line is not JSON: %r" % (where, line[:200])
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "%s: wrong keys %r" % (where, sorted(res) if isinstance(res, dict) else res)
    if res["correct"] is not True:
        return "%s: correct is %r" % (where, res["correct"])
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]):
        return "%s: bad counts attempted=%r failed=%r" % (where, res["attempted"], res["failed"])
    got = res["metrics"]
    if set(got) != set(expected):
        return "%s: metrics differ: missing %s, extra %s" % (
            where, sorted(set(expected) - set(got)), sorted(set(got) - set(expected)))
    for name, unit in expected.items():
        value = got[name].get("value")
        if got[name].get("unit") != unit:
            return "%s: %s has unit %r, want %r" % (where, name, got[name].get("unit"), unit)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            return "%s: %s has value %r" % (where, name, value)
    return None


def check_without_sources(spec):
    """A copy holding only BENCHMARK.json and perfbench/ must fail cleanly."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        workload = spec["workloads"][0]["name"]
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0:
        return "without sources: exit code 0"
    if '"metrics"' in done.stdout:
        return "without sources: printed a result"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sets = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = "%s --trace %d" % (workload, trace)
            done = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", "1",
                 "--seconds", "0", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            problem = ("%s: exit %d\n%s" % (where, done.returncode, done.stderr)
                       if done.returncode or not lines
                       else check_result(lines[-1], sets[trace], where))
            if problem:
                print("FAIL " + problem)
                return 1
            print("ok   " + where)
    problem = check_without_sources(spec)
    if problem:
        print("FAIL " + problem)
        return 1
    print("ok   without sources: non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
