"""A/B driver for perfbench: a parent revision against a change, in BENCH_<n>.json form.

    python3 tools/bench_ab.py --parent <rev> [--change <rev>] --out BENCH_<n>.json

Each side is a committed revision (the change defaults to HEAD), unpacked
with `git archive` into a temporary directory, so both sides run from clean
trees.  For every workload of BENCHMARK.json, at each of SEEDS seeds (below),
`perfbench/run.py` runs once per side untraced for BENCHMARK.json's
run_seconds, parent and change alternating, and which side goes first
alternating with the seed; then each workload runs four times per side
(TRACED_PAIRS) with `--trace 1`, at the first seeds, which side goes first
again alternating, so each side leads two of the four pairs.  Every run
must exit 0 and print its result line, or the driver stops.  --host records the machine in the output; its
default notes when the bytecode cache is off (PYTHONDONTWRITEBYTECODE), as
every set-up then compiles src/ from source.

The output has the schema of BENCH_7.json (see README, "Performance
trajectory"): `runs` holds each run's last output line verbatim, `summary`
the per-workload medians, ratios, wins and the parent's interquartile range
of every end-to-end metric in BENCHMARK.json plus the failed-op counts per
seed, and `trace_layers` the per-layer metrics as [parent median, change
median] over the traced runs, with `correct` for every traced run.  Each
metric's `worse_beyond_bound` is true when the change's median is worse
than the parent's, in the metric's `better` direction, by more than its
`bound` (a fraction of the parent's median): the test of a change that
claims no gain.  `gain_shown` is the test of a claimed gain: at least ten
pairs, the change better in nine of ten, and its median better by more
than the parent's IQR.  `unresolved` marks a metric whose parent IQR
exceeds its bound while the two sides' runs overlap: it can show neither.

    python3 tools/bench_ab.py --parent HEAD --tiny --out /tmp/ab.json

is the quick self-check: one seed and one traced pair per workload at the
smallest inputs.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import operator
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# seeds per workload: a speed-up may be claimed on any workload, so each gets
# ten pairs, and nine wins of ten can be shown
SEEDS = 10
FIRST_SEED = 11
# traced runs per side and workload: one traced run's per-layer figures are
# single noisy samples, so each is read as the median of four, and with an
# even count each side goes first in half the pairs
TRACED_PAIRS = 4
RUN_TIMEOUT_S = 1800


def git(*args) -> bytes:
    done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True)
    if done.returncode:
        raise SystemExit("bench_ab: git %s failed:\n%s"
                         % (" ".join(args), done.stderr.decode()))
    return done.stdout


def unpack(rev, dest) -> str:
    """Extract the files of revision rev into dest."""
    archive = io.BytesIO(git("archive", "--format=tar", rev))
    # the "data" filter exists from Python 3.10.12 and 3.11.4 on
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    tarfile.open(fileobj=archive).extractall(dest, **safe)
    return dest


def run_bench(tree, workload, seed, seconds, trace, tiny) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("bench_ab: %s failed (exit %d):\n%s"
                         % (" ".join(cmd[1:]), done.returncode, done.stderr))
    return json.loads(lines[-1])


def sig(value, digits=4):
    """value rounded to digits significant digits: a median in seconds keeps
    them as one in thousands of ops/s does.  0 and non-finite values stay."""
    if not value or not math.isfinite(value):
        return value
    return round(value, digits - 1 - math.floor(math.log10(abs(value))))


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="exclusive")
    return q[2] - q[0]


def summarize(runs, workload, metrics) -> dict:
    """Medians, ratio, wins, the parent's IQR, worse_beyond_bound,
    gain_shown and unresolved per end-to-end metric.

    gain_shown: at least SEEDS pairs, the change better in at least 9
    of 10 of them, and its median better than the parent's by more than
    the parent's IQR.  unresolved: the parent's IQR exceeds the metric's
    bound (times the parent's median), and not every change run is better
    than every parent run; such a metric can show neither a gain nor a loss.
    """
    sides = {"parent": {}, "change": {}}
    for run in runs:
        if run["workload"] == workload and not run["trace"]:
            sides[run["side"]][run["seed"]] = run["result"]
    seeds = sorted(sides["parent"])
    out = {"seeds": seeds}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        pv = [sides["parent"][s]["metrics"][name]["value"] for s in seeds]
        cv = [sides["change"][s]["metrics"][name]["value"] for s in seeds]
        better = operator.gt if higher else operator.lt
        wins = sum(better(c, p) for p, c in zip(pv, cv))
        pm, cm = statistics.median(pv), statistics.median(cv)
        bound, spread = spec["bound"], iqr(pv)
        out[name] = {"parent_median": sig(pm), "change_median": sig(cm),
                     "change_over_parent": round(cm / pm, 4) if pm else None,
                     "change_wins": "%d of %d" % (wins, len(seeds)),
                     "parent_iqr": sig(spread),
                     "worse_beyond_bound": (cm < pm * (1 - bound)) if higher
                     else (cm > pm * (1 + bound)),
                     "gain_shown": len(seeds) >= SEEDS and 10 * wins >= 9 * len(seeds)
                     and abs(cm - pm) > spread and better(cm, pm),
                     "unresolved": spread > bound * abs(pm)
                     and not all(better(c, p) for c in cv for p in pv)}
    out["failed_ops_per_seed"] = {side: {str(s): res[s]["failed"] for s in seeds}
                                  for side, res in sides.items()}
    out["all_correct"] = all(res[s]["correct"] for res in sides.values() for s in seeds)
    return out


def summarize_traced(runs, workload) -> dict:
    """The traced runs of workload: `correct` of each, the parent's runs
    first, and every per-layer metric as [parent median, change median]."""
    sides = {side: [r["result"] for r in runs if r["trace"]
                    and r["workload"] == workload and r["side"] == side]
             for side in ("parent", "change")}
    names = sides["parent"][0]["metrics"]
    return {"correct": [res["correct"] for side in sides.values() for res in side],
            "metrics": {name: [sig(statistics.median(
                res["metrics"][name]["value"] for res in side))
                for side in sides.values()] for name in names}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--change", default="HEAD",
                    help="git revision of the change side (default: HEAD)")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--tiny", action="store_true",
                    help="perfbench's smallest inputs, one seed and one traced "
                         "pair, --seconds 0")
    host = "%s, Python %s%s" % (platform.machine(), platform.python_version(),
                                ", bytecode cache off" if sys.flags.dont_write_bytecode
                                else "")
    ap.add_argument("--host", default=host, help="the machine, as recorded in the file")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = 0 if args.tiny else spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    parent = git("rev-parse", "--short", args.parent).decode().strip()
    change = git("rev-parse", "--short", args.change).decode().strip()

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        trees = {"parent": unpack(args.parent, os.path.join(tmp, "parent")),
                 "change": unpack(args.change, os.path.join(tmp, "change"))}

        def run(side, workload, seed, trace):
            print("run %d: %s %s seed %d trace %d" % (len(runs), side, workload, seed,
                                                      trace), file=sys.stderr)
            result = run_bench(trees[side], workload, seed, seconds, trace, args.tiny)
            runs.append({"order": len(runs), "side": side, "workload": workload,
                         "seed": seed, "trace": trace, "result": result})

        for trace, pairs in ((0, SEEDS), (1, TRACED_PAIRS)):
            for workload in workloads:
                for i in range(1 if args.tiny else pairs):
                    for side in (("parent", "change") if i % 2 == 0
                                 else ("change", "parent")):
                        run(side, workload, FIRST_SEED + i, trace)

    traced = {workload: summarize_traced(runs, workload) for workload in workloads}
    report = {
        "about": "perfbench runs of the parent commit %s and of commit %s, alternating "
                 "parent/change per seed; see README, 'Performance trajectory'"
                 % (parent, change),
        "command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds %g "
                   "--trace <0|1>%s" % (seconds, " --tiny" if args.tiny else ""),
        "host": args.host,
        "parent": parent,
        "summary": {w: summarize(runs, w, spec["end_to_end"]) for w in workloads},
        "trace_layers": traced,
    }
    # indented like BENCH_7.json, with one line per run
    head = json.dumps(report, indent=1)
    with open(args.out, "w") as fh:
        fh.write(head[:-2] + ',\n "runs": [\n%s\n ]\n}\n'
                 % ",\n".join("  " + json.dumps(r) for r in runs))
    for w in workloads:
        line = report["summary"][w]
        print("%-18s correct=%s  %s" % (w, line["all_correct"], "  ".join(
            "%s %s (%s, worse_beyond_bound=%s, gain_shown=%s, unresolved=%s)" % (
                m["name"], line[m["name"]]["change_over_parent"],
                line[m["name"]]["change_wins"], line[m["name"]]["worse_beyond_bound"],
                line[m["name"]]["gain_shown"], line[m["name"]]["unresolved"])
            for m in spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
