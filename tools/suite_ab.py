"""Byte-identity check of `thetaq suite` between two revisions.

    python3 tools/suite_ab.py --parent <rev> [--change <rev>]

Each side is a committed revision (the change defaults to HEAD), unpacked
with `git archive` into a temporary directory as by tools/bench_ab.py.  On
both trees `python -m thetaq suite` runs with each flag set of RUNS (below),
in json, csv and text, and each run's stdout, byte for byte, and exit code
must be the same on both sides.  Prints one line per run and, for a run
that differs, the first line that differs; for a json run it also names the
(id, mode) of every report that differs.  Exits 1 if any run differs.  A
refactor must leave every run identical.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from bench_ab import git, unpack

# the third is CI's off-plan run: the one that reaches the product path's
# exact exponents (Re tau 9.3 > 8)
RUNS = (("--seed", "7"), ("--seed", "3", "--count", "50"),
        ("--seed", "7", "--count", "50", "--tau", "1.3,1.1", "--tau", "0,0.3",
         "--tau", "0,3", "--tau", "0,0.05", "--tau", "9.3,1.1"))
FORMATS = ("json", "csv", "text")
RUN_TIMEOUT_S = 600


def suite(tree, flags) -> tuple:
    """(exit code, stdout bytes) of `thetaq suite` with flags, from tree's src/."""
    cmd = [sys.executable, "-m", "thetaq", "suite", *flags]
    done = subprocess.run(cmd, cwd=tree, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(tree, "src")),
                          timeout=RUN_TIMEOUT_S)
    if done.returncode not in (0, 1):       # 1 is a failed identity, still a report
        raise SystemExit("suite_ab: %s in %s failed (exit %d):\n%s"
                         % (" ".join(cmd[1:]), tree, done.returncode,
                            done.stderr.decode(errors="replace")))
    return done.returncode, done.stdout


def first_difference(parent: bytes, change: bytes) -> str:
    """The first line at which two different outputs differ, as three report
    lines; each line is shown as a repr, so a stray \\r or space shows."""
    # backslashreplace maps distinct bytes to distinct text, so some line differs
    old, new = (out.decode(errors="backslashreplace").split("\n")
                for out in (parent, change))
    n = next((i for i, pair in enumerate(zip(old, new)) if pair[0] != pair[1]),
             min(len(old), len(new)))
    shown = [repr(side[n]) if n < len(side) else "<end of output>"
             for side in (old, new)]
    return "  line %d\n  parent: %s\n  change: %s" % (n + 1, *shown)


def moved_reports(parent: bytes, change: bytes) -> list:
    """The (id, mode) of every report that differs between two json suite
    outputs, in the parent's order, then any the parent lacks.  The report
    array is decoded from the start of each output, the summary line after
    it ignored, and each report compared re-encoded, so NaN equals NaN and
    -0.0 differs from 0.0."""
    parent_reports, change_reports = (
        {(r["id"], r["mode"]): json.dumps(r, sort_keys=True)
         for r in json.JSONDecoder().raw_decode(out.decode())[0]}
        for out in (parent, change))
    keys = [*parent_reports, *(k for k in change_reports if k not in parent_reports)]
    return [k for k in keys if parent_reports.get(k) != change_reports.get(k)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--change", default="HEAD",
                    help="git revision of the change side (default: HEAD)")
    args = ap.parse_args(argv)

    differ = 0
    with tempfile.TemporaryDirectory(prefix="suite_ab-") as tmp:
        trees = [unpack(rev, os.path.join(tmp, side))
                 for rev, side in ((args.parent, "parent"), (args.change, "change"))]
        for flags in RUNS:
            for fmt in FORMATS:
                run = (*flags, "--format", fmt)
                (old_code, old), (new_code, new) = (suite(tree, run) for tree in trees)
                same = (old_code, old) == (new_code, new)
                print("%-9s suite %s"
                      % ("identical" if same else "DIFFERS", " ".join(run)))
                if old_code != new_code:
                    print("  exit code: parent %d, change %d" % (old_code, new_code))
                elif not same:
                    print(first_difference(old, new))
                if not same and fmt == "json":
                    moved = ["%s (%s)" % key for key in moved_reports(old, new)]
                    print("  reports that differ: %s" % (", ".join(moved) or "none"))
                differ += not same
    print("%s: %d of %d runs differ" % (
        " against ".join(git("rev-parse", "--short", rev).decode().strip()
                         for rev in (args.change, args.parent)),
        differ, len(RUNS) * len(FORMATS)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
