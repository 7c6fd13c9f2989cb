#!/usr/bin/env python3
"""A/B the repository benchmark: a base revision against the working tree.

    python3 bench/perf_ab.py --base REV --workload W [--pairs N] [--seed K]

Run from the repository root (`make perf-ab BASE=REV WORKLOAD=W
PAIRS=N` does). Exports REV with `git archive` into
_build/perf-ab/<sha>/, then runs `python3 perfbench/run.py` N times on
each side, alternating which side goes first from pair to pair so that
a drift in the host's load falls on both. Each run lasts
BENCHMARK.json's run_seconds. Prints each end-to-end metric's median
and quartiles per side, the change in the median, and in how many
pairs the working tree was better (ties count for neither), then each
side's attempted and failed operation counts and every run that
reported `correct: false`. Exits 1 when the working tree's failed share
is above the base's. A run that exits with another code (an uncaught
OCaml exception exits 2) stops the A/B with its side, pair, exit code
and last stderr lines. Writes nothing outside _build/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

STDERR_LINES = 20


def run_bench(root, args, side, pair):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    # An incorrect run exits 1 but still prints its result line.
    if out.returncode not in (0, 1) or not lines:
        # An uncaught OCaml exception exits 2 and prints its message
        # last on stderr.
        tail = "\n".join(out.stderr.rstrip().splitlines()[-STDERR_LINES:])
        sys.exit("perf-ab: benchmark failed on the %s side in pair %d of %d (%s), exit code %d;"
                 " last stderr lines:\n%s"
                 % (side, pair + 1, args.pairs, root, out.returncode, tail))
    result = json.loads(lines[-1])
    result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    return result


def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return "%.4g [%.4g, %.4g]" % (statistics.median(xs), q1, q3)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--base", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    sha = subprocess.check_output(["git", "rev-parse", args.base], text=True).strip()
    base = os.path.join("_build", "perf-ab", sha[:12])
    if not os.path.isdir(base):
        os.makedirs(base + ".tmp", exist_ok=True)
        subprocess.run("git archive %s | tar -x -C %s" % (sha, base + ".tmp"),
                       shell=True, check=True)
        os.rename(base + ".tmp", base)
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    metrics = declared["end_to_end"]
    args.seconds = declared["run_seconds"]
    runs = {"base": [], "work": []}
    for i in range(args.pairs):
        order = ["base", "work"] if i % 2 == 0 else ["work", "base"]
        for side in order:
            runs[side].append(run_bench(base if side == "base" else ".", args, side, i))
        print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)
    print("%s: %s vs working tree, %d pairs of %d s runs"
          % (args.workload, sha[:12], args.pairs, args.seconds))
    print("%-20s %30s %30s %8s  %s"
          % ("metric", "base median [q1, q3]", "work median [q1, q3]", "change", "work better"))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        if name not in runs["base"][0]["metrics"]:
            continue
        b = [r["metrics"][name] for r in runs["base"]]
        w = [r["metrics"][name] for r in runs["work"]]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, w))
        mb = statistics.median(b)
        change = (statistics.median(w) - mb) / mb * 100 if mb else float("nan")
        print("%-20s %30s %30s %+7.1f%%  %d of %d pairs"
              % (name, spread(b), spread(w), change, wins, args.pairs))
    share = {}
    for side in ("base", "work"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        share[side] = failed / attempted if attempted else 0.0
        print("%s: %d attempted, %d failed (share %.4g)" % (side, attempted, failed, share[side]))
        for i, r in enumerate(runs[side]):
            if not r["correct"]:
                print("%s: run %d of %d reported correct: false" % (side, i + 1, args.pairs))
    if share["work"] > share["base"]:
        sys.exit("perf-ab: the working tree's failed share is above the base's")


if __name__ == "__main__":
    main()
