#!/usr/bin/env python3
"""Determinism self-check for the designer benchmark.

Run from the repository root:

    python3 perfbench/selfcheck.py [--seconds 1] [--workload NAME ...]

For each workload: two runs with one seed must print identical `counts`
lines (feed rows, skipped cellviews, WAL bytes, store and payload bytes,
op and error counts), a run with a second seed must print different
counts (its inputs changed) and the same metric names. Exits 1 on any
mismatch.
"""

import argparse
import json
import subprocess
import sys

import run as bench


def one_run(binary, workload, seed, seconds):
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed, done.stdout[-2000:]))
    counts = next(json.loads(l[len("counts "):]) for l in lines if l.startswith("counts "))
    return counts, sorted(result["metrics"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=bench.WORKLOADS)
    args = parser.parse_args()
    binary = bench.build()
    if binary is None:
        return 2
    ok = True
    for workload in args.workload or bench.WORKLOADS:
        first, names = one_run(binary, workload, 7, args.seconds)
        again, names_again = one_run(binary, workload, 7, args.seconds)
        other, names_other = one_run(binary, workload, 8, args.seconds)
        checks = {
            "same seed, same counts": first == again,
            "second seed, different inputs": other != first,
            "same metric set": names == names_again == names_other,
        }
        for what, passed in checks.items():
            print("%-15s %-32s %s" % (workload, what, "ok" if passed else "MISMATCH"))
            ok &= passed
        if first != again:
            print("  seed 7 counts: %s\n  rerun counts:  %s" % (first, again))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
