#!/usr/bin/env python3
"""Build and run the end-to-end designer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload design_session --seed 1 --seconds 35 --trace 0

Builds perfbench/ together with the libraries under src/ (CMake, Release)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
the benchmark. The last line of standard output is the JSON result; see
perfbench/README.md for the workloads and metrics.
"""

import argparse
import ctypes
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("design_session", "team_sync", "restart")


PR_SET_PDEATHSIG = 1


def die_with_parent():
    """In the child: get SIGKILL when this script ends, however it ends."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


def run_child(cmd, **kwargs):
    """subprocess.run that stops and reaps the child on every way out,
    a SIGTERM or SIGINT to this script included."""
    with subprocess.Popen(cmd, preexec_fn=die_with_parent, **kwargs) as child:
        try:
            out, _ = child.communicate()
        except BaseException:
            child.kill()
            child.wait()
            raise
    return subprocess.CompletedProcess(cmd, child.returncode, out)


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build; returns the binary path, or None on failure."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
    )
    for cmd in steps:
        done = run_child(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-6000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def main():
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("seed must be >= 0 and seconds in 1..600")

    binary = build()
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(build_dir(), "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return run_child(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
