#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark executable is built from
source with dune (build directory _build/, dune's shared cache off, so
nothing is written outside the checkout), then run with the same
arguments; its last stdout line is the JSON result. The exit code is the
benchmark's: 0 when every output was correct, 1 when one was not, 2 on a
usage or build error (in which case no result is printed).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850


def run_timeout_s(argv):
    # A run measures for --seconds, then checks its outputs and (traced)
    # runs the layer suite; both grow with the measured time, so the
    # guard against a hung run does too: 60 s at --seconds 0, 150 s at 15.
    seconds = 0.0
    if "--seconds" in argv[:-1]:
        try:
            seconds = max(0.0, float(argv[argv.index("--seconds") + 1]))
        except ValueError:
            pass  # main.exe rejects it with a usage error
    return 60 + 6 * seconds


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_cmd():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    # The program under test is the repository itself: without its
    # sources there is nothing to measure.
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a checkout of the repository: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            dune_cmd() + ["build", "--root", ".", "./perfbench/main.exe"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed")


def main():
    build()
    timeout = run_timeout_s(sys.argv[1:])
    try:
        r = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %.0f s" % timeout)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
