#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs a tiny-size pass of every workload in BENCHMARK.json, untraced and
traced, and checks that each result line is correct and names every
end-to-end (untraced) or per-layer (traced) metric with the unit
BENCHMARK.json gives it, and nothing else. Then reruns each workload
with deliberately wrong pinned fingerprints (--corrupt-pins) and checks
that the correctness gate trips: "correct" false and exit code 1.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    r = subprocess.run(cmd + list(extra), cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, timeout=600)
    lines = r.stdout.decode().strip().splitlines()
    return r.returncode, (json.loads(lines[-1]) if lines else None)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    tables = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, table in tables.items():
            code, res = run(name, trace)
            tag = "%s --trace %d" % (name, trace)
            if code != 0 or res is None or res["correct"] is not True:
                problems.append("%s: exit %d, result %r" % (tag, code, res))
                continue
            got = res["metrics"]
            want = {m["name"]: m["unit"] for m in table}
            for m, unit in want.items():
                if m not in got:
                    problems.append("%s: metric %s not printed" % (tag, m))
                elif got[m]["unit"] != unit:
                    problems.append("%s: %s has unit %r, not %r" % (tag, m, got[m]["unit"], unit))
            for m in set(got) - set(want):
                problems.append("%s: unexpected metric %s" % (tag, m))
            print("ok   %s: %d metrics, %d checked" % (tag, len(got), res["attempted"]))
        code, res = run(name, 0, "--corrupt-pins")
        if code != 1 or res is None or res["correct"] is not False or res["failed"] < 1:
            problems.append("%s --corrupt-pins: gate did not trip (exit %d, %r)" % (name, code, res))
        else:
            print("ok   %s --corrupt-pins: gate tripped, %d failed" % (name, res["failed"]))
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
