#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (fig6/fig7 --maxn=256,
ext_quant_transformer --maxseq=128, a short serve schedule).

    python3 perfbench/smoke.py

Run from the root of a source checkout that holds BENCHMARK.json. Checks,
for every workload, that the untraced and the traced run exit 0 and print
every metric BENCHMARK.json names, with its unit, and that a deliberately
altered golden (figures) and payload (serve_mix) are caught as failures.
Exits nonzero on the first problem.
"""

import json
import os
import subprocess
import sys

RUN = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py")]


def run(workload, trace, tamper=None):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "4",
                 "--trace", str(trace), "--smoke"]
    if tamper:
        cmd += ["--tamper", tamper]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines, result, proc.stderr


def fail(msg):
    print("smoke: FAIL " + msg)
    sys.exit(1)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            code, lines, result, err = run(workload, trace)
            if code != 0 or result is None:
                fail("%s --trace %d exited %d:\n%s" % (workload, trace, code,
                                                      err[-2000:]))
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                fail("%s: result keys %s" % (workload, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                fail("%s --trace %d: outputs did not check" % (workload,
                                                               trace))
            names = [m["name"] for m in declared]
            if sorted(result["metrics"]) != sorted(names):
                fail("%s --trace %d: metrics %s, declared %s"
                     % (workload, trace, sorted(result["metrics"]),
                        sorted(names)))
            for m in declared:
                got = result["metrics"][m["name"]]
                if got["unit"] != m["unit"] or not isinstance(
                        got["value"], (int, float)):
                    fail("%s: %s is %r" % (workload, m["name"], got))
                if not any(line.split()[:1] == [m["name"]] and
                           m["unit"] in line.split() for line in lines):
                    fail("%s: no '%s ... %s' line" % (workload, m["name"],
                                                      m["unit"]))
            print("smoke: %s --trace %d ok" % (workload, trace))

    for workload, tamper in (("figures", "golden"),
                             ("serve_mix", "payload")):
        code, _, result, _ = run(workload, 0, tamper)
        if code == 0 or result is None or result["failed"] < 1 or \
                result["correct"]:
            fail("%s: an altered %s was not caught" % (workload, tamper))
        print("smoke: altered %s caught on %s" % (tamper, workload))
    print("smoke: all ok")


if __name__ == "__main__":
    main()
