#!/usr/bin/env python3
"""Tests of the benchmark itself, at the seconds-long small scale.

    python3 perfbench/selftest.py

1. Every workload runs untraced and traced, passes every check, and prints
   exactly the metrics BENCHMARK.json names for that mode.
2. A planted wrong answer makes the oracle fail: a neighbour swapped for a
   far row (every workload) and a deleted id injected (dynamic_mixed).
Exits 0 when all cases pass.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(workload, trace, plant=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "small"]
    if plant:
        cmd += ["--plant", plant]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        return None, "exit %d: %s" % (done.returncode, done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1]), ""


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    failures = []

    def expect(case, ok, detail=""):
        print("%-44s %s" % (case, "ok" if ok else "FAIL " + detail), flush=True)
        if not ok:
            failures.append(case)

    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            result, err = run(name, trace)
            case = "%s trace=%d" % (name, trace)
            if result is None:
                expect(case, False, err)
                continue
            expect(case, result["correct"] and result["failed"] == 0 and
                   result["attempted"] > 0 and
                   set(result["metrics"]) == names[trace],
                   json.dumps(result)[:400])
        result, err = run(name, 0, plant="far")
        expect("%s planted far row" % name,
               result is not None and not result["correct"] and
               result["failed"] >= 1, err or json.dumps(result)[:200])
    result, err = run("dynamic_mixed", 0, plant="deleted")
    expect("dynamic_mixed planted deleted id",
           result is not None and not result["correct"] and
           result["failed"] >= 1, err or json.dumps(result)[:200])
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
