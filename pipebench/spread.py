#!/usr/bin/env python3
"""Run-to-run spread of the pipeline benchmark, judged the way its bounds are.

    python3 pipebench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs BENCHMARK.json's command --runs times per workload, each with the next
seed and the file's run_seconds, untraced. For every end-to-end metric it
prints the median and the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound: "steady" when the spread is under a third of the bound, "ok" under
the bound, "WIDE" above it. Exits non-zero if a run fails or is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if out.returncode != 0 or result is None or not result["correct"]:
                print("%s seed %d: FAILED (exit %d)\n%s" %
                      (workload, seed, out.returncode, out.stdout[-2000:] + out.stderr[-2000:]))
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (name, v[-1]) for name, v in values.items())), file=sys.stderr)
        print("== %s (%d runs)" % (workload, len(next(iter(values.values())))))
        for metric in bench["end_to_end"]:
            v = values[metric["name"]]
            if len(v) < 2:
                continue
            q1, median, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = metric["bound"]
            verdict = "steady" if spread < bound / 3 else "ok" if spread <= bound else "WIDE"
            print("  %-16s median %14.6g %-9s spread %6.3f  bound %.2f  %s" %
                  (metric["name"], median, metric["unit"], spread, bound, verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
