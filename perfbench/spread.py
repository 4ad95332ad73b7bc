#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command of BENCHMARK.json once per seed for each workload and
prints, per metric, the median of the runs and the distance between the
first and third quartile as a share of that median, next to the metric's
bound. Run it from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads validate,faults] [--trace 0]
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    ok = True
    for w in names:
        runs = []
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", args.trace]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            last = json.loads(out.stdout.strip().splitlines()[-1])
            if not last["correct"] or last["failed"]:
                ok = False
                print(f"{w} seed {s}: incorrect ({last['failed']} failed)", file=sys.stderr)
            runs.append(last["metrics"])
        print(f"== {w} ({len(runs)} runs)")
        for m in runs[0]:
            vals = [r[m]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(m)
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER")
            print(f"  {m:<40} median {med:<14.6g} spread {spread:7.4f}  bound {bound}  {flag}")
            print("      " + " ".join(f"{v:.5g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
