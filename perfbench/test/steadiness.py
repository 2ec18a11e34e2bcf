#!/usr/bin/env python3
"""Steadiness self-test of the RBFT benchmark.

Run from the root of a checkout:

    python3 perfbench/test/steadiness.py [--workloads steady-8b,bulk-4k]
        [--seeds 1,2,3] [--seconds 15]

Two checks, per workload:

1. Determinism. The first seed runs twice, in two processes. The
   virtual-time metrics and the engine's event count must come back bit
   for bit. The allocation and heap figures must agree within 0.1 %:
   the runtime's allocations depend slightly on where the system maps
   memory, so with address randomisation they can differ in the fourth
   or fifth digit (worst2-8b seed 1: 5956.03 or 5955.91 words per request,
   52.771 or 52.802 MB), while with it off they repeat exactly.
   setup_s is timed, so it is not compared.
2. Spread. Every seed runs once; for each end-to-end metric the script
   prints the median and the quartile spread (Q3 - Q1) / median, as
   Python's statistics.quantiles(values, n=4) gives the quartiles, beside
   the bound BENCHMARK.json sets. A spread at or above its bound fails
   the test for the workloads BENCHMARK.json lists, setup_s included;
   for the others (worst2-8b) it is only reported.

Every run must also report "correct": true. Exit status 1 on any failure.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Metrics a repeated seed must reproduce exactly: virtual-time figures and
# the engine's event count.
EXACT = ["goodput_req_s", "latency_p50_ms", "latency_p99_ms", "completed_ratio",
         "slo_ok_ratio", "sim_events_per_req"]
# Metrics a repeated seed must reproduce within NEAR_TOLERANCE (relative):
# counts taken from the OCaml runtime, which vary slightly with the
# memory layout the system gives the process.
NEAR = ["sim_words_per_req", "peak_heap_mb"]
NEAR_TOLERANCE = 1e-3


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, result["correct"]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    listed = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(listed + ["worst2-8b"]))
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 3:
        sys.exit("need at least 3 seeds")
    failures = []
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds:
            metrics, correct = run(wl, seed, args.seconds)
            if not correct:
                failures.append(f"{wl} seed {seed}: correct is false")
            runs.append(metrics)
        again, _ = run(wl, seeds[0], args.seconds)
        for name in EXACT + NEAR:
            a, b = runs[0][name], again[name]
            same = (a == b if name in EXACT
                    else abs(a - b) <= NEAR_TOLERANCE * abs(a))
            if not same:
                failures.append(f"{wl} seed {seeds[0]}: {name} {a!r} then {b!r}")
        print(f"\n{wl} (seeds {args.seeds})")
        print(f"  {'metric':22} {'median':>14} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            med, sp = spread([r[name] for r in runs])
            flag = ""
            if sp >= bound:
                flag = "  OVER BOUND"
                if wl in listed:
                    failures.append(f"{wl}: {name} spread {sp:.3f} >= bound {bound}")
            elif sp >= bound / 3:
                flag = "  over a third of bound"
            print(f"  {name:22} {med:14.6g} {sp:8.4f} {bound:6.2f}{flag}")
    for f in failures:
        print("FAIL:", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
