#!/usr/bin/env python3
"""Run the benchmark the way the driver does and collect the results.

    python3 spine/run_all.py --out results.json            # seeds 1 and 2, every workload
    python3 spine/run_all.py --seeds 1,2,3 --repeats 2 --traced 1 --out r.json
    python3 spine/run_all.py --spread --seeds 1-10          # the driver's steadiness rule

Run from the root of the repo.  The command, workloads, run length and
bounds come from BENCHMARK.json; each run is one process and its result
is the last line it prints.  `--out` writes a results file that
`spine --compare a.json b.json` reads; run this script twice for an A/A
pair.  `--spread` prints, per workload and end-to-end metric, the
inter-quartile distance of the per-seed values as a share of their
median (Python's statistics.quantiles, as the driver computes it) next
to the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(bench, workload, seed, trace):
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    started = time.time()
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no result (exit {done.returncode})\n{done.stderr[-2000:]}")
    run = json.loads(lines[-1])
    run.update(workload=workload, seed=seed, trace=trace, exit=done.returncode,
               wall_s=round(time.time() - started, 3))
    flag = "" if run["correct"] and done.returncode == 0 else "  ** FAILED **"
    print(f"  {workload:<16} seed {seed:<3} trace {trace}  {run['wall_s']:7.1f} s{flag}", file=sys.stderr)
    return run


def spread_table(bench, runs):
    print(f"{'workload':<16} {'metric':<14} {'median':>14} {'spread':>8} {'bound':>6}  n")
    worst = 0.0
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs
                      if r["workload"] == w["name"] and r["trace"] == 0]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            note = ""
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
                note = "  > bound/3" if spread > m["bound"] / 3 else ""
                note = "  ** > bound **" if spread > m["bound"] else note
            print(f"{w['name']:<16} {m['name']:<14} {median:14.6f} {spread:8.2%} {m['bound']:6.0%}  {len(values)}{note}")
    print(f"largest spread is {worst:.2f} of its bound (the driver needs <= 1, aim for <= 0.33)")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--repeats", type=int, default=1, help="plain runs per workload and seed")
    ap.add_argument("--traced", type=int, default=0, help="traced runs per workload and seed")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--out", help="results file to write")
    ap.add_argument("--spread", action="store_true", help="print the spread table")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    chosen = [n for n in names if not args.workloads or n in args.workloads.split(",")]
    runs = []
    for workload in chosen:
        for seed in seeds_of(args.seeds):
            runs += [run_once(bench, workload, seed, 0) for _ in range(args.repeats)]
            runs += [run_once(bench, workload, seed, 1) for _ in range(args.traced)]
    if args.out:
        provenance = {}
        report = os.path.join("spine", "out", f"{chosen[-1]}.json")
        if os.path.exists(report):
            with open(report) as f:
                provenance = json.load(f).get("provenance", {})
            provenance.pop("seed", None)
        with open(args.out, "w") as f:
            json.dump({"provenance": provenance, "run_seconds": bench["run_seconds"], "runs": runs}, f, indent=1)
            f.write("\n")
        print(f"wrote {args.out} ({len(runs)} runs)", file=sys.stderr)
    if args.spread:
        spread_table(bench, runs)
    if any(not r["correct"] or r["exit"] != 0 for r in runs):
        sys.exit("a run failed an operation or an output check")


if __name__ == "__main__":
    main()
