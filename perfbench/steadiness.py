#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same build agree?

Runs every workload of BENCHMARK.json in two sets, one after the other. In
each set, run i of every workload uses seed `--seed-base + i`; the first set
visits the workloads in the declared order, the second in reverse, so slow
drift of the host shows up as disagreement between the sets. For each
end-to-end metric it prints each set's median and quartiles, the spread
(interquartile range over the median), and the drift of the second median
from the first in the metric's worse direction, next to the metric's bound.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1]
        [--workloads a,b] [--seconds S] [--out results.json]

Run it from the root of the repository; repeat with a second --seed-base.
A spread above its bound (setup_s excepted) or a drift beyond its bound is
flagged; below a third of the bound is what the benchmark aims for. Exits 1
when anything is flagged or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT_FILE = "BENCHMARK.json"


def run_once(bench, workload, seed, seconds):
    command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        print("\n".join(lines[:-1]), file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: outputs not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    if not os.path.exists(ROOT_FILE):
        raise SystemExit("run from the repository root (BENCHMARK.json)")
    with open(ROOT_FILE) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    seconds = args.seconds or bench["run_seconds"]
    sets = [{w: [] for w in workloads} for _ in range(2)]
    for s, order in enumerate([workloads, list(reversed(workloads))]):
        for i in range(args.runs):
            for w in order:
                seed = args.seed_base + i
                sets[s][w].append(run_once(bench, w, seed, seconds))
                print(f"set {s + 1} run {i + 1}/{args.runs} {w} seed {seed}",
                      file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(sets, f)

    flagged = False
    print(f"{'workload':15} {'metric':12} {'bound':>6} | {'set':3} "
          f"{'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} | "
          f"{'drift':>7}  verdict")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([run[name] for run in sets[s][w]])
                     for s in range(2)]
            drift = (stats[1][1] - stats[0][1]) / stats[0][1]
            if metric["better"] == "higher":
                drift = -drift
            worst_spread = max(stats[0][3], stats[1][3])
            verdict = "steady"
            if name != "setup_s" and worst_spread > bound:
                verdict = "SPREAD OVER BOUND"
            elif drift > bound:
                verdict = "DRIFT OVER BOUND"
            elif name != "setup_s" and worst_spread > bound / 3:
                verdict = "spread above bound/3"
            flagged |= verdict in ("SPREAD OVER BOUND", "DRIFT OVER BOUND")
            for s in range(2):
                q1, q2, q3, spread = stats[s]
                tail = f"{drift:+7.3f}  {verdict}" if s == 1 else ""
                print(f"{w:15} {name:12} {bound:6.3f} | {s + 1:3} {q2:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {spread:7.3f} | {tail}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
