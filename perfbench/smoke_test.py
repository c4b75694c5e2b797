#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke_test.py [--seconds 0.5]

Run from the root of the repository. For every workload in BENCHMARK.json it
runs the untraced and the traced variant and asserts that

  * the run exits 0 and its outputs pass every check (correct, 0 failed);
  * the untraced result carries exactly the declared end-to-end metrics, and
    each prints on its own line with its unit and sample count;
  * the traced result carries exactly the declared per-layer metrics, the
    layers named for the workload read non-zero, the pinned counts are
    reproduced, and the self times plus the uncovered remainder add up to
    the traced operation time;
  * the traced run wrote its spans.

Finally it checks that the command fails, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys

# Per-layer metrics each workload must exercise (non-zero in a traced run).
EXPLORER = ["explorer.worlds_built", "explorer.executions",
            "explorer.useful_share", "explorer.self_ms", "scheduler.picks",
            "scheduler.pick_ns", "runtime.build_us", "runtime.grants",
            "runtime.run_ns_per_grant", "runtime.teardown_us", "trace.op_us",
            "self.explorer_us", "self.scheduler_us", "self.build_us",
            "self.run_us", "self.teardown_us", "self.uncovered_us"]
SERVICE = ["service.open_ns_p50", "service.open_ns_p99",
           "service.submit_ns_p50", "service.submit_ns_p99",
           "service.worker_busy_share", "service.callback_us",
           "checking.audit_us", "service.ticks", "service.tick_us",
           "service.latency_ticks_p50", "service.latency_ticks_p99",
           "service.inbox_peak", "service.peak_live", "service.gc_sweeps",
           "service.timed_out", "service.skipped_ops",
           "instance.blocks_carved", "instance.block_reuses",
           "service.memo_slots", "service.stop_ms", "trace.op_us",
           "self.open_us", "self.submit_us", "self.callback_us",
           "self.audit_us", "self.uncovered_us"]
EXERCISED = {
    "explore-mixed": EXPLORER,
    "explore-claims": EXPLORER + [
        "explorer.shrink_ms", "scheduler.choose_ns", "checking.checks",
        "checking.check_us", "claims.alg5_k3_ms", "claims.doorway_f1_ms",
        "claims.ablated_f1_ms", "claims.alg2_stateful_ms", "self.check_us",
        "self.shrink_us"],
    "serve-paced": SERVICE + ["load.lag_us_p99"],
    "serve-flood": SERVICE,
}
# Counts every traced operation must reproduce exactly.
PINNED = {
    "explore-mixed": {"explorer.executions": 2520,
                      "explorer.worlds_built": 4763,
                      "runtime.grants": 69664},
    # 2,448 + 862 + 83 (the ablated search up to its conviction) + 40.
    "explore-claims": {"explorer.executions": 3433},
}
SELF_PARTS = ["self.explorer_us", "self.shrink_us", "self.scheduler_us",
              "self.build_us", "self.run_us", "self.check_us",
              "self.teardown_us", "self.open_us", "self.submit_us",
              "self.callback_us", "self.audit_us", "self.uncovered_us"]

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"  FAIL {what}")


def run(command, cwd=None):
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd)


def check_workload(bench, workload, seconds):
    print(f"{workload}:")
    before = len(failures)
    base = bench["command"] + ["--workload", workload, "--seed", "7",
                               "--seconds", str(seconds)]
    for trace, declared in (("0", bench["end_to_end"]),
                            ("1", bench["per_layer"])):
        done = run(base + ["--trace", trace])
        lines = done.stdout.strip().splitlines()
        expect(done.returncode == 0 and lines,
               f"{workload} trace={trace}: exit {done.returncode} "
               f"{done.stderr[-400:]}")
        if not lines:
            continue
        result = json.loads(lines[-1])
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
               f"{workload}: result keys {sorted(result)}")
        expect(result["correct"] and result["failed"] == 0,
               f"{workload} trace={trace}: outputs failed checks")
        expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
        metrics = result["metrics"]
        names = [m["name"] for m in declared]
        expect(sorted(metrics) == sorted(names),
               f"{workload} trace={trace}: metric set differs from "
               "BENCHMARK.json")
        for m in declared:
            got = metrics.get(m["name"], {})
            expect(got.get("unit") == m["unit"],
                   f"{workload}: {m['name']} unit {got.get('unit')}")
        if trace == "0":
            for m in declared:
                line = re.compile(r"^\s+%s\s+\S+\s+%s\s+n=\d+" % (
                    re.escape(m["name"]), re.escape(m["unit"])))
                expect(any(line.match(l) for l in lines[:-1]),
                       f"{workload}: no '{m['name']} <value> {m['unit']} "
                       "n=<samples>' line")
                expect(metrics[m["name"]]["value"] > 0,
                       f"{workload}: {m['name']} is not positive")
            continue
        value = {k: v["value"] for k, v in metrics.items()}
        for name in EXERCISED[workload]:
            expect(value[name] > 0, f"{workload}: {name} reads 0")
        for name, want in PINNED.get(workload, {}).items():
            expect(value[name] == want,
                   f"{workload}: {name} = {value[name]}, pinned {want}")
        parts = sum(value[p] for p in SELF_PARTS)
        expect(abs(parts - value["trace.op_us"]) <=
               1e-6 * max(1.0, value["trace.op_us"]),
               f"{workload}: self times sum to {parts}, traced op "
               f"{value['trace.op_us']}")
        spans = [l for l in lines if "spans written to " in l]
        expect(spans, f"{workload}: no spans file reported")
        if spans:
            path = spans[0].split("spans written to ", 1)[1].strip()
            with open(path) as f:
                first = f.readline()
            expect(first and set(json.loads(first)) == {
                "thread", "name", "start_ns", "end_ns", "parent", "op"},
                f"{workload}: spans file {path} malformed")
    if len(failures) == before:
        print("  ok")


def check_bare_directory(bench):
    print("bare directory:")
    before = len(failures)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bare = os.path.join(target, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bench["command"] + ["--workload", "explore-mixed", "--seed",
                                   "1", "--seconds", "1", "--trace", "0"],
               cwd=bare)
    expect(done.returncode != 0 and "{" not in done.stdout,
           "bare directory: the command did not fail without a result")
    shutil.rmtree(bare, ignore_errors=True)
    if len(failures) == before:
        print("  ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=0.5)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        check_workload(bench, w["name"], args.seconds)
    check_bare_directory(bench)
    if failures:
        print(f"{len(failures)} smoke checks failed")
        sys.exit(1)
    print("all smoke checks passed")


if __name__ == "__main__":
    main()
