#!/usr/bin/env python3
"""Sensitivity drill: proves the benchmark catches a known slowdown.

    python3 perfbench/drill.py

Runs every workload of BENCHMARK.json for its run_seconds on SEEDS seeds
twice, once as is and once with serve::FaultInjector stalling every
Predict by the median serve.predict_ms_b8 of one traced serve_open run,
alternating which side runs first. compare.py's rule then must flag
op_latency_ms_p90 on serve_open as worse, and must flag no metric of the
train workload: training never calls Predict.
Results go to $CARGO_TARGET_DIR/drill/{base,stall}/<workload>.jsonl. Exits
0 when the drill passes.
"""

import json
import os
import shutil
import subprocess
import sys

import compare
import run

SEEDS = 5
EXPECT_FLAGGED = {("serve_open", "op_latency_ms_p90")}


def bench(workload, seed, seconds, trace=0, stall_us=0):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--stall-us", str(stall_us)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"drill: {' '.join(cmd)} exited {out.returncode}")
    return lines[-1]


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]

    traced = json.loads(bench("serve_open", 1, seconds, trace=1))
    stall_us = round(1e3 * traced["metrics"]["serve.predict_ms_b8"]["value"])
    print(f"drill: stall_us={stall_us}", flush=True)

    top = os.path.join(run.build_dir(), "drill")
    shutil.rmtree(top, ignore_errors=True)
    dirs = {"base": os.path.join(top, "base"),
            "stall": os.path.join(top, "stall")}
    for d in dirs.values():
        os.makedirs(d)
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in range(1, SEEDS + 1):
            sides = ["base", "stall"] if seed % 2 else ["stall", "base"]
            for side in sides:
                line = bench(workload, seed, seconds,
                             stall_us=stall_us if side == "stall" else 0)
                with open(os.path.join(dirs[side], workload + ".jsonl"),
                          "a") as f:
                    f.write(line + "\n")
                print(f"drill: {workload} seed {seed} {side} done", flush=True)

    rows = compare.compare(dirs["base"], dirs["stall"], spec)
    flagged = {(r[0], r[1]) for r in rows if r[-1]}
    for w, m, bm, nm, worse, bound, _, _, flag in rows:
        print(f"{w:15} {m:22} {bm:10.4g} {nm:10.4g} {worse:+7.1%} "
              f"bound {bound:4.0%} {'WORSE' if flag else ''}")
    missed = sorted(EXPECT_FLAGGED - flagged)
    false_flags = sorted((w, m) for w, m in flagged if w == "train")
    for w, m in missed:
        print(f"drill: MISSED {m} on {w}")
    for w, m in false_flags:
        print(f"drill: FALSE FLAG {m} on {w}")
    ok = not missed and not false_flags
    print("drill: PASS" if ok else "drill: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
