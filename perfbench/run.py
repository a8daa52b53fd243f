#!/usr/bin/env python3
"""End-to-end benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload train|serve_open|forecast_batch \
        --seed N --seconds S --trace 0|1 [--stall-us US]

Run from the repository root. Builds the conformer library and the
perfbench binary from source into $CARGO_TARGET_DIR (default .bench_build),
runs one workload in its own process, and prints as the last line of stdout
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics. Exits non-zero when the build fails, a
correctness check fails, a declared metric is missing, or the run is
invalid as a measurement.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "forecast_batch", "serve_open")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build(out):
    """Configures (once) and builds the binary; the lock serializes
    concurrent runs sharing one build directory."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                        "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the library and benchmark sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return "git:" + rev.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stall-us", type=int, default=0,
                        help="sensitivity drill: stall every Predict")
    args = parser.parse_args()

    names = declared_metrics(args.trace)
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    work = os.path.join(out, f"work-{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--trace-dir", os.path.join(out, "traces"),
           "--stall-us", str(args.stall_us),
           "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        log(f"benchmark exited with {proc.returncode}: {lines[-1:]}")
        return proc.returncode or 5
    raw = json.loads(lines[-1])
    missing = [n for n in names if n not in raw["metrics"]]
    if missing:
        log(f"metrics missing from the run: {missing}")
        return 6
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: raw["metrics"][n] for n in names},
    }
    print(json.dumps(result), flush=True)
    return 0 if raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
