#!/usr/bin/env python3
"""Compares two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds one <workload>.jsonl per workload: the last stdout
line of every `perfbench/run.py --trace 0` run, one per line. For every
end_to_end metric and workload the new median is flagged when it is worse
than the base median by more than the metric's bound. Also prints each
side's spread (quartile distance over median). Exits 1 when anything is
flagged.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(base_dir, new_dir, spec):
    """Returns [(workload, metric, base_median, new_median, worse_share,
    bound, base_spread, new_spread, flagged)]."""
    rows = []
    for name in sorted(os.listdir(base_dir)):
        if not name.endswith(".jsonl"):
            continue
        new_path = os.path.join(new_dir, name)
        if not os.path.exists(new_path):
            continue
        base = load_runs(os.path.join(base_dir, name))
        new = load_runs(new_path)
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in base]
            n = [r["metrics"][m["name"]]["value"] for r in new]
            bm, nm = statistics.median(b), statistics.median(n)
            worse = (nm - bm) / bm if m["better"] == "lower" else (bm - nm) / bm
            rows.append((name[:-len(".jsonl")], m["name"], bm, nm, worse,
                         m["bound"], spread(b), spread(n), worse > m["bound"]))
    return rows


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = compare(sys.argv[1], sys.argv[2], spec)
    print(f"{'workload':15} {'metric':22} {'base':>10} {'new':>10} "
          f"{'worse':>7} {'bound':>6} {'spread':>13}  flag")
    for w, m, bm, nm, worse, bound, bs, ns, flag in rows:
        print(f"{w:15} {m:22} {bm:10.4g} {nm:10.4g} {worse:+7.1%} "
              f"{bound:6.0%} {bs:6.1%}/{ns:<6.1%}  {'WORSE' if flag else ''}")
    return 1 if any(r[-1] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
