#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and write steadiness.json.

Run from the root of a checkout:

    python3 perfbench/steady.py

Each of SETS sets runs every workload RUNS times with seeds 1..RUNS, at
BENCHMARK.json's run_seconds.  For every end-to-end metric the spread is
the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median; it must stay
within the metric's bound, and each later set's median may not be worse
than the first set's by more than the bound.  Every miss is printed as
an EXCEEDS line, recorded in steadiness.json, and makes the script exit 1.
"""

import json
import os
import statistics
import subprocess
import sys

RUNS = 10
SETS = 2
OUT = "perfbench/steadiness.json"


def run(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{done.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    record = {"nproc": os.cpu_count(), "runs": RUNS,
              "run_seconds": spec["run_seconds"], "sets": [], "exceeds": []}
    for s in range(SETS):
        rows = {}
        for w in workloads:
            values = {}
            for seed in range(1, RUNS + 1):
                for k, v in run(w, seed, spec["run_seconds"]).items():
                    values.setdefault(k, []).append(v)
            rows[w] = {}
            for k, vs in values.items():
                q1, med, q3 = statistics.quantiles(vs, n=4)
                bound = metrics[k]["bound"]
                row = {"median": med, "spread": round((q3 - q1) / med, 4),
                       "values": [round(v, 6) for v in vs]}
                misses = []
                if row["spread"] > bound:
                    misses.append(f"spread {row['spread']:.4f}")
                if s > 0:
                    first = record["sets"][0][w][k]["median"]
                    worse = (med - first if metrics[k]["better"] == "lower"
                             else first - med) / first
                    row["worse_than_first"] = round(worse, 4)
                    if worse > bound:
                        misses.append(f"worse than set 1 by {worse:.4f}")
                rows[w][k] = row
                note = "" if row["spread"] < bound / 3 else "  (above a third of its bound)"
                if "worse_than_first" in row:
                    note += f"  worse than set 1 by {row['worse_than_first']:.4f}"
                print(f"set {s + 1} {w:14} {k:22} median {med:12.5g}  "
                      f"spread {row['spread']:.4f}  bound {bound}{note}", flush=True)
                for miss in misses:
                    line = f"set {s + 1} {w} {k}: {miss} EXCEEDS bound {bound}"
                    record["exceeds"].append(line)
                    print(line, flush=True)
        record["sets"].append(rows)
    with open(OUT, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 1 if record["exceeds"] else 0


if __name__ == "__main__":
    sys.exit(main())
