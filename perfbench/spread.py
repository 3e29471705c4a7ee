#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each end-to-end
metric's median and its spread (interquartile range / median), next to
the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload read_mix --seeds 1-10 [--seconds N]

Run from the repository root. Every run's result line is appended to
.bench_runs/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    os.makedirs(".bench_runs", exist_ok=True)
    log = os.path.join(".bench_runs", f"spread-{args.workload}.jsonl")
    values = {}
    for seed in seeds(args.seeds):
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        if run.returncode != 0 or not run.stdout.strip():
            print(f"seed {seed}: run failed", flush=True)
            continue
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        report = [l.rstrip() for l in lines[:-1]]
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, "report": report, **result}) + "\n")
        brief = " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']} {brief}", flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for m in bench["end_to_end"]:
        v = values.get(m["name"], [])
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{m['name']:24s} median {med:12.4f}  spread {(q3 - q1) / med:.3f}"
              f"  bound {m['bound']}")


if __name__ == "__main__":
    main()
