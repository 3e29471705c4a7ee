#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the repository root. Builds perfbench, runs the unit tests of its
output checks (a tampered reply must be rejected), then a short untraced
run of every workload and a short traced run of read_mix, which fills
both the append and the read ledger, and fails unless each run reports
correct outputs and no failed calls.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ("ingest", "read_mix")


def bench(workload, trace):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "15", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        return f"exit code {run.returncode}"
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        return f"correct={result['correct']} failed={result['failed']}"
    return ""


def main():
    failures = []
    for workload, trace in [(w, 0) for w in WORKLOADS] + [("read_mix", 1)]:
        err = bench(workload, trace)
        print(f"{workload} trace={trace}: {err or 'ok'}", flush=True)
        if err:
            failures.append(workload)
    tests = os.path.join(".bench_build", "perfbench", "perfbench_checks_test")
    if subprocess.run([tests]).returncode != 0:
        failures.append("perfbench_checks_test")
    print("selftest " + ("FAILED: " + ", ".join(failures) if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
