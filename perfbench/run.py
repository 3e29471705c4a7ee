#!/usr/bin/env python3
"""Runs one measurement of the repository benchmark (see README.md).

    python3 perfbench/run.py --workload ingest|read_mix --seed N \
        --seconds N --trace 0|1

Run from the repository root. Builds perfbench from source into
.bench_build/perfbench, runs it once in a fresh process on a data
directory under .bench_runs/ (removed on every exit path), and relays its
report. The last line printed is one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero, printing no result, when
the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
WORKLOADS = ("ingest", "read_mix")
# Hard wall-clock cap on one measurement, build excluded.
RUN_CAP_S = 170


class Failed(Exception):
    pass


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the perfbench targets."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
         "--target", "perfbench", "perfbench_checks_test"],
    ]
    with open(os.path.join(BUILD_DIR, "build.log"), "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                raise Failed(f"build step failed: {' '.join(cmd)} "
                             f"(see {out.name})")


def run_binary(args):
    """Runs perfbench once; returns its stdout lines."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    work_dir = os.path.join(RUNS_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(RUNS_DIR, f"trace-{args.workload}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_CAP_S)
    except subprocess.TimeoutExpired:
        raise Failed(f"run exceeded {RUN_CAP_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(out)
        raise Failed(f"perfbench exited with code {proc.returncode}")
    return out.splitlines()


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # A terminated benchmark still kills its child and removes its data.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        build()
        lines = run_binary(args)
        if not lines:
            raise Failed("perfbench printed nothing")
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise Failed("malformed result line")
        # BENCHMARK.json decides which of the reported metrics count.
        names = declared_metrics(args.trace)
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            raise Failed(f"perfbench did not report {missing}")
        result["metrics"] = {n: result["metrics"][n] for n in names}
    except (Failed, OSError, ValueError) as e:
        log(str(e))
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
