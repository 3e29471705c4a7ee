#!/usr/bin/env bash
# Hot-path performance smoke test: builds the Release microbenchmarks,
# runs the sealing hot path (SHA-256 singles + batch, Merkle build,
# ECDSA sign/verify/recover singles + batch, full-batch seal) plus the
# RPC session handshake and its scalar multiplications, and a sealed
# single-entry segment-store read (BM_SegmentGetEntry, ungated), the
# secp256k1 field and scalar kernels (BM_FpMul, BM_FpSqr, BM_FpInv,
# BM_FpSqrt, BM_FnMul, BM_FnInv; ungated) and the cached-key checks
# (BM_SignedByCached, BM_SignedByOneOff, and BM_RecoverSignerMany/8 and
# BM_VerifyRecoverableMany/8 at read_mix's append size; ungated), with the
# dispatched backends AND with every acceleration forced off
# (WEDGE_DISABLE_HWCRYPTO=1 WEDGE_DISABLE_ECPRECOMP=1), and writes
# BENCH_hotpath.json at the repo root with before/after rows against the
# recorded seed baselines.
#
# Exits non-zero when the tracked speedup criteria regress:
#   - BM_MerkleBuild/2000 >= 2.0x over seed with the dispatched backend
#   - BM_MerkleBuild/2000 >= 1.5x over seed with hardware crypto disabled
#   - BM_SealBatch/2000 >= 5.0x over seed with the dispatched backend
#     (the ISSUE 9 secp256k1 fast-path gate; stretch target is 10x)
#   - BM_EcdsaVerify >= 3.0x over seed with the dispatched backend
#   - BM_VerifyRecoverableMany/256 (the fixed-key ingest check) takes at
#     most 0.5x the time of BM_RecoverSignerMany/256 (per-entry recovery
#     of the same 256 signatures), dispatched backend: a ratio of two
#     rows of one run, so it holds on any host
#
# Also runs the sharded-engine scaling bench (bench/shard_scaling), which
# writes BENCH_shard.json and enforces its own criteria: exactly one
# forest tx per epoch (always), and >= 2x 4-shard ingest speedup when the
# machine has >= 4 cores.
#
# Every stage runs even when an earlier one fails its gate; the script
# then exits non-zero and lists every failed stage.
#
# Usage: tools/perf_smoke.sh [build_dir]   (default: build-perf)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-perf}"

echo "==> [perf] configuring $build_dir (Release)"
cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >/dev/null
echo "==> [perf] building microbench + shard_scaling + obs_overhead + storage_sweep"
cmake --build "$build_dir" -j "$(nproc)" \
  --target microbench shard_scaling obs_overhead storage_sweep >/dev/null

filter='BM_Sha256/1088|BM_Sha256Many/2000|BM_MerkleBuild/2000|BM_MerkleBuildParallel/2000|BM_SealBatch/2000|BM_EcdsaSign$|BM_EcdsaVerify$|BM_EcdsaRecover$|BM_EcdsaSignMany/2000|BM_RecoverSignerMany/256|BM_VerifyRecoverableMany/256|BM_RecoverSignerMany/8$|BM_VerifyRecoverableMany/8$|BM_SignedByCached|BM_SignedByOneOff|BM_FixedPointTableBuild|BM_ScalarMulBase$|BM_ScalarMul$|BM_SessionHandshake|BM_SegmentGetEntry|BM_FpMul$|BM_FpSqr$|BM_FpInv$|BM_FpSqrt$|BM_FnMul$|BM_FnInv$'
tmp_dispatched="$(mktemp)"
tmp_scalar="$(mktemp)"
trap 'rm -f "$tmp_dispatched" "$tmp_scalar"' EXIT

failures=()
# Runs one stage; a failure is recorded and the next stage still runs.
stage() {
  local name="$1"
  shift
  if ! "$@"; then
    echo "==> [perf] stage failed: $name" >&2
    failures+=("$name")
  fi
}

echo "==> [perf] running hot-path benchmarks (dispatched backend)"
stage "microbench (dispatched)" "$build_dir/bench/microbench" \
  --benchmark_filter="$filter" --benchmark_min_time=0.2 \
  --benchmark_format=json >"$tmp_dispatched"

echo "==> [perf] running hot-path benchmarks (all accelerations forced off)"
stage "microbench (accelerations off)" \
  env WEDGE_DISABLE_HWCRYPTO=1 WEDGE_DISABLE_ECPRECOMP=1 \
  "$build_dir/bench/microbench" --benchmark_filter="$filter" \
  --benchmark_min_time=0.2 --benchmark_format=json >"$tmp_scalar"

stage "hot-path criteria" python3 - "$tmp_dispatched" "$tmp_scalar" \
  "$repo_root/BENCH_hotpath.json" <<'PY'
import json, sys

# Seed (pre-optimization) Release-build baselines, recorded before the
# dispatched backends / batch hashing / copy-free sealing landed. The
# ECDSA rows were measured immediately before the secp256k1 fast path
# (comb tables, GLV, batch inversion) replaced the generic 4-bit-window
# scalar multiplication.
SEED_NS = {
    "BM_Sha256/1088": 6114,
    "BM_MerkleBuild/2000": 14429974,
    "BM_SealBatch/2000": 317576157,
    "BM_EcdsaSign": 131076,
    "BM_EcdsaVerify": 400679,
    "BM_EcdsaRecover": 459626,
}
CRITERIA = [
    # (benchmark, run, minimum speedup over seed)
    ("BM_MerkleBuild/2000", "dispatched", 2.0),
    ("BM_MerkleBuild/2000", "scalar_forced", 1.5),
    ("BM_SealBatch/2000", "dispatched", 5.0),
    ("BM_EcdsaVerify", "dispatched", 3.0),
]
RATIO_CRITERIA = [
    # (benchmark, baseline benchmark of the same run, run, maximum ratio)
    ("BM_VerifyRecoverableMany/256", "BM_RecoverSignerMany/256",
     "dispatched", 0.5),
]

def rows(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        # Normalize to nanoseconds.
        unit = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[b["time_unit"]]
        out[b["name"]] = b["real_time"] * unit
    return out

dispatched = rows(sys.argv[1])
scalar = rows(sys.argv[2])

report = {"seed_baseline_ns": SEED_NS, "benchmarks": []}
for name in sorted(set(dispatched) | set(scalar)):
    row = {"name": name}
    if name in dispatched:
        row["dispatched_ns"] = round(dispatched[name])
    if name in scalar:
        row["scalar_forced_ns"] = round(scalar[name])
    if name in SEED_NS:
        row["seed_ns"] = SEED_NS[name]
        if name in dispatched:
            row["dispatched_speedup"] = round(SEED_NS[name] / dispatched[name], 2)
        if name in scalar:
            row["scalar_forced_speedup"] = round(SEED_NS[name] / scalar[name], 2)
    report["benchmarks"].append(row)

failures = []
for name, run, minimum in CRITERIA:
    measured = dispatched if run == "dispatched" else scalar
    if name not in measured:
        failures.append(f"{name} ({run}): benchmark missing from output")
        continue
    speedup = SEED_NS[name] / measured[name]
    status = "ok" if speedup >= minimum else "REGRESSED"
    print(f"    {name} [{run}]: {speedup:.2f}x over seed "
          f"(minimum {minimum:.1f}x) -> {status}")
    if speedup < minimum:
        failures.append(f"{name} ({run}): {speedup:.2f}x < {minimum:.1f}x")

for name, base, run, maximum in RATIO_CRITERIA:
    measured = dispatched if run == "dispatched" else scalar
    missing = [b for b in (name, base) if b not in measured]
    if missing:
        failures.append(f"{name} / {base} ({run}): missing {missing}")
        continue
    ratio = measured[name] / measured[base]
    report.setdefault("ratios", []).append(
        {"name": name, "base": base, "run": run, "ratio": round(ratio, 3),
         "maximum": maximum})
    status = "ok" if ratio <= maximum else "REGRESSED"
    print(f"    {name} / {base} [{run}]: {ratio:.2f}x "
          f"(maximum {maximum:.2f}x) -> {status}")
    if ratio > maximum:
        failures.append(f"{name} / {base} ({run}): {ratio:.2f}x > {maximum:.2f}x")

report["criteria_passed"] = not failures
with open(sys.argv[3], "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"==> [perf] wrote {sys.argv[3]}")
if failures:
    print("==> [perf] FAILED: " + "; ".join(failures))
    sys.exit(1)
PY

echo "==> [perf] running sharded-engine scaling bench"
stage "shard_scaling" "$build_dir/bench/shard_scaling" --entries 40000 \
  --json-out "$repo_root/BENCH_shard.json"
echo "==> [perf] wrote $repo_root/BENCH_shard.json"

# Observability overhead: full tracing + a live admin scraper must cost
# < 3% append throughput versus the same run with both disabled.
echo "==> [perf] running observability overhead bench"
stage "obs_overhead" "$build_dir/bench/obs_overhead" \
  --json-out "$repo_root/BENCH_obs.json"
echo "==> [perf] wrote $repo_root/BENCH_obs.json"

# Segmented-store durability sweep: group-commit must amortize syncs to
# >= 10x the per-append-fsync arm's durable throughput, and segment
# recovery must stay under the 2s-per-1M-entries bound (storage_sweep
# scales the bound to the entry count it actually ran; --quick keeps the
# smoke fast while a full multi-GB sweep can be run by hand with the
# same binary and no flags). Each segment arm's row also reports its
# seals (count, p50/max seal_us) and write amplification. Scratch lives
# under the build dir on a real filesystem so the fsync costs being
# measured are real.
echo "==> [perf] running storage durability sweep (quick)"
stage "storage_sweep" "$build_dir/bench/storage_sweep" --quick \
  --dir "$build_dir/storage-sweep-scratch" \
  --json-out "$repo_root/BENCH_storage.json"
echo "==> [perf] wrote $repo_root/BENCH_storage.json"

if ((${#failures[@]} > 0)); then
  echo "==> [perf] FAILED stages:"
  printf '    %s\n' "${failures[@]}"
  exit 1
fi
echo "==> [perf] OK"
